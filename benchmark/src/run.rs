//! The timed phases: two closed-loop client threads over one system
//! instance, in a fixed order.
//!
//! **Phase order and why.** warm-up (2 clients, discarded) → duo (2
//! clients, batch-timed) → latency (2 clients, every op timed) → solo
//! (client 0 alone; client 1 has retired). Solo is *last* so the second
//! vCPU is never idle immediately before a 2-client measurement: after
//! an idle spell the guest time-slices both clients on one core for
//! about a second, which reads 2× *fast* on contended writes (no real
//! contention) and slow on reads. The warm-up absorbs that transient
//! once, at the start; the phases after it run back to back.
//!
//! Callers of an in-process library each wait for their reply, so the
//! loop is closed: a client issues its next op when the previous one
//! returns. Ops are generated 256 at a time *outside* the timed
//! regions, so the rates are service rates of the program, not of the
//! generator.

use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use waitfree_sched::thread;

use crate::hist::Hist;
use crate::host;
use crate::rng::Zipf;
use crate::sut::{Client, LogCounters, OPS_BUDGET};
use crate::workload::{Class, Op, OpGen, Workload, BATCH, CHUNKS, CLASSES, CLIENTS, RUN_SECONDS};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Warm = 0,
    Duo = 1,
    Lat = 2,
    Solo = 3,
}

pub const PHASES: [Phase; 4] = [Phase::Warm, Phase::Duo, Phase::Lat, Phase::Solo];

impl Phase {
    #[must_use]
    pub fn name(self) -> &'static str {
        ["warm-up", "duo", "latency", "solo"][self as usize]
    }
}

/// Batches per chunk per client for each phase: the workload's frozen
/// counts scaled by `--seconds / RUN_SECONDS` (and by `share`, which
/// the traced run uses to leave time for its ladder).
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    per_chunk: [u64; 4],
}

impl Plan {
    #[must_use]
    pub fn new(w: &Workload, seconds: u64, share: f64) -> Self {
        let c = w.counts;
        let scale = seconds as f64 / RUN_SECONDS as f64 * share;
        let per_chunk = [c.warm, c.duo, c.lat, c.solo].map(|n| ((f64::from(n) * scale).round() as u64).max(1));
        let plan = Plan { per_chunk };
        // A multi-key op or a snapshot spends several log ops per shard.
        let total: u64 = PHASES.iter().map(|&p| plan.ops(p)).sum();
        assert!(total.saturating_mul(16) < OPS_BUDGET as u64, "planned ops exceed the handle budget");
        plan
    }

    #[must_use]
    pub fn batches(&self, p: Phase) -> u64 {
        CHUNKS as u64 * self.per_chunk[p as usize]
    }

    /// Ops one client executes in phase `p`.
    #[must_use]
    pub fn ops(&self, p: Phase) -> u64 {
        self.batches(p) * BATCH as u64
    }

    /// Ops client `id` executes over the whole run.
    #[must_use]
    pub fn client_ops(&self, id: usize) -> u64 {
        PHASES.iter().filter(|&&p| p != Phase::Solo || id == 0).map(|&p| self.ops(p)).sum()
    }
}

/// What one client measured in one phase.
#[derive(Clone, Debug, Default)]
pub struct PhaseData {
    /// Wall time of each batch's execution (generation excluded).
    pub batch_ns: Vec<u64>,
    /// The program's own counters over the phase.
    pub counters: LogCounters,
}

pub struct ClientData<C> {
    pub client: C,
    pub gen: OpGen,
    /// Indexed by `Phase`; client 1 has no solo entry.
    pub phases: Vec<PhaseData>,
    /// Per-class latencies: the latency phase, plus every snapshot of
    /// every phase.
    pub hists: Vec<Hist>,
    pub failed: u64,
}

/// Aborts the process when a phase overruns its wall-clock ceiling, so
/// a regressed or wedged commit fails the workload instead of hanging
/// the harness.
#[derive(Clone)]
pub struct Watch(Arc<Mutex<WatchState>>);

struct WatchState {
    what: &'static str,
    deadline: Instant,
    end: Instant,
    done: bool,
    /// `VmRSS` in MiB, one sample per tick while `sampling`.
    sampling: bool,
    rss_mib: Vec<f64>,
}

/// The watchdog's period, and the resident-set sampling period.
const TICK: Duration = Duration::from_millis(50);

/// One phase may take this long (phases are sized to ≤ 5 s) …
pub const PHASE_CEILING: Duration = Duration::from_secs(30);
/// … and the whole process this long (the harness allows 180 s).
pub const RUN_CEILING: Duration = Duration::from_secs(150);

impl Watch {
    #[must_use]
    pub fn start() -> (Watch, thread::JoinHandle<()>) {
        let now = Instant::now();
        let state = WatchState {
            what: "start-up",
            deadline: now + PHASE_CEILING,
            end: now + RUN_CEILING,
            done: false,
            sampling: false,
            rss_mib: Vec::new(),
        };
        let watch = Watch(Arc::new(Mutex::new(state)));
        let w = watch.clone();
        let t = thread::spawn(move || loop {
            thread::sleep(TICK);
            let mut s = w.0.lock().expect("watch state is plain data");
            if s.done {
                return;
            }
            if s.sampling {
                s.rss_mib.extend(host::status_mib("VmRSS"));
            }
            let now = Instant::now();
            if now > s.deadline || now > s.end {
                eprintln!(
                    "wfbench: `{}` overran its wall-clock ceiling ({PHASE_CEILING:?} a phase, \
                     {RUN_CEILING:?} a run): workload aborted as failed",
                    s.what
                );
                std::process::exit(3);
            }
        });
        (watch, t)
    }

    /// A new phase begins: restart its ceiling.
    pub fn arm(&self, what: &'static str) {
        let mut s = self.0.lock().expect("watch state is plain data");
        s.what = what;
        s.deadline = Instant::now() + PHASE_CEILING;
    }

    pub fn stop(&self) {
        self.0.lock().expect("watch state is plain data").done = true;
    }

    /// Start or stop sampling the resident set.
    pub fn sample_rss(&self, on: bool) {
        self.0.lock().expect("watch state is plain data").sampling = on;
    }

    /// The resident-set samples so far, in MiB.
    #[must_use]
    pub fn rss_mib(&self) -> Vec<f64> {
        self.0.lock().expect("watch state is plain data").rss_mib.clone()
    }
}

/// Execute `ops`, timing only snapshots (a timer pair is < 0.1 % of
/// one, and `kv_big` needs every sample it can get).
fn run_batch<C: Client>(c: &mut C, ops: &[Op], snap: &mut Hist) -> u64 {
    let mut failed = 0;
    for op in ops {
        if matches!(op, Op::Snapshot) {
            let t = Instant::now();
            failed += c.exec(op);
            snap.record(t.elapsed().as_nanos() as u64);
        } else {
            failed += c.exec(op);
        }
    }
    failed
}

/// Execute `ops`, timing every op: one clock read per op, each op's
/// latency the distance between consecutive reads.
fn run_batch_timed<C: Client>(c: &mut C, ops: &[Op], start: Instant, hists: &mut [Hist]) -> u64 {
    let mut failed = 0;
    let mut prev = start;
    for op in ops {
        failed += c.exec(op);
        let now = Instant::now();
        hists[op.kind().class() as usize].record((now - prev).as_nanos() as u64);
        prev = now;
    }
    failed
}

fn client_thread<C: Client>(
    id: usize,
    mut client: C,
    mut gen: OpGen,
    plan: Plan,
    barrier: &Barrier,
    watch: &Watch,
) -> ClientData<C> {
    let mut buf = Vec::with_capacity(BATCH);
    let mut hists = vec![Hist::default(); CLASSES.len()];
    let mut phases = Vec::new();
    let mut failed = 0;
    for phase in PHASES {
        if phase == Phase::Solo && id != 0 {
            // Leave before the solo phase starts: a registered but
            // idle handle would pin log reclamation under client 0.
            client.retire();
            barrier.wait();
            break;
        }
        barrier.wait();
        if id == 0 {
            watch.arm(phase.name());
        }
        let before = client.counters();
        let mut batch_ns = Vec::with_capacity(plan.batches(phase) as usize);
        for _ in 0..plan.batches(phase) {
            gen.fill(&mut buf, BATCH);
            let t = Instant::now();
            failed += if phase == Phase::Lat {
                run_batch_timed(&mut client, &buf, t, &mut hists)
            } else {
                run_batch(&mut client, &buf, &mut hists[Class::Snap as usize])
            };
            batch_ns.push(t.elapsed().as_nanos() as u64);
        }
        phases.push(PhaseData { batch_ns, counters: client.counters().since(before) });
    }
    ClientData { client, gen, phases, hists, failed }
}

/// Run all four phases over `clients` (already registered — that is
/// set-up) and hand back what each measured.
pub fn run_phases<C: Client>(
    w: &'static Workload,
    seed: u64,
    zipf: &Option<Arc<Zipf>>,
    plan: Plan,
    clients: Vec<C>,
    watch: &Watch,
) -> Vec<ClientData<C>> {
    assert_eq!(clients.len(), CLIENTS);
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let threads: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(id, client)| {
            let gen = OpGen::new(w, seed, id, zipf.clone());
            let (barrier, watch) = (Arc::clone(&barrier), watch.clone());
            thread::spawn(move || client_thread(id, client, gen, plan, &barrier, &watch))
        })
        .collect();
    threads.into_iter().map(|t| t.join().expect("a client thread panicked")).collect()
}
