//! `wfbench` — five closed-loop workloads over the universal log and
//! the sharded store, and an outside-in layer ladder. One process runs
//! one workload (so `VmHWM` and the allocator start clean); `run.sh`
//! runs them all. See `README.md`.

mod hist;
mod host;
mod json;
mod oracle;
mod report;
mod rng;
mod run;
mod stats;
mod sut;
mod trace;
mod workload;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use hist::Hist;
use oracle::Expect;
use report::{Metrics, Outcome};
use rng::Zipf;
use run::{ClientData, Phase, Plan, Watch};
use sut::{Client, CounterSys, Direct, Gauges, KvSys, LogCounters, System};
use trace::{LowerRungs, Tracer, TRACE_BATCH};
use workload::{Class, Kind, Sut, Workload, CLASSES, CLIENTS, KINDS, RUN_SECONDS, TRACER, WORKLOADS};

const USAGE: &str = "usage: wfbench --workload NAME [--seed N] [--seconds N] [--trace [0|1]] [--smoke] [--out DIR]
       wfbench --list
       wfbench --compare BASE.json[,BASE2.json…] CHANGE.json[,…]";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn fail(msg: &str) -> ! {
    eprintln!("wfbench: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        workload: &WORKLOADS[0],
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut named = false;
    let mut i = 0;
    let value = |i: &mut usize| -> &str {
        *i += 1;
        argv.get(*i).map_or_else(|| fail(&format!("{} needs a value", argv[*i - 1])), String::as_str)
    };
    let number = |s: &str| s.parse::<u64>().unwrap_or_else(|_| fail(&format!("`{s}` is not a whole number")));
    while i < argv.len() {
        match argv[i].as_str() {
            "--list" => {
                WORKLOADS.iter().for_each(|w| println!("{}", w.name));
                std::process::exit(0);
            }
            "--compare" => {
                let (base, change) = (value(&mut i).to_owned(), value(&mut i).to_owned());
                match report::compare(&base, &change) {
                    Ok(clean) => std::process::exit(i32::from(!clean)),
                    Err(e) => fail(&e),
                }
            }
            "--workload" => {
                let name = value(&mut i);
                a.workload = workload::by_name(name).unwrap_or_else(|| fail(&format!("no workload `{name}`")));
                named = true;
            }
            "--seed" => a.seed = number(value(&mut i)),
            "--seconds" => a.seconds = number(value(&mut i)),
            "--out" => a.out = PathBuf::from(value(&mut i)),
            "--smoke" => a.smoke = true,
            "--trace" => {
                // The harness passes `--trace 0|1`; by hand, bare `--trace` is on.
                a.trace = match argv.get(i + 1).map(String::as_str) {
                    Some(v @ ("0" | "1")) => {
                        i += 1;
                        v == "1"
                    }
                    _ => true,
                };
            }
            other => fail(&format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if !named {
        fail("no --workload given");
    }
    if !(1..=60).contains(&a.seconds) {
        fail("--seconds must be 1..=60");
    }
    if a.smoke {
        a.seconds = 1;
    }
    a
}

/// Build, preload and register the clients — set-up — several times,
/// keeping the last instance: one set-up is a single sample of a time
/// that a later PR is gated on, so report the median.
fn set_up<S: System>(build: &impl Fn() -> S, reps: usize, watch: &Watch) -> (S, Vec<S::C>, Vec<f64>) {
    let mut times = Vec::new();
    loop {
        watch.arm("set-up");
        let t = Instant::now();
        let sys = build();
        let clients: Vec<S::C> = (0..CLIENTS).map(|id| sys.client(id)).collect();
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= reps {
            return (sys, clients, times);
        }
        clients.into_iter().for_each(|mut c| c.retire());
    }
}

/// What the four phases measured, and the two rates everything else
/// is read against.
struct Measured<'a, C> {
    plan: Plan,
    data: &'a [ClientData<C>],
    /// Per-class latencies over both clients.
    hists: Vec<Hist>,
    ops_s_duo: f64,
    ops_s_solo: f64,
}

impl<'a, C> Measured<'a, C> {
    fn new(plan: Plan, data: &'a [ClientData<C>]) -> Self {
        let hists = CLASSES
            .iter()
            .map(|&class| {
                let mut h = Hist::default();
                data.iter().for_each(|d| h.merge(&d.hists[class as usize]));
                h
            })
            .collect();
        let mut me = Measured { plan, data, hists, ops_s_duo: 0.0, ops_s_solo: 0.0 };
        me.ops_s_duo = me.duo(stats::rate);
        me.ops_s_solo = stats::rate(me.batches(0, Phase::Solo), plan.ops(Phase::Solo));
        me
    }

    fn batches(&self, client: usize, p: Phase) -> &[u64] {
        &self.data[client].phases[p as usize].batch_ns
    }

    /// A duo-phase rate estimate, summed over the clients.
    fn duo(&self, estimate: fn(&[u64], u64) -> f64) -> f64 {
        (0..CLIENTS).map(|c| estimate(self.batches(c, Phase::Duo), self.plan.ops(Phase::Duo))).sum()
    }

    fn hist(&self, class: Class) -> &Hist {
        &self.hists[class as usize]
    }

    /// The class the workload's `write_*` metrics time: `multi` where
    /// the mix has no single-key write.
    fn mutating(&self) -> Class {
        if self.hist(Class::Write).count() > 0 {
            Class::Write
        } else {
            Class::Multi
        }
    }

    fn end_to_end(&self, m: &mut Metrics, notes: &mut Vec<String>) {
        m.push("ops_s_duo", self.ops_s_duo, "1/s");
        m.push("ops_s_solo", self.ops_s_solo, "1/s");
        for class in CLASSES {
            let h = self.hist(class);
            if h.count() == 0 {
                continue;
            }
            let (unit, per) = if class == Class::Snap { ("us", 1e3) } else { ("ns", 1.0) };
            for (p, q) in [("p50", 0.5), ("p99", 0.99)] {
                let name = format!("{}_{p}_{unit}", class.name());
                m.push_some(&name, h.quantile(q).map(|v| v / per), unit);
            }
            notes.push(format!("{}: {} samples", class.name(), h.count()));
        }
        for p in run::PHASES {
            let secs: Vec<String> = self
                .data
                .iter()
                .filter_map(|d| d.phases.get(p as usize))
                .map(|ph| format!("{:.2} s", ph.batch_ns.iter().sum::<u64>() as f64 / 1e9))
                .collect();
            let ops = self.plan.ops(p);
            notes.push(format!("phase {}: {ops} ops a client, executing for {}", p.name(), secs.join(" and ")));
        }
    }

    /// The per-layer metrics that need no tracing: the program's own
    /// counters over the duo phase, the tails, the run's shape.
    fn free_layers(&self, m: &mut Metrics, gauges: Gauges) {
        m.push_some("tail.read_p999_ns", self.hist(Class::Read).quantile(0.999), "ns");
        m.push_some("tail.write_p999_ns", self.hist(self.mutating()).quantile(0.999), "ns");
        m.push("tail.write_max_us", self.hist(self.mutating()).max() as f64 / 1e3, "us");
        let log = self
            .data
            .iter()
            .map(|d| d.phases[Phase::Duo as usize].counters)
            .fold(LogCounters::default(), LogCounters::plus);
        let per_invoke = |n: u64| n as f64 / log.invokes.max(1) as f64;
        m.push("universal.decides_per_op", per_invoke(log.decides), "count");
        m.push("universal.cas_fail_per_op", per_invoke(log.cas_failures), "count");
        m.push("universal.replay_per_op", per_invoke(log.replayed), "count");
        m.push("universal.max_threading_steps", log.max_threading_steps as f64, "count");
        m.push("universal.checkpoints", gauges.checkpoints as f64, "count");
        m.push("universal.live_segments", gauges.live_segments as f64, "count");
        m.push("universal.registry_slots", gauges.registry_slots as f64, "count");
        m.push("bench.scaling_x", self.ops_s_duo / self.ops_s_solo, "x");
        m.push("bench.ops_s_duo_median", self.duo(stats::median_chunk_rate), "1/s");
        m.push("bench.chunk_cv_duo", self.duo(|b, _| stats::chunk_cv(b)) / CLIENTS as f64, "share");
    }
}

/// The traced run's metrics, from the spans of `t`; `ops_s_solo` is
/// what the ladder has to add up to.
fn traced_metrics(m: &mut Metrics, t: &Tracer, w: &Workload, ops_s_solo: f64, shards: usize) {
    let ns = |layer: &str| t.per_op_ns(layer);
    let us = |layer: &str| t.per_op_ns(layer).map(|v| v / 1e3);
    for (name, layer) in [
        ("router.route_ns", "router.route"),
        ("spec.apply_put_ns", "spec.apply_put"),
        ("spec.peek_ns", "spec.peek"),
        ("spec.apply_multi_ns", "spec.apply_multi"),
        ("universal.invoke_ns", "universal.invoke_h1"),
        ("universal.invoke_h2_ns", "universal.invoke_h2"),
        ("universal.invoke_h4_ns", "universal.invoke_h4"),
        ("universal.invoke_shardop_ns", "universal.invoke_shardop"),
        ("universal.read_ns", "universal.read"),
        ("universal.register_retire_ns", "universal.register_retire"),
        ("store.get_ns", "store.get"),
        ("store.put_ns", "store.put"),
        ("store.cas_ns", "store.cas"),
        ("store.fetch_update_ns", "store.fetch_update"),
        ("store.multi_put2_ns", "store.multi_put2"),
        ("store.multi_get2_ns", "store.multi_get2"),
    ] {
        m.push_some(name, ns(layer), "ns");
    }
    for (name, layer) in [
        ("spec.clone_us", "spec.clone"),
        ("universal.register_us", "universal.register"),
        ("store.handle_us", "store.handle"),
        ("store.snapshot_us", "store.snapshot"),
    ] {
        m.push_some(name, us(layer), "us");
    }
    // One image is one shard's; one capture is one shard's marker.
    let per_key = shards as f64 / w.keys() as f64;
    m.push_some("spec.clone_ns_per_key", ns("spec.clone").map(|v| v * per_key), "ns");
    m.push_some("spec.marker_us", us("spec.marker").map(|v| v / shards as f64), "us");
    m.push_some("store.decides_per_multi", t.decides_per_multi(), "count");
    if let (Some(put), Some(log), Some(route)) = (ns("store.put"), ns("universal.invoke_shardop"), ns("router.route")) {
        m.push("store.front_self_ns", put - log - route, "ns");
    }
    // Mix-weighted cost of one op at the outermost rung, from the
    // batch medians and from the span totals.
    let mix_cost = |cost: &dyn Fn(&str) -> Option<f64>| -> f64 {
        let kinds = KINDS.iter().filter(|&&k| w.share(k) > 0.0);
        kinds.map(|&k| w.share(k) * cost(k.outer_layer()).unwrap_or(f64::NAN)).sum()
    };
    let solo_ns = 1e9 / ops_s_solo;
    m.push("bench.ladder_vs_solo", mix_cost(&ns) / solo_ns, "x");
    let mean = |layer: &str| Some(t.total(layer)).filter(|x| x.1 > 0).map(|(ns, n)| ns as f64 / n as f64);
    m.push("bench.trace_overhead_pct", (mix_cost(&mean) / solo_ns - 1.0) * 100.0, "%");
    m.push("bench.timer_ns", trace::timer_ns(), "ns");
}

fn run_workload<S: System>(a: &Args, build: impl Fn() -> S) -> Outcome
where
    S::D: LowerRungs,
{
    let w = a.workload;
    let epoch = Instant::now();
    let (watch, watchdog) = Watch::start();
    let zipf = w.zipf.then(|| Arc::new(Zipf::new(w.keys(), 0.99)));
    let mut m = Metrics::default();
    let mut notes = Vec::new();

    let (sys, clients, setups) = set_up(&build, if a.smoke { 1 } else { w.setups }, &watch);
    m.push("setup_s", stats::median(&setups), "s");
    notes.push(format!("setup_s: median of {} set-ups", setups.len()));
    // Memory is gated where it is deterministic: after the
    // single-threaded set-up. Under two clients the resident set is a
    // multiple of the image size that depends on how far one client's
    // replay lags the other's (61 or 118 MiB on kv_txn, run to run),
    // and glibc keeps the peak; that is reported, ungated, below.
    m.push_some("rss_setup_mib", host::status_mib("VmRSS"), "MiB");

    // The traced run spends 0.4 of its time in the phases and the rest
    // on the ladder.
    let plan = Plan::new(w, a.seconds, if a.trace { 0.4 } else { 1.0 });
    watch.sample_rss(true);
    let mut data = run::run_phases(w, a.seed, &zipf, plan, clients, &watch);
    watch.sample_rss(false);

    watch.arm("end-of-run check");
    let expect = Expect::regenerate(w, a.seed, &zipf, [plan.client_ops(0), plan.client_ops(1)]);
    let (checks, bad) = sys.verify(&mut data[0].client, &expect);
    let attempted = plan.client_ops(0) + plan.client_ops(1) + checks;
    let failed = data.iter().map(|d| d.failed).sum::<u64>() + bad;

    let measured = Measured::new(plan, &data);
    measured.end_to_end(&mut m, &mut notes);
    m.push("failed_share", failed as f64 / attempted as f64, "share");
    measured.free_layers(&mut m, sys.gauges());
    let ops_s_solo = measured.ops_s_solo;
    let rss = watch.rss_mib();
    m.push("bench.rss_median_mib", stats::median(&rss), "MiB");
    m.push_some("bench.rss_peak_mib", host::status_mib("VmHWM"), "MiB");
    notes.push(format!("bench.rss_median_mib: {} samples, one every 50 ms of the four phases", rss.len()));

    if a.trace {
        watch.arm("ladder set-up");
        let mut t = Tracer::new(w.name, epoch);
        let mut d = sys.direct();
        let mut gen = data[0].gen.clone().tagged(TRACER);
        watch.arm("ladder");
        let batches = plan.ops(Phase::Solo) / TRACE_BATCH as u64;
        trace::ladder(&mut t, w, &mut data[0].client, &mut gen, &mut d, batches);
        watch.arm("probes");
        let kv = matches!(w.sut, Sut::Kv(_));
        let (wr, rd) = if kv { (Kind::Put, Kind::Get) } else { (Kind::Add, Kind::CtrRead) };
        let writes: Vec<_> = (0..TRACE_BATCH).map(|_| gen.op_of(wr)).collect();
        let reads: Vec<_> = (0..TRACE_BATCH).map(|_| gen.op_of(rd)).collect();
        trace::log_probes(&mut t, &mut d, &writes, &reads, &mut m);
        d.image_probes(&mut t);
        if kv {
            trace::handle_probes(&mut t, &sys);
        }
        traced_metrics(&mut m, &t, w, ops_s_solo, d.logs());
        let path = a.out.join(format!("trace-{}.jsonl", w.name));
        t.write_jsonl(&path).unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
    }

    watch.stop();
    watchdog.join().expect("the watchdog does not panic");
    Outcome { workload: w.name, seed: a.seed, seconds: a.seconds, trace: a.trace, attempted, failed, metrics: m, notes }
}

fn main() {
    let a = parse_args();
    match host::allowed_cpus() {
        Some(n) if n >= CLIENTS => {}
        found => fail(&format!(
            "{CLIENTS} client threads need {CLIENTS} cores; this process may run on {found:?} \
             (two clients time-sliced on one core measure the scheduler, not the program)"
        )),
    }
    std::fs::create_dir_all(&a.out).unwrap_or_else(|e| fail(&format!("{}: {e}", a.out.display())));
    let outcome = match a.workload.sut {
        Sut::Counter { checkpoint_every } => run_workload(&a, || CounterSys::build(checkpoint_every)),
        Sut::Kv(shape) => run_workload(&a, || KvSys::build(shape)),
    };
    let path = a.out.join(format!("result-{}.json", outcome.workload));
    std::fs::write(&path, outcome.full_json() + "\n").unwrap_or_else(|e| fail(&format!("{}: {e}", path.display())));
    print!("{}", outcome.lines());
    println!("{}", outcome.contract_json());
    // A workload with any failed op exits non-zero, after its metrics.
    std::process::exit(i32::from(outcome.failed != 0));
}
