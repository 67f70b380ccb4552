//! P6 — benchmark for the universal-object hot path
//! (`waitfree_sync::universal`, impl `batched`: the default
//! configuration) on a contended counter and a FIFO queue at
//! n ∈ {1, 2, 4, 8} threads.
//!
//! Each row records the median wall-clock ns per operation of the
//! workload body (n threads × ops + join). Object construction and
//! registration are *hoisted out of the timed region*
//! (`timing::measure_with_setup`), so ns/op compares the hot paths
//! alone. Rows also carry the worst per-op threading-step count (must
//! stay within the O(n) helping bound on every leg) and the
//! consensus-decide and CAS-failure counters per completed invoke — the
//! step-complexity numbers batch combining exists to shrink. The
//! trajectory's `cell` rows (the seed `ConsensusCell` arena rendering)
//! and `pointer` rows (the deleted one-op-per-decide mode) are history:
//! `bench_trend` only gates rows the latest run has.
//!
//! Maintains `BENCH_universal.json` in the working directory (the repo
//! root when run via `cargo run -p waitfree-bench --bin bench_universal`)
//! — the recorded perf *trajectory* the README quotes and
//! `bench_trend` gates on. The file is merged into, not overwritten:
//! schema 2 is `{"schema": 2, "runs": [...]}` where each run carries a
//! timestamp (pass `--timestamp <tag>` for reproducible records;
//! defaults to wall-clock epoch seconds), the run's configuration
//! (including a `"construction": "hoisted"` marker so trend comparisons
//! never mix pre- and post-hoisting runs), and the full report. A
//! pre-schema-2 file (a bare report object) is wrapped as the first run
//! with timestamp `"pre-merge"`. `finish()` also writes the usual
//! single-report `results/bench_universal.json`; it only repeats the
//! trajectory's latest run, so it is a local scratch copy that git
//! ignores. Environment knobs for the CI smoke job:
//! `BENCH_UNIVERSAL_OPS` (ops per thread, default 2000) and
//! `BENCH_UNIVERSAL_SAMPLES` (median-of samples, default 9).
//!
//! The steady-state rows (`workload == "steady"`) are the checkpointed-
//! truncation before/after: a long fixed op count (default ten million,
//! `BENCH_UNIVERSAL_STEADY_OPS`; `BENCH_UNIVERSAL_STEADY_SAMPLES`
//! medians the checkpointed leg, default 3) on one dynamic object,
//! unbounded log vs checkpointed truncation, with the process RSS
//! *delta* across the timed region recorded in the `rss_mib` column.
//! The unbounded leg retains every decided entry, so its delta grows
//! with total ops; the checkpointed leg must stay flat at the frontier
//! spread. The unbounded leg's ns/op is recorded as `-`: its wall-clock
//! is dominated by page-faulting the whole retained log into existence
//! — the pathology the row's `rss_mib` cell exists to demonstrate — so
//! a ns/op gate on it would gate kernel fault behavior, not this code.
//! Non-steady rows carry `-` in `rss_mib` — one process runs every leg,
//! so only the first allocation surge per sample is attributable, and
//! attributing it per-row would be noise.
//!
//! `allocs_per_op` / `bytes_per_op` are exact counts, not timings: the
//! binary installs [`CountingAlloc`] and every worker thread brackets
//! its own workload body with two per-thread readings, so a row prices
//! exactly the allocator calls its operations made (for churn rows that
//! includes register/retire — membership churn is the workload).

use waitfree_bench::alloc_count::{allocs_during, CountingAlloc};
use waitfree_bench::json::Json;
use waitfree_bench::timing::measure_with_setup;
use waitfree_bench::trajectory::{cli_timestamp, merge_into_file};
use waitfree_bench::Report;
use waitfree_sched::thread;
use waitfree_objects::counter::{Counter, CounterOp};
use waitfree_objects::queue::{FifoQueue, QueueOp};
use waitfree_sync::universal::{UniversalConfig, WfHandle, WfUniversal, SEGMENT_SIZE};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Checkpoint cadence for the steady-state leg: one checkpoint per
/// segment keeps the truncation overhead at a 1/SEGMENT_SIZE factor
/// while still reclaiming every segment behind the frontier.
const STEADY_EVERY: usize = SEGMENT_SIZE;
/// Thread count for the steady-state rows (one contended object).
const STEADY_THREADS: usize = 4;

/// Resident-set size in MiB read from `/proc/self/status` (`VmRSS:` is
/// reported in kB). `None` off Linux or when the field is absent; the
/// report renders that as `-`.
fn rss_mib() -> Option<f64> {
    let kb: f64 = proc_status("VmRSS:")?.split_whitespace().next()?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The value of one `/proc/self/status` field (`field` includes the
/// colon), trimmed.
fn proc_status(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let value = status.lines().find_map(|l| l.strip_prefix(field))?;
    Some(value.trim().to_string())
}

/// CPUs this process may run on (`Cpus_allowed_list` in
/// `/proc/self/status`, e.g. `0-1,4`). `None` off Linux.
fn allowed_cpus() -> Option<usize> {
    proc_status("Cpus_allowed_list:")?
        .split(',')
        .map(|r| {
            let (lo, hi) = r.split_once('-').unwrap_or((r, r));
            Some(hi.parse::<usize>().ok()? - lo.parse::<usize>().ok()? + 1)
        })
        .sum()
}

/// Aggregated stats for one workload run (or several merged runs):
/// worst per-op threading steps, plus the summed hot-path counters and
/// the allocator calls/bytes of the worker threads' workload bodies.
#[derive(Clone, Copy, Default)]
struct WorkStats {
    max_steps: usize,
    decides: usize,
    cas_failures: usize,
    invokes: usize,
    allocs: usize,
    alloc_bytes: usize,
}

impl WorkStats {
    fn of<S: waitfree_model::ObjectSpec>(h: &WfHandle<S>) -> Self {
        let s = h.stats();
        WorkStats {
            max_steps: s.max_threading_steps,
            decides: s.decides,
            cas_failures: s.cas_failures,
            invokes: s.invokes,
            ..WorkStats::default()
        }
    }

    /// Run `body` on the calling thread and add the allocator calls it
    /// made to the stats it returns.
    fn counting_allocs(body: impl FnOnce() -> WorkStats) -> WorkStats {
        let (mut stats, (calls, bytes)) = allocs_during(body);
        stats.allocs += calls as usize;
        stats.alloc_bytes += bytes as usize;
        stats
    }

    fn merge(&mut self, other: WorkStats) {
        self.max_steps = self.max_steps.max(other.max_steps);
        self.decides += other.decides;
        self.cas_failures += other.cas_failures;
        self.invokes += other.invokes;
        self.allocs += other.allocs;
        self.alloc_bytes += other.alloc_bytes;
    }

    /// `"x.xxx"` per-invoke rendering of one hot counter.
    fn per_invoke(&self, count: usize) -> String {
        format!("{:.3}", count as f64 / self.invokes.max(1) as f64)
    }

    /// One report row; an unrecorded `ns` or `rss` renders as `-`.
    fn row(
        &self,
        workload: &str,
        name: &str,
        n: usize,
        per: usize,
        ns: Option<f64>,
        rss: Option<f64>,
    ) -> [String; 11] {
        [
            workload.to_string(),
            name.to_string(),
            n.to_string(),
            per.to_string(),
            ns.map_or_else(|| "-".to_string(), |v| format!("{v:.1}")),
            self.max_steps.to_string(),
            self.per_invoke(self.decides),
            self.per_invoke(self.cas_failures),
            rss.map_or_else(|| "-".to_string(), |r| format!("{r:.1}")),
            self.per_invoke(self.allocs),
            self.per_invoke(self.alloc_bytes),
        ]
    }
}

/// Run `body` on one thread per handle and merge the stats each returns.
fn on_threads<S, F>(handles: Vec<WfHandle<S>>, body: F) -> WorkStats
where
    S: waitfree_model::ObjectSpec + Send + Sync + 'static,
    S::Op: Send + Sync,
    F: Fn(&mut WfHandle<S>) + Copy + Send + 'static,
{
    let joins: Vec<_> = handles
        .into_iter()
        .map(|mut h| {
            thread::spawn(move || {
                WorkStats::counting_allocs(|| {
                    body(&mut h);
                    WorkStats::of(&h)
                })
            })
        })
        .collect();
    let mut agg = WorkStats::default();
    for j in joins {
        agg.merge(j.join().unwrap());
    }
    agg
}

/// A fresh `cfg` object over `initial` with `n` registered handles
/// (built by the caller's untimed setup).
fn handles<S: waitfree_model::ObjectSpec>(
    initial: S,
    n: usize,
    cfg: UniversalConfig,
) -> Vec<WfHandle<S>> {
    let obj = WfUniversal::with_config(initial, cfg);
    (0..n).map(|_| obj.register()).collect()
}

/// ns/op plus merged stats across all samples for one (leg, workload,
/// n) cell: n threads each perform `ops` fetch-and-adds on one shared
/// counter, or `ops` operations as enq/deq pairs on one shared FIFO
/// queue. Construction runs in `measure_with_setup`'s untimed setup;
/// ns/op divides by the operations actually executed (an odd `ops`
/// rounds the queue workload down to `2 * (ops / 2)` per thread).
fn run_one(
    cfg: UniversalConfig,
    workload: &str,
    n: usize,
    ops: usize,
    samples: usize,
) -> (f64, WorkStats) {
    let mut agg = WorkStats::default();
    let (median, executed) = match workload {
        "counter" => (
            measure_with_setup(
                samples,
                || handles(Counter::new(0), n, cfg),
                |hs| {
                    agg.merge(on_threads(hs, move |h| {
                        for _ in 0..ops {
                            let _ = h.invoke(CounterOp::FetchAndAdd(1));
                        }
                    }));
                },
            ),
            n * ops,
        ),
        "queue" => (
            measure_with_setup(
                samples,
                || handles(FifoQueue::new(), n, cfg),
                |hs| {
                    agg.merge(on_threads(hs, move |h| {
                        for i in 0..ops / 2 {
                            let _ = h.invoke(QueueOp::Enq(i as i64));
                            let _ = h.invoke(QueueOp::Deq);
                        }
                    }));
                },
            ),
            n * 2 * (ops / 2),
        ),
        other => unreachable!("unknown workload {other}"),
    };
    (median.as_nanos() as f64 / executed.max(1) as f64, agg)
}

/// Operations per registration in the churn workload: each generation
/// registers, performs this many fetch-and-adds, and retires.
const CHURN_OPS_PER_GEN: usize = 8;

/// n threads each cycle register → operate → retire on one shared
/// universal object until they have executed `ops` operations: the
/// membership hot path (slot claim, announce-cell reuse, retirement
/// reclaim) measured alongside the decide hot path.
fn churn_workload(obj: &WfUniversal<Counter>, n: usize, ops: usize) -> WorkStats {
    let joins: Vec<_> = (0..n)
        .map(|_| {
            let obj = obj.clone();
            thread::spawn(move || {
                WorkStats::counting_allocs(|| {
                    let mut agg = WorkStats::default();
                    for _ in 0..ops / CHURN_OPS_PER_GEN {
                        let mut h = obj.register();
                        for _ in 0..CHURN_OPS_PER_GEN {
                            let _ = h.invoke(CounterOp::FetchAndAdd(1));
                        }
                        agg.merge(WorkStats::of(&h));
                        h.retire();
                    }
                    agg
                })
            })
        })
        .collect();
    let mut agg = WorkStats::default();
    for j in joins {
        agg.merge(j.join().unwrap());
    }
    agg
}

/// ns/op plus merged stats for one churn row. Object construction is
/// hoisted like the contended rows; registration/retirement is
/// deliberately *inside* the timed region — membership churn is the
/// workload.
fn run_churn(cfg: UniversalConfig, n: usize, ops: usize, samples: usize) -> (f64, WorkStats) {
    let mut agg = WorkStats::default();
    let median = measure_with_setup(
        samples,
        || WfUniversal::with_config(Counter::new(0), cfg),
        |obj| agg.merge(churn_workload(&obj, n, ops)),
    );
    let executed = n * (ops / CHURN_OPS_PER_GEN) * CHURN_OPS_PER_GEN;
    (median.as_nanos() as f64 / executed.max(1) as f64, agg)
}

/// n threads hammer one shared counter for `per` ops each —
/// long enough for the checkpointed configuration to cycle through many
/// truncations. Handles retire at the end so the final reclamation pass
/// runs, but the object itself stays alive until after the RSS sample.
fn steady_workload(obj: &WfUniversal<Counter>, n: usize, per: usize) -> WorkStats {
    let joins: Vec<_> = (0..n)
        .map(|_| {
            let obj = obj.clone();
            thread::spawn(move || {
                WorkStats::counting_allocs(|| {
                    let mut h = obj.register();
                    for _ in 0..per {
                        let _ = h.invoke(CounterOp::FetchAndAdd(1));
                    }
                    let stats = WorkStats::of(&h);
                    h.retire();
                    stats
                })
            })
        })
        .collect();
    let mut agg = WorkStats::default();
    for j in joins {
        agg.merge(j.join().unwrap());
    }
    agg
}

/// One steady-state row: median ns/op plus the first sample's RSS delta
/// across the timed region (later samples reuse allocator pages freed
/// by the first, so only the first delta attributes cleanly). The
/// checkpointed leg runs before the unbounded leg in `main` for the
/// same reason: a fresh heap is the only honest baseline.
fn run_steady(
    cfg: UniversalConfig,
    n: usize,
    per: usize,
    samples: usize,
) -> (f64, Option<f64>, WorkStats) {
    let mut agg = WorkStats::default();
    let mut delta = None;
    let median = measure_with_setup(
        samples,
        || WfUniversal::with_config(Counter::new(0), cfg),
        |obj| {
            let before = rss_mib();
            agg.merge(steady_workload(&obj, n, per));
            if delta.is_none() {
                delta = before.zip(rss_mib()).map(|(b, a)| (a - b).max(0.0));
            }
        },
    );
    (median.as_nanos() as f64 / (n * per).max(1) as f64, delta, agg)
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn main() {
    // Nine samples, not five: the recorded medians feed a ±25% trend
    // gate, and on a single-core host the scheduling-noise spread of a
    // 5-sample median is wider than that.
    let ops = env_usize("BENCH_UNIVERSAL_OPS", 2_000);
    let samples = env_usize("BENCH_UNIVERSAL_SAMPLES", 9).max(1);
    // Churn medians are the noisiest figure of all (the register/retire
    // storms are scheduling-sensitive, with an observed 2x spread at 5
    // samples), so that workload takes 3x the samples.
    let churn_samples = env_usize("BENCH_UNIVERSAL_CHURN_SAMPLES", 3 * samples).max(1);
    let steady_ops = env_usize("BENCH_UNIVERSAL_STEADY_OPS", 10_000_000);
    let steady_samples = env_usize("BENCH_UNIVERSAL_STEADY_SAMPLES", 3).max(1);
    let timestamp = cli_timestamp();

    let mut report = Report::new(
        "bench_universal",
        "Universal object: batched decides on the pointer-CAS log",
        &[
            "workload",
            "impl",
            "n",
            "ops/thread",
            "ns/op",
            "max_steps",
            "decides/op",
            "cas_fail/op",
            "rss_mib",
            "allocs_per_op",
            "bytes_per_op",
        ],
    );
    report.note(format!("ops_per_thread={ops} samples={samples} (median of whole-workload runs)"));
    report.note(
        "object construction is hoisted out of the timed region (measure_with_setup); \
         trajectory entries without the \"construction\" config marker predate this \
         and include construction in their figures",
    );
    report.note(
        "decides/op and cas_fail/op are the hot-path counters per completed invoke; \
         batch combining exists to shrink exactly these",
    );
    report.note(
        "allocs_per_op and bytes_per_op count the worker threads' allocator calls across \
         their workload bodies (per-thread counting GlobalAlloc), per completed invoke: \
         one LogEntry box per decide attempt, two allocations per installed segment, \
         plus register/retire on churn rows",
    );

    // The impl name the recorded trajectory has always used for the
    // default configuration.
    let name = "batched";
    for workload in ["counter", "queue"] {
        for n in THREAD_COUNTS {
            let (ns, stats) = run_one(UniversalConfig::default(), workload, n, ops, samples);
            report.row(&stats.row(workload, name, n, ops, Some(ns), None));
            // The helping bound must hold even while racing at full
            // speed; 2n + 8 matches the stress tests' slack.
            if stats.max_steps > 2 * n + 8 {
                report.fail(format!(
                    "{workload} n={n}: {} threading steps exceeds the O(n) bound",
                    stats.max_steps
                ));
            }
        }
    }

    // The churn workload: register → operate → retire per generation.
    // The helping bound here is over the registry high-water, which
    // concurrent claim races can push transiently past n, so the gate
    // uses 4n + 8 slack.
    report.note(format!(
        "churn workload: every {CHURN_OPS_PER_GEN} ops the thread retires its handle and \
         re-registers (slot claim + announce reuse timed in)"
    ));
    for n in THREAD_COUNTS {
        let (ns, stats) = run_churn(UniversalConfig::default(), n, ops, churn_samples);
        report.row(&stats.row("churn", name, n, ops, Some(ns), None));
        if stats.max_steps > 4 * n + 8 {
            report.fail(format!(
                "churn n={n}: {} threading steps exceeds the O(active) bound \
                 (registry high-water ≤ 2n under churn)",
                stats.max_steps
            ));
        }
    }

    // The steady-state leg: checkpointed truncation vs the unbounded
    // log over a long fixed op count, ns/op and RSS delta per row. The
    // checkpointed leg runs first — its RSS reading needs a heap the
    // unbounded leg hasn't already grown (freed pages stay resident and
    // would mask the comparison).
    let steady_per = steady_ops / STEADY_THREADS;
    report.note(format!(
        "steady workload: {STEADY_THREADS} threads x {steady_per} ops on one object \
         ({steady_samples} sample(s)); checkpointed cadence every {STEADY_EVERY} decided ops; \
         rss_mib is the first sample's VmRSS delta across the timed region (checkpointed leg \
         measured first, on the unexpanded heap)"
    ));
    {
        let n = STEADY_THREADS;
        let checkpointed =
            UniversalConfig { checkpoint_every: Some(STEADY_EVERY), ..UniversalConfig::default() };
        let (cp_ns, cp_rss, cp_stats) = run_steady(checkpointed, n, steady_per, steady_samples);
        // One sample for the reference leg: it exists for its RSS
        // figure, and its timing (see the module doc) isn't recorded.
        let (un_ns, un_rss, un_stats) = run_steady(UniversalConfig::default(), n, steady_per, 1);
        let legs = [
            ("checkpointed", Some(cp_ns), cp_rss, &cp_stats),
            ("unbounded", None, un_rss, &un_stats),
        ];
        for (name, ns, rss, stats) in legs {
            report.row(&stats.row("steady", name, n, steady_per, ns, rss));
            // Checkpoint positions are extra helping-scan iterations:
            // the O(n) bound gains a 1/cadence factor, nothing more.
            let base = 2 * n + 8;
            if stats.max_steps > base + base / STEADY_EVERY + 2 {
                report.fail(format!(
                    "steady {name}: {} threading steps exceeds the O(n) bound \
                     (cadence slack included)",
                    stats.max_steps
                ));
            }
        }
        if let (Some(cp), Some(un)) = (cp_rss, un_rss) {
            report.note(format!(
                "steady RSS delta: checkpointed {cp:.1} MiB vs unbounded {un:.1} MiB \
                 ({:.0}x) over {steady_ops} total ops; unbounded wall-clock was \
                 {un_ns:.1} ns/op sampled once (not recorded as a measurement)",
                un / cp.max(0.1)
            ));
        }
    }

    // The recorded perf-trajectory file at the repo root: merge this run
    // into the prior runs (never overwrite the history); the
    // single-report results/ copy finish() writes is not a record.
    let config = Json::Obj(vec![
        ("ops_per_thread".into(), Json::num(ops as u64)),
        ("samples".into(), Json::num(samples as u64)),
        ("churn_samples".into(), Json::num(churn_samples as u64)),
        (
            "thread_counts".into(),
            Json::Arr(THREAD_COUNTS.iter().map(|n| Json::num(*n as u64)).collect()),
        ),
        ("construction".into(), Json::Str("hoisted".into())),
        // The dynamic-membership registry replaced the static announce
        // array (slot indirection on the helping scan, churn workload
        // rows): like the "construction" marker above, this keys a new
        // config group so pre-membership figures never gate post-
        // membership runs.
        ("membership".into(), Json::Str("dynamic".into())),
        // Checkpointed truncation replaced the Arc-per-entry log (Box
        // arena + segment reclamation, steady-state rows with an RSS
        // column): a new config group, so Arc-era figures and the new
        // hot path never gate each other.
        ("reclaim".into(), Json::Str("checkpoint".into())),
        ("steady_ops".into(), Json::num(steady_ops as u64)),
        // Every row with n > 1 prices contention, and threads that share
        // one core never contend (the rows recorded before this marker
        // are a single-core host's: 1.000 decides/op at every n). A
        // host with a different core count measures a different thing,
        // so the count keys a config group; 0 = unknown.
        ("cores".into(), Json::num(allowed_cpus().unwrap_or(0) as u64)),
    ]);
    merge_into_file("BENCH_universal.json", &report.to_json(), &timestamp, config);
    report.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_merge_maxes_steps_and_sums_counters() {
        let mut a = WorkStats { max_steps: 3, ..WorkStats::default() };
        assert_eq!(a.per_invoke(a.decides), "0.000", "no invokes yet: no division by zero");
        a.merge(WorkStats { max_steps: 7, decides: 2, cas_failures: 1, invokes: 4, allocs: 5, alloc_bytes: 80 });
        a.merge(WorkStats { max_steps: 5, decides: 4, cas_failures: 0, invokes: 6, ..WorkStats::default() });
        assert_eq!(a.max_steps, 7);
        assert_eq!((a.decides, a.cas_failures, a.invokes), (6, 1, 10));
        assert_eq!(a.per_invoke(a.decides), "0.600");
        assert_eq!(a.per_invoke(a.cas_failures), "0.100");
        assert_eq!((a.per_invoke(a.allocs), a.per_invoke(a.alloc_bytes)), ("0.500".into(), "8.000".into()));
    }
}
