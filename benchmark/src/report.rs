//! Metric names, units and bounds; the printed report; the result
//! files; and the comparer.

use std::fmt::Write as _;

use crate::json::{self, Json};
use crate::stats::median;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric and the bound by which it may get worse before
/// a change counts as a regression: `rel` as a share of the base value,
/// or `abs` in the metric's unit, whichever allows more.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub rel: f64,
    pub abs: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, rel: f64, abs: f64) -> EndToEnd {
    EndToEnd { name, unit, better, rel, abs }
}

/// The end-to-end metrics every workload reports — `BENCHMARK.json`'s
/// `end_to_end`, in its order. `write_*` is the workload's mutating
/// class: `invoke(FetchAndAdd)`, `put`, or the two-key `multi_put`.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25, 0.05),
    e2e("ops_s_duo", "1/s", Better::Higher, 0.25, 0.0),
    e2e("ops_s_solo", "1/s", Better::Higher, 0.25, 0.0),
    e2e("read_p50_ns", "ns", Better::Lower, 0.25, 0.0),
    e2e("read_p99_ns", "ns", Better::Lower, 0.25, 0.0),
    e2e("write_p50_ns", "ns", Better::Lower, 0.25, 0.0),
    e2e("write_p99_ns", "ns", Better::Lower, 0.25, 0.0),
    e2e("rss_setup_mib", "MiB", Better::Lower, 0.15, 16.0),
];

/// End-to-end metrics only some workloads have (a class their mix
/// lacks cannot be timed, and `failed_share` is 0 when all is well, so
/// neither fits `BENCHMARK.json`'s every-workload, never-zero list).
/// The comparer gates them all the same.
pub const END_TO_END_EXTRA: [EndToEnd; 5] = [
    e2e("multi_p50_ns", "ns", Better::Lower, 0.25, 0.0),
    e2e("multi_p99_ns", "ns", Better::Lower, 0.25, 0.0),
    e2e("snap_p50_us", "us", Better::Lower, 0.25, 0.0),
    e2e("snap_p99_us", "us", Better::Lower, 0.25, 0.0),
    e2e("failed_share", "share", Better::Lower, 0.0, 0.0),
];

/// `BENCHMARK.json`'s `per_layer`, in its order. A rung a workload
/// never crosses (`uni_counter` has no router, spec or store) reads 0
/// in the contract line and is left out of the printed report.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("router.route_ns", "ns"),
    ("spec.apply_put_ns", "ns"),
    ("spec.peek_ns", "ns"),
    ("spec.apply_multi_ns", "ns"),
    ("spec.clone_us", "us"),
    ("spec.clone_ns_per_key", "ns"),
    ("spec.marker_us", "us"),
    ("universal.invoke_ns", "ns"),
    ("universal.invoke_h2_ns", "ns"),
    ("universal.invoke_h4_ns", "ns"),
    ("universal.invoke_shardop_ns", "ns"),
    ("universal.read_ns", "ns"),
    ("universal.read_catchup_ns", "ns"),
    ("universal.checkpoint_us", "us"),
    ("universal.register_retire_ns", "ns"),
    ("universal.register_us", "us"),
    ("universal.decides_per_op", "count"),
    ("universal.cas_fail_per_op", "count"),
    ("universal.replay_per_op", "count"),
    ("universal.max_threading_steps", "count"),
    ("universal.checkpoints", "count"),
    ("universal.live_segments", "count"),
    ("universal.registry_slots", "count"),
    ("store.handle_us", "us"),
    ("store.get_ns", "ns"),
    ("store.put_ns", "ns"),
    ("store.cas_ns", "ns"),
    ("store.fetch_update_ns", "ns"),
    ("store.multi_put2_ns", "ns"),
    ("store.multi_get2_ns", "ns"),
    ("store.snapshot_us", "us"),
    ("store.decides_per_multi", "count"),
    ("store.front_self_ns", "ns"),
    ("tail.read_p999_ns", "ns"),
    ("tail.write_p999_ns", "ns"),
    ("tail.write_max_us", "us"),
    ("bench.scaling_x", "x"),
    ("bench.ops_s_duo_median", "1/s"),
    ("bench.chunk_cv_duo", "share"),
    ("bench.rss_median_mib", "MiB"),
    ("bench.rss_peak_mib", "MiB"),
    ("bench.ladder_vs_solo", "x"),
    ("bench.timer_ns", "ns"),
    ("bench.trace_overhead_pct", "%"),
];

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Measured metrics, in the order they were pushed.
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        debug_assert!(self.get(name).is_none(), "{name} pushed twice");
        self.0.push(Metric { name: name.to_owned(), value, unit });
    }

    pub fn push_some(&mut self, name: &str, value: Option<f64>, unit: &'static str) {
        if let Some(v) = value {
            self.push(name, v, unit);
        }
    }

    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }
}

fn metrics_json<'a>(metrics: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let mut s = String::from("{");
    for (i, (name, value, unit)) in metrics.enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{value}` prints every digit f64 holds; a non-finite value
        // (a metric that could not be computed) is a bug upstream.
        assert!(value.is_finite(), "{name} is {value}");
        write!(s, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}").expect("write to a String");
    }
    s + "}"
}

/// What one workload's process found.
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Human-readable notes printed after the metrics (sample counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Every metric as `workload metric value unit`, then the notes.
    #[must_use]
    pub fn lines(&self) -> String {
        let mut s = String::new();
        for m in self.metrics.iter() {
            writeln!(s, "{} {} {} {}", self.workload, m.name, m.value, m.unit).expect("write to a String");
        }
        for n in &self.notes {
            writeln!(s, "# {} {n}", self.workload).expect("write to a String");
        }
        s
    }

    /// Everything measured, for `out/result-<workload>.json`.
    #[must_use]
    pub fn full_json(&self) -> String {
        format!(
            "{{\"seed\": {}, \"seconds\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.seed,
            self.seconds,
            self.trace,
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics_json(self.metrics.iter().map(|m| (m.name.as_str(), m.value, m.unit)))
        )
    }

    /// The harness's line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`, the metrics exactly `BENCHMARK.json`'s `end_to_end`
    /// (untraced) or `per_layer` (traced).
    #[must_use]
    pub fn contract_json(&self) -> String {
        let get = |name: &str| self.metrics.get(name);
        let metrics = if self.trace {
            metrics_json(PER_LAYER.iter().map(|&(name, unit)| (name, get(name).unwrap_or(0.0), unit)))
        } else {
            metrics_json(END_TO_END.iter().map(|e| {
                // kv_txn's mutating class is `multi`.
                let v = get(e.name).or_else(|| get(&e.name.replace("write_", "multi_")));
                (e.name, v.unwrap_or_else(|| panic!("{} did not measure {}", self.workload, e.name)), e.unit)
            }))
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

// ---------------------------------------------------------------------
// The comparer
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    Regressed,
    Unresolved,
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(v, n=4)` (exclusive).
fn quartiles(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (s.len() + 1) as f64;
        let j = (pos.floor() as usize).clamp(1, s.len() - 1);
        s[j - 1] + (pos - j as f64) * (s[j] - s[j - 1])
    };
    (at(0.25), at(0.75))
}

/// Judge `b` (the change) against `a` (the base), each a set of runs.
/// REGRESSED: `b`'s median is worse than `a`'s by more than the bound.
/// UNRESOLVED: a side has no value, or (with four or more runs a side)
/// the base's own quartile spread exceeds the bound and `b` does not
/// beat `a` in every run.
#[must_use]
pub fn judge(e: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    let worse_by = if e.better == Better::Lower { mb - ma } else { ma - mb };
    let allowed = (e.rel * ma.abs()).max(e.abs);
    if worse_by > allowed {
        return Verdict::Regressed;
    }
    if a.len() >= 4 && b.len() >= 4 {
        let (q1, q3) = quartiles(a);
        let all_better = b.iter().all(|&y| a.iter().all(|&x| if e.better == Better::Lower { y < x } else { y > x }));
        if q3 - q1 > allowed && !all_better {
            return Verdict::Unresolved;
        }
    }
    Verdict::Pass
}

/// `v` to four or more significant digits, whatever its magnitude.
fn digits(v: f64) -> String {
    match v.abs() {
        a if a >= 1000.0 => format!("{v:.0}"),
        a if a >= 1.0 => format!("{v:.3}"),
        _ => format!("{v:.3e}"),
    }
}

/// `workload → metric → value` of one `result.json`.
fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn values(sets: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    sets.iter().filter_map(|s| s.get(workload)?.get("metrics")?.get(metric)?.get("value")?.num()).collect()
}

/// `--compare A B`: each side one `result.json` or several, comma
/// separated. Prints one row per workload × end-to-end metric; returns
/// whether nothing regressed.
///
/// # Errors
/// An unreadable or malformed file.
pub fn compare(a: &str, b: &str) -> Result<bool, String> {
    let side = |arg: &str| arg.split(',').map(load).collect::<Result<Vec<_>, _>>();
    let (sa, sb) = (side(a)?, side(b)?);
    let mut clean = true;
    println!("{:<12} {:<14} {:>12} {:>12}  {:<28} verdict", "workload", "metric", "base", "change", "change/base");
    for (workload, _) in sa[0].fields() {
        for e in END_TO_END.iter().chain(&END_TO_END_EXTRA) {
            let (va, vb) = (values(&sa, workload, e.name), values(&sb, workload, e.name));
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let verdict = judge(e, &va, &vb);
            clean &= verdict != Verdict::Regressed;
            let show = |v: &[f64]| {
                if v.is_empty() {
                    "-".to_owned()
                } else {
                    digits(median(v))
                }
            };
            let base = median(&va);
            let ratio = if va.is_empty() || vb.is_empty() {
                "-".to_owned()
            } else if base == 0.0 {
                format!("{:+} on 0", median(&vb))
            } else {
                format!("{:.3}x of {} {}", median(&vb) / base, digits(base), e.unit)
            };
            let verdict = match verdict {
                Verdict::Pass => "PASS",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "UNRESOLVED",
            };
            println!("{workload:<12} {:<14} {:>12} {:>12}  {ratio:<28} {verdict}", e.name, show(&va), show(&vb));
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().chain(&END_TO_END_EXTRA).find(|e| e.name == name).unwrap()
    }

    #[test]
    fn judge_applies_direction_and_bound() {
        let duo = metric("ops_s_duo");
        assert_eq!(judge(duo, &[1000.0], &[760.0]), Verdict::Pass);
        assert_eq!(judge(duo, &[1000.0], &[740.0]), Verdict::Regressed);
        assert_eq!(judge(duo, &[1000.0], &[2000.0]), Verdict::Pass);
        let p99 = metric("write_p99_ns");
        assert_eq!(judge(p99, &[1000.0], &[1240.0]), Verdict::Pass);
        assert_eq!(judge(p99, &[1000.0], &[1260.0]), Verdict::Regressed);
        assert_eq!(judge(p99, &[1000.0], &[]), Verdict::Unresolved);
        // The absolute floor: 0.04 s more set-up on 0.01 s is inside 0.05 s.
        assert_eq!(judge(metric("setup_s"), &[0.01], &[0.05]), Verdict::Pass);
        assert_eq!(judge(metric("setup_s"), &[1.0], &[1.3]), Verdict::Regressed);
        // … and 10 MiB more on 20 MiB is inside 16 MiB.
        assert_eq!(judge(metric("rss_setup_mib"), &[20.0], &[30.0]), Verdict::Pass);
        assert_eq!(judge(metric("rss_setup_mib"), &[200.0], &[231.0]), Verdict::Regressed);
        // Any increase of failed_share regresses.
        assert_eq!(judge(metric("failed_share"), &[0.0], &[0.0]), Verdict::Pass);
        assert_eq!(judge(metric("failed_share"), &[0.0], &[1e-9]), Verdict::Regressed);
    }

    #[test]
    fn a_base_noisier_than_the_bound_is_unresolved_unless_every_run_wins() {
        let duo = metric("ops_s_duo");
        let noisy = [600.0, 800.0, 1000.0, 1200.0, 1400.0];
        assert_eq!(judge(duo, &noisy, &[990.0, 1000.0, 1010.0, 1000.0]), Verdict::Unresolved);
        assert_eq!(judge(duo, &noisy, &[1500.0, 1600.0, 1700.0, 1800.0]), Verdict::Pass);
        let steady = [1000.0, 1001.0, 999.0, 1000.0];
        assert_eq!(judge(duo, &steady, &[995.0, 1000.0, 1002.0, 998.0]), Verdict::Pass);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
    }

    /// `BENCHMARK.json` and the tables above must name the same
    /// metrics, units, directions and bounds, in the same order.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
        assert_eq!(doc.get("run_seconds").and_then(Json::num), Some(crate::workload::RUN_SECONDS as f64));
        let names: Vec<&str> =
            doc.get("workloads").unwrap().items().iter().map(|w| w.get("name").unwrap().str().unwrap()).collect();
        assert_eq!(names, crate::workload::WORKLOADS.map(|w| w.name));
        let e2e = doc.get("end_to_end").unwrap().items();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, e) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(j.get("name").unwrap().str(), Some(e.name));
            assert_eq!(j.get("unit").unwrap().str(), Some(e.unit));
            let better = if e.better == Better::Lower { "lower" } else { "higher" };
            assert_eq!(j.get("better").unwrap().str(), Some(better), "{}", e.name);
            assert_eq!(j.get("bound").unwrap().num(), Some(e.rel), "{}", e.name);
        }
        let layers = doc.get("per_layer").unwrap().items();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, (name, unit)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(j.get("name").unwrap().str(), Some(*name));
            assert_eq!(j.get("unit").unwrap().str(), Some(*unit), "{name}");
        }
    }

    #[test]
    fn contract_line_has_exactly_the_declared_metrics() {
        let mut metrics = Metrics::default();
        for e in &END_TO_END {
            // A kv_txn-shaped outcome: `multi_*` stands in for `write_*`.
            metrics.push(&e.name.replace("write_", "multi_"), 1.25, e.unit);
        }
        metrics.push("snap_p50_us", 170.0, "us");
        let mut o = Outcome {
            workload: "kv_txn",
            seed: 1,
            seconds: 12,
            trace: false,
            attempted: 10,
            failed: 0,
            metrics,
            notes: vec![],
        };
        let line = json::parse(&o.contract_json()).unwrap();
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let got: Vec<&str> = line.get("metrics").unwrap().fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(got, END_TO_END.map(|e| e.name));
        o.trace = true;
        let line = json::parse(&o.contract_json()).unwrap();
        let got: Vec<&str> = line.get("metrics").unwrap().fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(got, PER_LAYER.map(|(n, _)| n));
        assert!(json::parse(&o.full_json()).is_ok());
    }
}
