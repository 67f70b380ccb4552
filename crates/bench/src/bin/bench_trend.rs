//! Regression gate over the recorded benchmark trajectory: compare the
//! latest `BENCH_universal.json` run against the *median* prior run
//! with the same configuration and fail (exit 1) if any row's ns/op
//! regressed by more than the threshold (default 25%, override with
//! `BENCH_TREND_THRESHOLD_PCT` or `--threshold-pct <n>`). The median —
//! not the minimum — is the bar: on a single-core CI runner the
//! recorded medians themselves wobble (the churn rows by 2x between
//! identical builds), and gating against the best run ever seen turns
//! one lucky schedule into a permanently unreachable target. A genuine
//! regression still lifts the latest run above the *typical* prior.
//! Churn rows use their own wider bar ([`CHURN_THRESHOLD_PCT`]) — see
//! that constant for why their medians cannot carry a tight gate.
//!
//! Rows are keyed by (workload, impl, n) and the `ns/op` column is
//! located by name, so column additions don't break old trajectories.
//! Rows carrying a parseable `rss_mib` cell (the steady-state legs) are
//! gated the same way, with one extra guard: an RSS regression only
//! fires when the absolute growth also exceeds [`RSS_SLACK_MIB`], so a
//! 3 MiB reading wobbling to 4 MiB doesn't fail the build while a
//! truncation bug that re-grows the log by hundreds of MiB does.
//! Runs whose `config` object renders differently (different ops per
//! thread, sample count, or construction-hoisting marker) are never
//! compared against each other — a CI smoke run at 64 ops can't
//! invalidate a full 2000-op record, and pre-hoisting figures (which
//! billed object construction to ns/op) can't masquerade as
//! regressions.
//!
//! While a configuration group holds fewer than three runs the gate is
//! a no-op: it prints a warning and exits 0, because a single prior
//! sample is as likely to be the outlier as the new one. A *missing or
//! unparseable* trajectory file is a hard failure (exit 2, message
//! naming the file): the history is committed, so not finding it means
//! the gate is misconfigured, not that there is nothing to gate. Usage:
//!
//! ```text
//! cargo run -p waitfree-bench --bin bench_trend [--] [path] [--threshold-pct <n>]
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

use waitfree_bench::json::Json;

/// Minimum same-config runs (including the latest) before the gate arms.
const MIN_RUNS: usize = 3;
/// Default allowed regression, percent.
const DEFAULT_THRESHOLD_PCT: f64 = 25.0;
/// Absolute MiB an RSS reading must grow by — on top of the percentage
/// threshold — before it counts as a regression.
const RSS_SLACK_MIB: f64 = 8.0;
/// Threshold for the churn rows, percent. Churn medians are
/// *structurally* bimodal on a single-core runner: the registry
/// high-water mark is set by the first few claim races and then prices
/// every helping scan for the rest of the run, so whole-run medians
/// swing ~2x between identical builds (observed even at 27 samples).
/// The per-run step-count bound inside `bench_universal` is the
/// structural guard for this workload; the trend gate keeps only an
/// order-of-magnitude backstop.
const CHURN_THRESHOLD_PCT: f64 = 150.0;

/// The identity of one report row: `(workload, impl, n)`.
type RowKey = (String, String, String);

/// One row-level comparison: latest vs the median prior value.
#[derive(Debug, Clone, PartialEq)]
struct Check {
    key: RowKey,
    latest: f64,
    prior: f64,
}

impl Check {
    fn ratio(&self) -> f64 {
        if self.prior > 0.0 { self.latest / self.prior } else { 1.0 }
    }
}

/// Median of a non-empty sample set (mean of the middle two when even).
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 }
}

/// The gate's verdict for one trajectory document.
#[derive(Debug, PartialEq)]
enum Trend {
    /// Fewer than [`MIN_RUNS`] runs share the latest run's config.
    TooFewRuns { have: usize },
    /// Every comparable row, with the ones past the threshold split out.
    Compared {
        checks: Vec<Check>,
        regressions: Vec<Check>,
        rss_checks: Vec<Check>,
        rss_regressions: Vec<Check>,
    },
}

/// Extract `(key -> value)` from the named value column of one run's
/// report. Rows without a parseable cell are skipped (a "-" placeholder
/// is not a measurement). `Ok(None)` when the column itself is absent —
/// trajectories recorded before a column existed still parse; only the
/// identity columns (workload/impl/n) and `ns/op` are mandatory, which
/// [`evaluate`] enforces at its call sites.
fn row_values(
    run: &Json,
    value_col: &str,
) -> Result<Option<HashMap<RowKey, f64>>, String> {
    let report = run.get("report").ok_or("run without a report")?;
    let columns: Vec<&str> = report
        .get("columns")
        .and_then(Json::as_array)
        .ok_or("report without columns")?
        .iter()
        .map(|c| c.as_str().unwrap_or(""))
        .collect();
    let idx = |name: &str| {
        columns
            .iter()
            .position(|c| *c == name)
            .ok_or_else(|| format!("report has no {name:?} column"))
    };
    let (wi, ii, ni) = (idx("workload")?, idx("impl")?, idx("n")?);
    let Ok(vi) = idx(value_col) else { return Ok(None) };
    let mut out = HashMap::new();
    for row in report.get("rows").and_then(Json::as_array).unwrap_or(&[]) {
        let cells = row.as_array().ok_or("row is not an array")?;
        let cell = |i: usize| cells.get(i).and_then(Json::as_str).unwrap_or("").to_string();
        if let Ok(v) = cell(vi).parse::<f64>() {
            out.insert((cell(wi), cell(ii), cell(ni)), v);
        }
    }
    Ok(Some(out))
}

/// `(key -> ns/op)` for every row; the ns/op column is mandatory.
fn row_medians(run: &Json) -> Result<HashMap<RowKey, f64>, String> {
    row_values(run, "ns/op")?.ok_or_else(|| "report has no \"ns/op\" column".to_string())
}

/// `(key -> rss_mib)` for the rows that record one; empty for runs
/// predating the column.
fn row_rss(run: &Json) -> Result<HashMap<RowKey, f64>, String> {
    Ok(row_values(run, "rss_mib")?.unwrap_or_default())
}

/// The stable identity of a run's configuration: its rendered JSON.
fn config_key(run: &Json) -> String {
    run.get("config").cloned().unwrap_or(Json::Obj(Vec::new())).pretty()
}

/// Gate the latest run in `doc` against the median prior same-config run.
fn evaluate(doc: &Json, threshold_pct: f64) -> Result<Trend, String> {
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("not a schema-2 trajectory (no \"runs\" array)")?;
    let latest = runs.last().ok_or("trajectory has no runs")?;
    let cfg = config_key(latest);
    let group: Vec<&Json> = runs.iter().filter(|r| config_key(r) == cfg).collect();
    if group.len() < MIN_RUNS {
        return Ok(Trend::TooFewRuns { have: group.len() });
    }

    // Every prior value per row key, across every same-config run
    // except the latest (the last group member *is* the latest run).
    let mut priors: HashMap<RowKey, Vec<f64>> = HashMap::new();
    let mut priors_rss: HashMap<RowKey, Vec<f64>> = HashMap::new();
    for run in &group[..group.len() - 1] {
        for (key, v) in row_medians(run)? {
            priors.entry(key).or_default().push(v);
        }
        for (key, v) in row_rss(run)? {
            priors_rss.entry(key).or_default().push(v);
        }
    }

    // Rows with no prior same-config measurement (new impl, new
    // workload) have nothing to regress against.
    let against = |latest: HashMap<RowKey, f64>,
                   priors: &HashMap<RowKey, Vec<f64>>| {
        let mut checks: Vec<Check> = latest
            .into_iter()
            .filter_map(|(key, latest)| {
                priors
                    .get(&key)
                    .map(|p| Check { key, latest, prior: median(p.clone()) })
            })
            .collect();
        checks.sort_by(|a, b| a.key.cmp(&b.key));
        checks
    };
    let checks = against(row_medians(latest)?, &priors);
    let rss_checks = against(row_rss(latest)?, &priors_rss);
    let limit = 1.0 + threshold_pct / 100.0;
    // Churn rows gate against their own (wider) threshold; a user-set
    // threshold above it still wins.
    let limit_for = |c: &Check| {
        if c.key.0 == "churn" {
            1.0 + threshold_pct.max(CHURN_THRESHOLD_PCT) / 100.0
        } else {
            limit
        }
    };
    let regressions: Vec<Check> =
        checks.iter().filter(|c| c.ratio() > limit_for(c)).cloned().collect();
    let rss_regressions: Vec<Check> = rss_checks
        .iter()
        .filter(|c| c.ratio() > limit && c.latest - c.prior > RSS_SLACK_MIB)
        .cloned()
        .collect();
    Ok(Trend::Compared { checks, regressions, rss_checks, rss_regressions })
}

fn threshold_pct() -> f64 {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--threshold-pct" {
            if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                return v;
            }
        } else if let Some(v) = a.strip_prefix("--threshold-pct=").and_then(|v| v.parse().ok()) {
            return v;
        }
    }
    std::env::var("BENCH_TREND_THRESHOLD_PCT")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_THRESHOLD_PCT)
}

fn trajectory_path() -> String {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--threshold-pct" {
            let _ = args.next();
        } else if !a.starts_with("--") {
            return a;
        }
    }
    "BENCH_universal.json".to_string()
}

fn main() -> ExitCode {
    let path = trajectory_path();
    let pct = threshold_pct();

    let src = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            // The trajectory is committed at the repo root; a missing
            // file means the gate is running somewhere it can't see the
            // history, and silently passing would disable the gate.
            eprintln!(
                "bench_trend: cannot read trajectory {path}: {e} \
                 (run from the repo root, or pass the trajectory path)"
            );
            return ExitCode::from(2);
        }
    };
    let doc = match Json::parse(&src) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bench_trend: {path} is not valid JSON: {e}");
            return ExitCode::from(2);
        }
    };
    match evaluate(&doc, pct) {
        Err(e) => {
            eprintln!("bench_trend: {path}: {e}");
            ExitCode::from(2)
        }
        Ok(Trend::TooFewRuns { have }) => {
            println!(
                "bench_trend: WARNING: only {have} run(s) share the latest config \
                 (need {MIN_RUNS}); not gating"
            );
            ExitCode::SUCCESS
        }
        Ok(Trend::Compared { checks, regressions, rss_checks, rss_regressions }) => {
            println!(
                "bench_trend: latest vs median prior same-config run (threshold +{pct:.0}%)"
            );
            for c in &checks {
                let (w, i, n) = &c.key;
                println!(
                    "  {w}/{i}/n={n}: {:.1} ns/op vs median prior {:.1} ({:+.1}%)",
                    c.latest,
                    c.prior,
                    (c.ratio() - 1.0) * 100.0
                );
            }
            for c in &rss_checks {
                let (w, i, n) = &c.key;
                println!(
                    "  {w}/{i}/n={n}: {:.1} MiB rss vs median prior {:.1} ({:+.1}%)",
                    c.latest,
                    c.prior,
                    (c.ratio() - 1.0) * 100.0
                );
            }
            if checks.is_empty() && rss_checks.is_empty() {
                println!("  (no comparable rows)");
            }
            for c in &regressions {
                let (w, i, n) = &c.key;
                eprintln!(
                    "bench_trend: REGRESSION {w}/{i}/n={n}: {:.1} ns/op is {:.1}% over \
                     the median recorded {:.1}",
                    c.latest,
                    (c.ratio() - 1.0) * 100.0,
                    c.prior
                );
            }
            for c in &rss_regressions {
                let (w, i, n) = &c.key;
                eprintln!(
                    "bench_trend: RSS REGRESSION {w}/{i}/n={n}: {:.1} MiB is {:.1}% and \
                     more than {RSS_SLACK_MIB:.0} MiB over the median recorded {:.1}",
                    c.latest,
                    (c.ratio() - 1.0) * 100.0,
                    c.prior
                );
            }
            if regressions.is_empty() && rss_regressions.is_empty() {
                println!("bench_trend: ok");
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A schema-2 trajectory with one run per `(config_tag, ns)` pair;
    /// each run holds a single `workload`/pointer/n=4 row at `ns` ns/op.
    fn doc_for(workload: &str, runs: &[(&str, f64)]) -> Json {
        let runs: Vec<Json> = runs
            .iter()
            .map(|(tag, ns)| {
                Json::Obj(vec![
                    ("timestamp".into(), Json::Str("t".into())),
                    (
                        "config".into(),
                        Json::Obj(vec![("ops".into(), Json::Str((*tag).into()))]),
                    ),
                    (
                        "report".into(),
                        Json::Obj(vec![
                            (
                                "columns".into(),
                                Json::Arr(
                                    // ns/op deliberately not at a fixed
                                    // index: located by name.
                                    ["workload", "impl", "n", "extra", "ns/op"]
                                        .iter()
                                        .map(|c| Json::Str((*c).into()))
                                        .collect(),
                                ),
                            ),
                            (
                                "rows".into(),
                                Json::Arr(vec![Json::Arr(
                                    [workload, "pointer", "4", "x", &format!("{ns}")]
                                        .iter()
                                        .map(|c| Json::Str((*c).into()))
                                        .collect(),
                                )]),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::num(2)),
            ("runs".into(), Json::Arr(runs)),
        ])
    }

    fn doc(runs: &[(&str, f64)]) -> Json {
        doc_for("counter", runs)
    }

    fn key() -> (String, String, String) {
        ("counter".into(), "pointer".into(), "4".into())
    }

    #[test]
    fn churn_rows_use_the_wide_bar() {
        // +80% on a churn row: inside the structural-noise bar.
        let d = doc_for("churn", &[("a", 1000.0), ("a", 1000.0), ("a", 1800.0)]);
        match evaluate(&d, 25.0).unwrap() {
            Trend::Compared { checks, regressions, .. } => {
                assert_eq!(checks.len(), 1);
                assert!(regressions.is_empty(), "{regressions:?}");
            }
            other => panic!("expected a comparison, got {other:?}"),
        }
        // An order-of-magnitude blowup still fails even there.
        let d = doc_for("churn", &[("a", 1000.0), ("a", 1000.0), ("a", 2600.0)]);
        match evaluate(&d, 25.0).unwrap() {
            Trend::Compared { regressions, .. } => assert_eq!(regressions.len(), 1),
            other => panic!("expected a comparison, got {other:?}"),
        }
        // The same +80% on a hot-path row fails at the tight bar.
        let d = doc_for("counter", &[("a", 1000.0), ("a", 1000.0), ("a", 1800.0)]);
        match evaluate(&d, 25.0).unwrap() {
            Trend::Compared { regressions, .. } => assert_eq!(regressions.len(), 1),
            other => panic!("expected a comparison, got {other:?}"),
        }
    }

    #[test]
    fn under_three_runs_is_a_warning_not_a_gate() {
        for n in 1..MIN_RUNS {
            let runs: Vec<(&str, f64)> = (0..n).map(|_| ("a", 100.0)).collect();
            assert_eq!(
                evaluate(&doc(&runs), 25.0).unwrap(),
                Trend::TooFewRuns { have: n },
            );
        }
    }

    #[test]
    fn regression_past_threshold_is_flagged() {
        let d = doc(&[("a", 100.0), ("a", 110.0), ("a", 140.0)]);
        match evaluate(&d, 25.0).unwrap() {
            Trend::Compared { regressions, .. } => {
                assert_eq!(regressions.len(), 1);
                assert_eq!(regressions[0].key, key());
                // The bar is the median prior (105.0), not the minimum.
                assert_eq!(regressions[0].prior, 105.0);
            }
            other => panic!("expected a comparison, got {other:?}"),
        }
    }

    #[test]
    fn one_lucky_prior_does_not_set_the_bar() {
        // Priors 100 and 300: a min-based gate would demand ≤125
        // forever after the lucky 100; the median bar (200) accepts a
        // typical 240 and still catches a real doubling.
        let d = doc(&[("a", 100.0), ("a", 300.0), ("a", 240.0)]);
        match evaluate(&d, 25.0).unwrap() {
            Trend::Compared { checks, regressions, .. } => {
                assert_eq!(checks[0].prior, 200.0);
                assert!(regressions.is_empty());
            }
            other => panic!("expected a comparison, got {other:?}"),
        }
        let d = doc(&[("a", 100.0), ("a", 300.0), ("a", 410.0)]);
        match evaluate(&d, 25.0).unwrap() {
            Trend::Compared { regressions, .. } => assert_eq!(regressions.len(), 1),
            other => panic!("expected a comparison, got {other:?}"),
        }
    }

    #[test]
    fn within_threshold_passes_including_improvements() {
        for latest in [60.0, 100.0, 124.9] {
            let d = doc(&[("a", 100.0), ("a", 180.0), ("a", latest)]);
            match evaluate(&d, 25.0).unwrap() {
                Trend::Compared { checks, regressions, .. } => {
                    assert_eq!(checks.len(), 1);
                    assert!(regressions.is_empty(), "latest={latest}");
                }
                other => panic!("expected a comparison, got {other:?}"),
            }
        }
    }

    #[test]
    fn different_configs_never_compare() {
        // Two slow full runs on record; the latest is a fast smoke
        // config — its group has one member, so no gate.
        let d = doc(&[("full", 100.0), ("full", 100.0), ("smoke", 900.0)]);
        assert_eq!(evaluate(&d, 25.0).unwrap(), Trend::TooFewRuns { have: 1 });
    }

    #[test]
    fn rows_without_priors_are_skipped() {
        // The latest run also carries a row key the priors lack: only
        // the shared key is compared. (Build by hand: two runs with the
        // shared row, latest with an extra impl row.)
        let mut d = doc(&[("a", 100.0), ("a", 100.0), ("a", 101.0)]);
        if let Json::Obj(members) = &mut d {
            let runs = members.iter_mut().find(|(k, _)| k == "runs").unwrap();
            if let Json::Arr(runs) = &mut runs.1 {
                let last = runs.last_mut().unwrap();
                let report = match last {
                    Json::Obj(m) => &mut m.iter_mut().find(|(k, _)| k == "report").unwrap().1,
                    _ => unreachable!(),
                };
                if let Json::Obj(m) = report {
                    let rows = &mut m.iter_mut().find(|(k, _)| k == "rows").unwrap().1;
                    if let Json::Arr(rows) = rows {
                        rows.push(Json::Arr(
                            ["counter", "batched", "4", "x", "55.0"]
                                .iter()
                                .map(|c| Json::Str((*c).into()))
                                .collect(),
                        ));
                    }
                }
            }
        }
        match evaluate(&d, 25.0).unwrap() {
            Trend::Compared { checks, regressions, .. } => {
                assert_eq!(checks.len(), 1, "only the shared key compares");
                assert!(regressions.is_empty());
            }
            other => panic!("expected a comparison, got {other:?}"),
        }
    }

    #[test]
    fn unparseable_medians_are_not_measurements() {
        // A "-" ns/op cell (the unbounded steady leg records its
        // wall-clock that way) is skipped rather than treated as zero.
        let mut d = doc(&[("a", 100.0), ("a", 100.0), ("a", 100.0)]);
        if let Json::Obj(members) = &mut d {
            let runs = &mut members.iter_mut().find(|(k, _)| k == "runs").unwrap().1;
            if let Json::Arr(runs) = runs {
                for run in runs.iter_mut().take(2) {
                    if let Json::Obj(m) = run {
                        let report = &mut m.iter_mut().find(|(k, _)| k == "report").unwrap().1;
                        if let Json::Obj(m) = report {
                            let rows = &mut m.iter_mut().find(|(k, _)| k == "rows").unwrap().1;
                            *rows = Json::Arr(vec![Json::Arr(
                                ["counter", "pointer", "4", "x", "-"]
                                    .iter()
                                    .map(|c| Json::Str((*c).into()))
                                    .collect(),
                            )]);
                        }
                    }
                }
            }
        }
        match evaluate(&d, 25.0).unwrap() {
            Trend::Compared { checks, .. } => assert!(checks.is_empty()),
            other => panic!("expected a comparison, got {other:?}"),
        }
    }

    /// A trajectory whose runs carry an `rss_mib` column: one steady
    /// row at `(ns, rss)` per run.
    fn doc_rss(runs: &[(f64, f64)]) -> Json {
        let runs: Vec<Json> = runs
            .iter()
            .map(|(ns, rss)| {
                Json::Obj(vec![
                    ("timestamp".into(), Json::Str("t".into())),
                    ("config".into(), Json::Obj(vec![])),
                    (
                        "report".into(),
                        Json::Obj(vec![
                            (
                                "columns".into(),
                                Json::Arr(
                                    ["workload", "impl", "n", "ns/op", "rss_mib"]
                                        .iter()
                                        .map(|c| Json::Str((*c).into()))
                                        .collect(),
                                ),
                            ),
                            (
                                "rows".into(),
                                Json::Arr(vec![Json::Arr(
                                    [
                                        "steady",
                                        "checkpointed",
                                        "4",
                                        &format!("{ns}"),
                                        &format!("{rss}"),
                                    ]
                                    .iter()
                                    .map(|c| Json::Str((*c).into()))
                                    .collect(),
                                )]),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::num(2)),
            ("runs".into(), Json::Arr(runs)),
        ])
    }

    #[test]
    fn rss_regression_needs_both_ratio_and_absolute_growth() {
        // +50% but only 1.5 MiB absolute: inside the slack, no gate.
        let d = doc_rss(&[(100.0, 3.0), (100.0, 3.0), (100.0, 4.5)]);
        match evaluate(&d, 25.0).unwrap() {
            Trend::Compared { rss_checks, rss_regressions, .. } => {
                assert_eq!(rss_checks.len(), 1);
                assert!(rss_regressions.is_empty(), "{rss_regressions:?}");
            }
            other => panic!("expected a comparison, got {other:?}"),
        }
        // +50% and 150 MiB absolute: a real truncation failure, gated.
        let d = doc_rss(&[(100.0, 300.0), (100.0, 300.0), (100.0, 450.0)]);
        match evaluate(&d, 25.0).unwrap() {
            Trend::Compared { rss_regressions, .. } => {
                assert_eq!(rss_regressions.len(), 1);
                assert_eq!(
                    rss_regressions[0].key,
                    ("steady".into(), "checkpointed".into(), "4".into())
                );
            }
            other => panic!("expected a comparison, got {other:?}"),
        }
    }

    #[test]
    fn runs_without_an_rss_column_still_gate_ns_only() {
        // The pre-column trajectory shape must keep parsing and gating
        // exactly as before the column existed.
        let d = doc(&[("a", 100.0), ("a", 100.0), ("a", 300.0)]);
        match evaluate(&d, 25.0).unwrap() {
            Trend::Compared { regressions, rss_checks, rss_regressions, .. } => {
                assert_eq!(regressions.len(), 1);
                assert!(rss_checks.is_empty());
                assert!(rss_regressions.is_empty());
            }
            other => panic!("expected a comparison, got {other:?}"),
        }
    }

    #[test]
    fn malformed_documents_are_errors() {
        assert!(evaluate(&Json::Obj(vec![]), 25.0).is_err());
        let no_runs = Json::Obj(vec![("runs".into(), Json::Arr(vec![]))]);
        assert!(evaluate(&no_runs, 25.0).is_err());
    }
}
