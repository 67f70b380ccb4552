//! The recorded perf-trajectory file (`BENCH_universal.json`): the
//! merge logic `bench_universal` appends its runs with, and the
//! `--timestamp` CLI convention for reproducible records.
//!
//! Schema 2 is `{"schema": 2, "runs": [...]}` where each run carries a
//! timestamp, the run's configuration object (the trend gate groups
//! runs by its rendered JSON — see `bench_trend`), and the full report.
//! A pre-schema-2 file (a bare report object) is wrapped as the first
//! run with timestamp `"pre-merge"`.

use crate::json::Json;

/// Merge one run into the recorded trajectory: read the existing
/// document (wrapping a pre-schema-2 bare report as the first run),
/// append `{timestamp, config, report}`, and render the schema-2
/// document.
///
/// A *missing* prior is a fresh start (new clone, new trajectory). An
/// *unparseable* prior is an error: overwriting it would silently
/// discard the recorded history, so the caller must fail instead.
///
/// # Errors
///
/// When `prior` is present but not valid JSON.
pub fn merged_trajectory(
    prior: Option<&str>,
    report_json: &str,
    timestamp: &str,
    config: Json,
) -> Result<String, String> {
    let mut runs: Vec<Json> = match prior.map(Json::parse) {
        Some(Ok(doc)) => match doc.get("runs").and_then(Json::as_array) {
            Some(existing) => existing.to_vec(),
            // A bare report from before the merge schema: keep it as
            // the trajectory's first entry.
            None if doc.get("id").is_some() => vec![Json::Obj(vec![
                ("timestamp".into(), Json::Str("pre-merge".into())),
                ("config".into(), Json::Obj(Vec::new())),
                ("report".into(), doc),
            ])],
            None => Vec::new(),
        },
        Some(Err(e)) => {
            return Err(format!(
                "existing trajectory is not valid JSON ({e}); refusing to \
                 overwrite the recorded history — fix or remove the file"
            ))
        }
        None => Vec::new(),
    };
    let report = Json::parse(report_json).expect("Report::to_json emits valid JSON");
    runs.push(Json::Obj(vec![
        ("timestamp".into(), Json::Str(timestamp.into())),
        ("config".into(), config),
        ("report".into(), report),
    ]));
    Ok(Json::Obj(vec![
        ("schema".into(), Json::num(2)),
        ("runs".into(), Json::Arr(runs)),
    ])
    .pretty())
}

/// `--timestamp <tag>` / `--timestamp=<tag>` from the process args,
/// else wall-clock epoch seconds (`unix:<secs>`).
#[must_use]
pub fn cli_timestamp() -> String {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--timestamp" {
            if let Some(v) = args.next() {
                return v;
            }
        } else if let Some(v) = a.strip_prefix("--timestamp=") {
            return v.to_string();
        }
    }
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    format!("unix:{secs}")
}

/// Read the prior trajectory at `path`, merge this run, and write it
/// back, exiting the process on an unmergeable or unwritable file (the
/// conventions every recording binary shares).
pub fn merge_into_file(path: &str, report_json: &str, timestamp: &str, config: Json) {
    let prior = std::fs::read_to_string(path).ok();
    let merged = match merged_trajectory(prior.as_deref(), report_json, timestamp, config) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::write(path, merged) {
        eprintln!("could not write {path}: {e}");
        std::process::exit(1);
    }
    println!("  merged into {path} (run timestamp: {timestamp})");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Report;

    fn report_json() -> String {
        let mut r = Report::new("bench_universal", "t", &["workload", "impl", "n"]);
        r.row(&["counter".into(), "cell".into(), "1".into()]);
        r.to_json()
    }

    #[test]
    fn legacy_file_is_wrapped_then_appended() {
        // First merge over a pre-schema-2 bare report.
        let merged =
            merged_trajectory(Some(&report_json()), &report_json(), "t1", Json::Obj(vec![]))
                .unwrap();
        let doc = Json::parse(&merged).unwrap();
        assert_eq!(doc.get("schema"), Some(&Json::num(2)));
        let runs = doc.get("runs").and_then(Json::as_array).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].get("timestamp").and_then(Json::as_str), Some("pre-merge"));
        assert_eq!(runs[1].get("timestamp").and_then(Json::as_str), Some("t1"));

        // Second merge over the schema-2 file appends.
        let merged2 =
            merged_trajectory(Some(&merged), &report_json(), "t2", Json::Obj(vec![])).unwrap();
        let doc2 = Json::parse(&merged2).unwrap();
        let runs2 = doc2.get("runs").and_then(Json::as_array).unwrap();
        assert_eq!(runs2.len(), 3);
        assert_eq!(runs2[2].get("timestamp").and_then(Json::as_str), Some("t2"));
        assert!(runs2[2].get("report").unwrap().get("rows").is_some());
    }

    #[test]
    fn missing_prior_starts_fresh() {
        let merged = merged_trajectory(None, &report_json(), "t", Json::Obj(vec![])).unwrap();
        let doc = Json::parse(&merged).unwrap();
        assert_eq!(doc.get("runs").and_then(Json::as_array).unwrap().len(), 1);
    }

    #[test]
    fn garbage_prior_is_an_error_not_a_silent_restart() {
        let err = merged_trajectory(Some("not json at all"), &report_json(), "t", Json::Obj(vec![]))
            .unwrap_err();
        assert!(
            err.contains("refusing to overwrite"),
            "error must explain the refusal: {err}"
        );
    }
}
