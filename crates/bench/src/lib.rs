//! # waitfree-bench
//!
//! The experiment harness: one binary per figure/theorem of the paper
//! (see DESIGN.md's per-experiment index and EXPERIMENTS.md for recorded
//! outcomes), plus self-contained timing benches (`benches/`, run with
//! `cargo bench`) for the performance comparisons.
//!
//! Each binary prints a human-readable table and writes a JSON record
//! under `results/` so EXPERIMENTS.md can be regenerated and diffed.
//!
//! `bench_universal` is the one binary that reproduces no paper artifact:
//! a stdout report on the universal object's hot path whose helping
//! bounds exit 1 when broken. Its `results/bench_universal.json` is a
//! timing, so git ignores it. Perf claims are made with the benchmark
//! (`benchmark/run.sh --compare`), not with this report.
//!
//! Run everything:
//!
//! ```text
//! for b in fig_1_1_hierarchy thm_02_registers thm_04_rmw thm_06_interfering \
//!          thm_07_cas thm_09_queue thm_11_queue_three thm_12_augmented_queue \
//!          thm_15_move thm_16_swap thm_19_assignment thm_22_assignment_impossible \
//!          fig_4_3_swap_cons fig_4_5_consensus_cons sec_4_1_universal sec_3_1_channels \
//!          sec_5_randomized; do
//!   cargo run --release -p waitfree-bench --bin $b
//! done
//! ```

#![warn(missing_docs)]

use std::fs;
use std::path::Path;

pub mod alloc_count;
pub mod timing;

/// A machine- and human-readable experiment report.
#[derive(Clone, Debug)]
pub struct Report {
    /// Experiment id (e.g. `"thm_07_cas"`).
    pub id: String,
    /// One-line title quoting the paper artifact.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Table rows.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (bounds, caveats, certificate semantics).
    pub notes: Vec<String>,
    /// Whether the experiment's claim was confirmed.
    pub pass: bool,
}

impl Report {
    /// Start a report.
    #[must_use]
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        Report {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            pass: true,
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Append a note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Record a failed expectation (marks the whole report failed).
    pub fn fail(&mut self, text: impl Into<String>) {
        self.pass = false;
        self.notes.push(format!("FAIL: {}", text.into()));
    }

    /// Print the table and write `results/<id>.json`. Exits the process
    /// with a non-zero status if the experiment failed.
    pub fn finish(self) {
        let widths: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain(std::iter::once(c.len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        println!("== {} — {}", self.id, self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths[i]))
            .collect();
        println!("  {}", header.join(" | "));
        println!(
            "  {}",
            widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("-+-")
        );
        for r in &self.rows {
            let cells: Vec<String> = r
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:w$}", c, w = widths[i]))
                .collect();
            println!("  {}", cells.join(" | "));
        }
        for n in &self.notes {
            println!("  note: {n}");
        }
        println!("  verdict: {}", if self.pass { "CONFIRMED" } else { "FAILED" });

        let dir = Path::new("results");
        if fs::create_dir_all(dir).is_ok() {
            let path = dir.join(format!("{}.json", self.id));
            if let Err(e) = fs::write(&path, self.to_json()) {
                eprintln!("could not write {}: {e}", path.display());
            } else {
                println!("  wrote {}", path.display());
            }
        }
        if !self.pass {
            std::process::exit(1);
        }
    }

    /// Serialize the report as pretty-printed JSON (hand-rolled: the
    /// workspace carries no serialization dependency).
    #[must_use]
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out.push('"');
            out
        }
        fn str_array(items: &[String], indent: &str) -> String {
            if items.is_empty() {
                return "[]".to_string();
            }
            let cells: Vec<String> = items.iter().map(|s| esc(s)).collect();
            format!("[\n{indent}  {}\n{indent}]", cells.join(&format!(",\n{indent}  ")))
        }
        let rows = if self.rows.is_empty() {
            "[]".to_string()
        } else {
            let rendered: Vec<String> =
                self.rows.iter().map(|r| str_array(r, "    ")).collect();
            format!("[\n    {}\n  ]", rendered.join(",\n    "))
        };
        format!(
            "{{\n  \"id\": {},\n  \"title\": {},\n  \"columns\": {},\n  \"rows\": {},\n  \"notes\": {},\n  \"pass\": {}\n}}\n",
            esc(&self.id),
            esc(&self.title),
            str_array(&self.columns, "  "),
            rows,
            str_array(&self.notes, "  "),
            self.pass
        )
    }
}

/// Format a [`waitfree_explorer::check::CheckReport`] verdict cell.
#[must_use]
pub fn verdict(report: &waitfree_explorer::check::CheckReport) -> String {
    match &report.violation {
        None => format!("ok ({} configs)", report.configs),
        Some(v) => format!("violated: {v}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_rows_must_match_columns() {
        let mut r = Report::new("x", "t", &["a", "b"]);
        r.row(&["1".into(), "2".into()]);
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn report_arity_enforced() {
        let mut r = Report::new("x", "t", &["a", "b"]);
        r.row(&["1".into()]);
    }

    #[test]
    fn json_escapes_specials_and_renders_all_fields() {
        let mut r = Report::new("id\"1", "a\\b\nc", &["col"]);
        r.row(&["cell".into()]);
        r.note("n\tote");
        let json = r.to_json();
        assert!(json.contains("\"id\\\"1\""));
        assert!(json.contains("\"a\\\\b\\nc\""));
        assert!(json.contains("\"cell\""));
        assert!(json.contains("\"n\\tote\""));
        assert!(json.contains("\"pass\": true"));
    }

    #[test]
    fn fail_flips_verdict() {
        let mut r = Report::new("x", "t", &["a"]);
        assert!(r.pass);
        r.fail("nope");
        assert!(!r.pass);
        assert_eq!(r.notes.len(), 1);
    }
}
