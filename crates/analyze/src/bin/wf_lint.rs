//! `wf-lint` — run the workspace lint rules (ordering audit, facade
//! bypass, bench timing, ordering-contract annotations, progress
//! annotations; see the crate docs) plus the cross-file pair-graph
//! pass over every `.rs` file in the workspace, and exit non-zero on
//! any finding.
//!
//! Usage: `cargo run -p waitfree-analyze --bin wf-lint [flags] [root]`
//!
//! Flags:
//! * `--json` — emit findings as a JSON array instead of the human
//!   format (exit code unchanged).
//! * `--contract-json` — emit the extracted ordering contract as JSON
//!   on stdout and nothing else; exits non-zero only if the contract
//!   itself fails to resolve.
//! * `--seqcst-report` — advisory: list every `SeqCst` site in audited
//!   code, flagging the undocumented ones as downgrade candidates;
//!   always exits zero.
//!
//! With no root argument the workspace root is found by walking up
//! from the current directory to the first `Cargo.toml` containing
//! `[workspace]`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use waitfree_analyze::contract;
use waitfree_analyze::lint_source;
use waitfree_analyze::Finding;

fn main() -> ExitCode {
    let mut json = false;
    let mut contract_json = false;
    let mut seqcst = false;
    let mut root_arg = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            "--contract-json" => contract_json = true,
            "--seqcst-report" => seqcst = true,
            other if other.starts_with("--") => {
                eprintln!("wf-lint: unknown flag {other}");
                return ExitCode::FAILURE;
            }
            other => root_arg = Some(PathBuf::from(other)),
        }
    }
    let root = match root_arg.or_else(find_workspace_root) {
        Some(p) => p,
        None => {
            eprintln!("wf-lint: no workspace root found above the current directory");
            return ExitCode::FAILURE;
        }
    };

    let mut paths = Vec::new();
    collect_rs_files(&root, &root, &mut paths);
    paths.sort();

    // (rel_path, source) for every readable file; read errors are
    // findings in their own right.
    let mut files: Vec<(String, String)> = Vec::new();
    let mut findings: Vec<(String, Finding)> = Vec::new();
    for rel in &paths {
        // Rule scoping keys on `/`-separated components.
        let rel_str = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        match fs::read_to_string(root.join(rel)) {
            Ok(src) => files.push((rel_str, src)),
            Err(e) => {
                eprintln!("wf-lint: {rel_str}: {e}");
                findings.push((
                    rel_str,
                    Finding {
                        line: 0,
                        rule: waitfree_analyze::Rule::OrderingAudit,
                        msg: format!("unreadable file: {e}"),
                    },
                ));
            }
        }
    }

    if seqcst {
        let report = contract::seqcst_report(&files);
        let undocumented = report.iter().filter(|s| !s.documented).count();
        println!("wf-lint: SeqCst sites in audited code (advisory downgrade worklist)");
        for s in &report {
            let tag = if s.documented { "documented" } else { "candidate " };
            println!("  [{tag}] {}:{}: {}", s.file, s.line, s.context);
        }
        println!(
            "wf-lint: {} SeqCst site(s), {} documented, {} downgrade candidate(s)",
            report.len(),
            report.len() - undocumented,
            undocumented
        );
        return ExitCode::SUCCESS;
    }

    // Cross-file pair-graph pass (always part of the default run; the
    // only output in --contract-json mode).
    let result = contract::extract_contract(&files);
    if contract_json {
        for f in &result.findings {
            eprintln!("{}:{}: {}", f.file, f.finding.line, f.finding);
        }
        print!("{}", contract::contract_json(&result.contract));
        return if result.findings.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    for (rel_str, src) in &files {
        for f in lint_source(rel_str, src) {
            findings.push((rel_str.clone(), f));
        }
    }
    for f in result.findings {
        findings.push((f.file, f.finding));
    }
    findings.sort_by(|a, b| (&a.0, a.1.line).cmp(&(&b.0, b.1.line)));

    if json {
        print!("{}", contract::findings_json(&findings));
    } else {
        for (file, f) in &findings {
            println!("{file}:{}: {f}", f.line);
        }
    }

    if findings.is_empty() {
        if !json {
            println!(
                "wf-lint: {} files clean ({} contract sites, {} declared pairs)",
                files.len(),
                result.contract.sites.len(),
                result.contract.declared_pairs().len()
            );
        }
        ExitCode::SUCCESS
    } else {
        eprintln!("wf-lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

/// Walk up from the current directory to the first `Cargo.toml` that
/// declares a `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Recursively collect `.rs` files under `dir` (paths relative to
/// `root`), skipping build output, VCS metadata and hidden directories.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
}
