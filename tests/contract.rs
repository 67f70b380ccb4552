//! The ordering contract as a test-suite invariant: the machine-checked
//! pair graph over the workspace's `// ordering:` annotations must
//! resolve cleanly, every audited statement and loop must carry its
//! required annotation (zero exemptions), and a mis-labeled pair —
//! the shipped sources with one annotation rewritten — must be caught
//! by the static pass.
//!
//! These tests run the same passes as `cargo run -p waitfree-analyze
//! --bin wf-lint`, so CI failures reproduce locally with one command.
//! The *dynamic* half of the cross-validation — observed
//! release→acquire edges judged against this contract under the
//! deterministic scheduler — lives in `tests/sched_linearizability.rs`.

mod common;

use waitfree_analyze::contract::extract_contract;
use waitfree_analyze::{lint_source, Rule};

/// The full static lint (per-file rules and the cross-file pair graph)
/// is clean over the shipped sources: every pre-existing ordering
/// comment resolved into the DSL, every non-test loop carries a
/// progress annotation, and no file is exempt.
#[test]
fn workspace_lint_is_clean_with_zero_exemptions() {
    let files = common::workspace_sources();
    assert!(files.len() > 50, "workspace walk found only {} files", files.len());

    let mut findings = Vec::new();
    for (rel, src) in &files {
        for f in lint_source(rel, src) {
            findings.push(format!("{rel}:{}: {f}", f.line));
        }
    }
    let result = extract_contract(&files);
    for f in &result.findings {
        findings.push(format!("{}:{}: {}", f.file, f.finding.line, f.finding));
    }
    assert!(
        findings.is_empty(),
        "{} lint finding(s):\n{}",
        findings.len(),
        findings.join("\n")
    );
}

/// The extracted pair graph has real substance: release sites in both
/// algorithm crates, every `pairs:` reference resolved, and the
/// specific labels the design names (DESIGN §12) all present.
#[test]
fn pair_graph_resolves_and_covers_both_algorithm_crates() {
    let files = common::workspace_sources();
    let result = extract_contract(&files);
    assert!(result.findings.is_empty(), "{:?}", result.findings);

    let c = &result.contract;
    assert!(
        c.files.iter().any(|f| f == "crates/sync/src/universal/decide.rs")
            && c.files.iter().any(|f| f == "crates/sync/src/lockfree.rs")
            && c.files.iter().any(|f| f == "crates/store/src/lib.rs"),
        "contract coverage misses an algorithm file: {:?}",
        c.files
    );

    let labels: Vec<&str> =
        c.sites.iter().filter_map(|s| s.label.as_deref()).collect();
    for expected in [
        "universal.hint_pub",
        "universal.decide",
        "universal.cp_install",
        "universal.seg_install",
        "universal.seg_count",
        "universal.slots_hi",
        "lockfree.stack_push",
        "lockfree.stack_pop",
        "lockfree.enq",
        "lockfree.deq",
        "lockfree.retire",
    ] {
        assert!(labels.contains(&expected), "missing release site `{expected}` in {labels:?}");
    }

    let pairs = c.declared_pairs();
    // 35: the log and the registry share one segment chain, so its
    // install has three acquirers (the link follow, the losing CAS, the
    // reclaimer's hop), not the eight two copies of it had.
    assert!(pairs.len() >= 35, "only {} declared pairs", pairs.len());
    // Every declared pair's release label resolves (re-stating what
    // `findings.is_empty()` above already guarantees, but as data: the
    // label set and the pair set agree).
    for (release, acquirer) in &pairs {
        assert!(
            labels.contains(&release.as_str()),
            "pair ({release} → {acquirer}) names an undeclared release site"
        );
    }
}

/// The static mutant gate: mutate the input, not the build. In the
/// shipped sources with the `thread_entry` hint load re-annotated
/// `[pairs: universal.hint_stale]` (`common::mislabeled_hint_sources`),
/// the dangling label must surface as an unresolved pair, and it must
/// be the *only* finding, so the gate stays sharp. The same pass over
/// the unmutated sources is clean.
#[test]
fn mutant_unpaired_acquire_is_caught_statically() {
    let shipped = extract_contract(&common::workspace_sources());
    assert!(shipped.findings.is_empty(), "{:?}", shipped.findings);

    let mutated = extract_contract(&common::mislabeled_hint_sources());
    assert_eq!(
        mutated.findings.len(),
        1,
        "expected exactly the mis-labeled pair, got {:?}",
        mutated.findings
    );
    let f = &mutated.findings[0];
    assert!(
        f.finding.rule == Rule::UnresolvedPair
            && f.file == "crates/sync/src/universal/decide.rs"
            && f.finding.msg.contains("universal.hint_stale"),
        "{f:?}"
    );
}

/// The advisory `SeqCst` report stays truthful: the two deliberately
/// kept `SeqCst` linearization sites (the universal construction's
/// decide CAS and the announce/done handshake's documented
/// counterparts) are marked documented, and the report never fails the
/// build (it is a worklist, not a gate).
#[test]
fn seqcst_report_documents_the_deliberate_sites() {
    let files = common::workspace_sources();
    let report = waitfree_analyze::contract::seqcst_report(&files);
    assert!(!report.is_empty());
    let documented: Vec<_> = report.iter().filter(|s| s.documented).collect();
    assert!(
        documented.iter().any(|s| {
            s.file == "crates/sync/src/universal/decide.rs" && s.context.contains("compare_exchange")
        }),
        "the decide CAS must be a documented SeqCst site: {documented:?}"
    );
    assert!(
        documented.iter().any(|s| s.context.contains("done.fetch_max"))
            && documented.iter().any(|s| s.context.contains("announced.store")),
        "both halves of the announce/done handshake must be documented: {documented:?}"
    );
    // Undocumented sites are candidates, not errors — the report is
    // advisory by construction (wf-lint --seqcst-report always exits 0).
    assert!(report.iter().any(|s| !s.documented));
}
