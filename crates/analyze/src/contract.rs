//! The typed ordering-contract DSL and its pair-graph pass.
//!
//! PR 5 made every weak atomic carry an `// ordering:` audit comment;
//! this module makes the *content* of those comments machine-checked.
//! Release-side sites declare a stable label, acquire sides name the
//! labels they synchronize with, and the workspace-level pass resolves
//! the references into a release→acquire graph — the same structure the
//! C/C++11 memory-model literature (Batty et al.) and CDSChecker-style
//! tools treat as the unit of synchronization.
//!
//! # Grammar
//!
//! Inside an audit comment's text, square-bracket groups carry the
//! contract (prose outside the brackets stays free-form):
//!
//! ```text
//! // ordering: Release [site: universal.hint_pub] — publishes …
//! // ordering: Acquire [pairs: universal.hint_pub] — inherits …
//! // ordering: Release/Acquire [site: sync.seg_install; pairs: sync.seg_install] — …
//! // ordering: Relaxed [no-edge] — pure counter, no publication …
//! ```
//!
//! * `site: <label>` — declares this statement as a release-capable
//!   synchronization source. Labels are `[A-Za-z0-9_.-]+`, unique
//!   across the workspace, and conventionally `<module>.<what>`.
//! * `pairs: <label>, <label>, …` — declares which sites this
//!   statement's acquire half may synchronize with. A statement may
//!   reference its own label (a CAS loser acquiring from the winner of
//!   the same CAS).
//! * `no-edge` — declares the statement deliberately creates no
//!   happens-before edge. On a relaxed-only statement it is required;
//!   on an acquire-capable statement it is a *claim* ("this acquire is
//!   defensive; nothing pairs here") that the dynamic pass enforces —
//!   an observed edge at such a site is flagged as undeclared. On a
//!   release-capable statement it is an error: an unpaired release is
//!   dead strength.
//!
//! A statement naming a weak ordering must carry the groups its
//! orderings require: release-capable ⇒ `site:`, acquire-capable ⇒
//! `pairs:`, relaxed-only ⇒ `no-edge`. Pure-`SeqCst` statements may
//! declare groups (so weak acquires can pair with a `SeqCst`
//! linearization point) but are not required to.
//!
//! # The two halves
//!
//! The per-statement checks (syntax, required groups, direction
//! agreement) run inside [`crate::lint_source`]; the cross-file pass
//! ([`extract_contract`]) resolves the graph — duplicate labels,
//! unresolved `pairs:` references, pairs whose release side is not
//! release-capable, and pairs whose two sides touch different atomic
//! fields. The extracted [`Contract`] is what `wf-lint --contract-json`
//! emits and what `waitfree_sched::hb` cross-validates dynamically: an
//! observed release→acquire edge between covered files whose site pair
//! is *not* declared fails the campaign, which is the soundness
//! backstop for everything the static pass cannot see.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::{
    adjacent_comment_lines, cfg_test_lines, split_lines, statement_has_marker, statement_range,
    Finding, Line, Rule, Scope,
};

// ---------------------------------------------------------------------
// Annotation parsing
// ---------------------------------------------------------------------

/// The contract groups parsed out of one statement's audit comment.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Annotation {
    /// The `site:` label, if declared.
    pub site: Option<String>,
    /// The `pairs:` labels, if declared.
    pub pairs: Vec<String>,
    /// Whether `no-edge` was declared.
    pub no_edge: bool,
}

impl Annotation {
    /// Whether any contract group was declared at all.
    #[must_use]
    pub fn present(&self) -> bool {
        self.site.is_some() || !self.pairs.is_empty() || self.no_edge
    }
}

fn valid_label(l: &str) -> bool {
    !l.is_empty()
        && l.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Parse the contract groups out of a statement's adjacent comment
/// lines. Bracket groups whose content does not start with a contract
/// key are prose (e.g. a citation `[10]`) and ignored. Returns the
/// annotation plus any syntax errors.
#[must_use]
pub fn parse_annotation(comments: &[String]) -> (Annotation, Vec<String>) {
    let mut ann = Annotation::default();
    let mut errs = Vec::new();
    // Join the comment block into one line first: a bracket group may
    // wrap across physical comment lines (rustfmt-style width limits).
    let joined = comments.iter().map(|c| c.trim()).collect::<Vec<_>>().join(" ");
    {
        let mut rest = joined.as_str();
        while let Some(open) = rest.find('[') {
            let Some(close) = rest[open..].find(']') else { break };
            let body = rest[open + 1..open + close].trim();
            rest = &rest[open + close + 1..];
            let is_group = body == "no-edge"
                || body.starts_with("site:")
                || body.starts_with("pairs:");
            if !is_group {
                continue;
            }
            for part in body.split(';') {
                let part = part.trim();
                if part == "no-edge" {
                    ann.no_edge = true;
                } else if let Some(label) = part.strip_prefix("site:") {
                    let label = label.trim();
                    if !valid_label(label) {
                        errs.push(format!("invalid site label `{label}`"));
                    } else if ann.site.is_some() {
                        errs.push(format!("duplicate `site:` group (`{label}`)"));
                    } else {
                        ann.site = Some(label.to_string());
                    }
                } else if let Some(list) = part.strip_prefix("pairs:") {
                    let mut any = false;
                    for label in list.split(',') {
                        let label = label.trim();
                        if label.is_empty() {
                            continue;
                        }
                        any = true;
                        if !valid_label(label) {
                            errs.push(format!("invalid pairs label `{label}`"));
                        } else if !ann.pairs.iter().any(|p| p == label) {
                            ann.pairs.push(label.to_string());
                        }
                    }
                    if !any {
                        errs.push("empty `pairs:` group".into());
                    }
                } else {
                    errs.push(format!("unknown contract key in `[{part}]`"));
                }
            }
        }
    }
    (ann, errs)
}

// ---------------------------------------------------------------------
// Statement analysis
// ---------------------------------------------------------------------

/// What the orderings named by a statement make it capable of.
#[derive(Clone, Copy, Debug, Default)]
struct Caps {
    release: bool,
    acquire: bool,
    /// Names at least one non-`SeqCst` ordering.
    weak: bool,
}

fn caps_of(stmt_code: &str) -> Caps {
    let has = |o: &str| stmt_code.contains(o);
    let seqcst = has("Ordering::SeqCst");
    // Release needs a write, acquire needs a read: a loads-only
    // statement that happens to name `SeqCst` (an observer chain) is
    // not release-capable no matter the ordering, and vice versa.
    // Fences are both; a statement with no recognizable accessor is
    // conservatively both.
    let writes = [".store(", ".swap(", ".compare_exchange(", ".fetch_add(", ".fetch_sub(", ".fetch_max("]
        .iter()
        .any(|m| stmt_code.contains(m));
    let reads = [".load(", ".swap(", ".compare_exchange(", ".fetch_add(", ".fetch_sub(", ".fetch_max("]
        .iter()
        .any(|m| stmt_code.contains(m));
    let unknown = stmt_code.contains("fence(") || (!writes && !reads);
    Caps {
        release: (has("Ordering::Release") || has("Ordering::AcqRel") || seqcst)
            && (writes || unknown),
        acquire: (has("Ordering::Acquire") || has("Ordering::AcqRel") || seqcst)
            && (reads || unknown),
        weak: crate::WEAK_ORDERINGS.iter().any(|o| has(o)),
    }
}

/// The atomic field a statement's first atomic method call goes
/// through, when the receiver is a projection (`x.field.load(…)`,
/// `x.slots[i].load(…)`). A bare local (`slot.load(…)`) yields `None`:
/// the binding name says nothing about the field, so the pair-field
/// check skips it.
fn atomic_field(stmt_code: &str) -> Option<String> {
    const METHODS: [&str; 7] = [
        ".load(", ".store(", ".swap(", ".compare_exchange(", ".fetch_add(", ".fetch_sub(",
        ".fetch_max(",
    ];
    let dot = METHODS.iter().filter_map(|m| stmt_code.find(m)).min()?;
    let b = stmt_code.as_bytes();
    let mut j = dot;
    // Skip an index group: `slots[i].load` → the field is `slots`.
    if j > 0 && b[j - 1] == b']' {
        let mut depth = 1usize;
        j -= 1;
        while j > 0 && depth > 0 {
            j -= 1;
            match b[j] {
                b'[' => depth -= 1,
                b']' => depth += 1,
                _ => {}
            }
        }
    }
    let mut k = j;
    while k > 0 && (b[k - 1].is_ascii_alphanumeric() || b[k - 1] == b'_') {
        k -= 1;
    }
    if k == j || k == 0 || b[k - 1] != b'.' {
        return None;
    }
    Some(stmt_code[k..j].to_string())
}

/// Visit each statement naming an `Ordering::` exactly once, outside
/// test code. `f` receives `(op_line, start, end)` — all 0-based.
fn for_each_ordering_statement(
    lines: &[Line],
    excluded: &[bool],
    mut f: impl FnMut(usize, usize, usize),
) {
    let mut seen = usize::MAX;
    for (l, line) in lines.iter().enumerate() {
        if excluded[l] || !line.code.contains("Ordering::") {
            continue;
        }
        let (s, e) = statement_range(lines, l);
        if s == seen {
            continue;
        }
        seen = s;
        f(l, s, e);
    }
}

/// Per-statement contract checks, run from [`crate::lint_source`]:
/// group syntax, required groups for the statement's orderings, and
/// direction agreement between groups and orderings.
pub(crate) fn annotation_lint(scope: &Scope<'_>, lines: &[Line], out: &mut Vec<Finding>) {
    if !scope.audited() {
        return;
    }
    let excluded = cfg_test_lines(lines);
    for_each_ordering_statement(lines, &excluded, |l, s, e| {
        // Statements without any audit comment: the ordering-audit rule
        // already fires for weak ones, and bare `SeqCst` statements are
        // exempt by design.
        if !statement_has_marker(lines, l, "ordering:") {
            return;
        }
        let stmt_code: String =
            lines[s..=e].iter().map(|ln| ln.code.as_str()).collect::<Vec<_>>().join("\n");
        let caps = caps_of(&stmt_code);
        let comments = adjacent_comment_lines(lines, l);
        let (ann, errs) = parse_annotation(&comments);
        for msg in errs {
            out.push(Finding { line: l + 1, rule: Rule::ContractSyntax, msg });
        }
        if caps.weak {
            if caps.release && ann.site.is_none() && !ann.no_edge {
                out.push(Finding {
                    line: l + 1,
                    rule: Rule::ContractAnnotation,
                    msg: "release-capable statement must declare `[site: <label>]` \
                          so acquire sides can name it"
                        .into(),
                });
            }
            if caps.acquire && ann.pairs.is_empty() && !ann.no_edge {
                out.push(Finding {
                    line: l + 1,
                    rule: Rule::ContractAnnotation,
                    msg: "acquire-capable statement must declare `[pairs: <labels>]` \
                          naming the release sites it synchronizes with"
                        .into(),
                });
            }
            if !caps.release && !caps.acquire && !ann.no_edge {
                out.push(Finding {
                    line: l + 1,
                    rule: Rule::ContractAnnotation,
                    msg: "relaxed-only statement must declare `[no-edge]` — the \
                          deliberate absence of a happens-before edge is part of \
                          the contract"
                        .into(),
                });
            }
        }
        if ann.site.is_some() && !caps.release {
            out.push(Finding {
                line: l + 1,
                rule: Rule::ContractDirection,
                msg: "`[site:]` on a statement with no release-capable ordering — \
                      nothing published here can head a synchronizes-with edge"
                    .into(),
            });
        }
        if !ann.pairs.is_empty() && !caps.acquire {
            out.push(Finding {
                line: l + 1,
                rule: Rule::ContractDirection,
                msg: "`[pairs:]` on a statement with no acquire-capable ordering — \
                      nothing read here can complete a synchronizes-with edge"
                    .into(),
            });
        }
        // `no-edge` on an acquire-capable statement is a *claim*, not an
        // error: "this ordering is defensive; no synchronizes-with edge
        // lands here" — and the dynamic pass enforces it (an observed
        // edge at an unpaired acquire is flagged as undeclared). On a
        // release-capable statement it stays an error: an unpaired
        // release is either dead strength or a missing `site:`.
        if ann.no_edge && caps.release {
            out.push(Finding {
                line: l + 1,
                rule: Rule::ContractDirection,
                msg: "`[no-edge]` on a release-capable statement — an unpaired \
                      release is dead ordering strength; declare `[site:]` or \
                      weaken the ordering"
                    .into(),
            });
        }
    });
}

// ---------------------------------------------------------------------
// The contract and the cross-file pass
// ---------------------------------------------------------------------

/// One declared synchronization site: an annotated atomic statement.
#[derive(Clone, Debug)]
pub struct SiteDecl {
    /// The `site:` label, if declared (release-capable sites).
    pub label: Option<String>,
    /// Workspace-relative, `/`-separated file path.
    pub file: String,
    /// 1-based line of the first `Ordering::` mention.
    pub line: usize,
    /// 1-based first line of the statement.
    pub start: usize,
    /// 1-based last line of the statement.
    pub end: usize,
    /// The atomic field the statement goes through, when recoverable.
    pub field: Option<String>,
    /// Release-capable (names `Release`, `AcqRel` or `SeqCst`).
    pub release: bool,
    /// Acquire-capable (names `Acquire`, `AcqRel` or `SeqCst`).
    pub acquire: bool,
    /// Declared `no-edge`.
    pub no_edge: bool,
    /// Labels of the release sites this statement's acquire half may
    /// synchronize with.
    pub pairs: Vec<String>,
}

impl SiteDecl {
    /// A stable identity for the site: its label when it has one, else
    /// `file:start`.
    #[must_use]
    pub fn id(&self) -> String {
        self.label.clone().unwrap_or_else(|| format!("{}:{}", self.file, self.start))
    }
}

/// The extracted ordering contract: every declared site, plus the list
/// of files the extraction covered (the dynamic checker treats an edge
/// between covered files with no declared pair as a failure; files
/// outside the list — tests, the facade — are not judged).
#[derive(Clone, Debug, Default)]
pub struct Contract {
    /// Every annotated site, in file/line order.
    pub sites: Vec<SiteDecl>,
    /// Workspace-relative paths of the files the extraction covered.
    pub files: Vec<String>,
}

impl Contract {
    /// Every declared `(release label, acquire site id)` pair.
    #[must_use]
    pub fn declared_pairs(&self) -> BTreeSet<(String, String)> {
        let mut set = BTreeSet::new();
        for s in &self.sites {
            for p in &s.pairs {
                set.insert((p.clone(), s.id()));
            }
        }
        set
    }

    /// The site whose statement range contains `line` of `file`
    /// (matched on path suffix, so `file!()`-style paths resolve
    /// against workspace-relative contract paths).
    #[must_use]
    pub fn site_at(&self, file: &str, line: usize) -> Option<&SiteDecl> {
        self.sites.iter().find(|s| {
            line >= s.start && line <= s.end && (file.ends_with(&s.file) || s.file.ends_with(file))
        })
    }
}

/// A finding attributed to a file (the cross-file pass spans files, so
/// [`Finding`] alone cannot carry the location).
#[derive(Clone, Debug)]
pub struct FileFinding {
    /// Workspace-relative path.
    pub file: String,
    /// The finding itself.
    pub finding: Finding,
}

/// The outcome of [`extract_contract`].
#[derive(Clone, Debug, Default)]
pub struct ContractResult {
    /// The extracted contract (sites are collected even when findings
    /// exist, so tooling can show the broken graph).
    pub contract: Contract,
    /// Cross-file findings: duplicate labels, unresolved `pairs:`
    /// references, non-release pair targets, field mismatches.
    pub findings: Vec<FileFinding>,
}

/// Collect the annotated sites of one file. Parse-failing annotations
/// are skipped here (the per-file pass already reports them).
fn collect_sites(rel: &str, src: &str) -> Vec<SiteDecl> {
    let lines = split_lines(src);
    let excluded = cfg_test_lines(&lines);
    let mut sites = Vec::new();
    for_each_ordering_statement(&lines, &excluded, |l, s, e| {
        let comments = adjacent_comment_lines(&lines, l);
        let (ann, errs) = parse_annotation(&comments);
        if !ann.present() || !errs.is_empty() {
            return;
        }
        let stmt_code: String =
            lines[s..=e].iter().map(|ln| ln.code.as_str()).collect::<Vec<_>>().join("\n");
        let caps = caps_of(&stmt_code);
        sites.push(SiteDecl {
            label: ann.site,
            file: rel.to_string(),
            line: l + 1,
            start: s + 1,
            end: e + 1,
            field: atomic_field(&stmt_code),
            release: caps.release,
            acquire: caps.acquire,
            no_edge: ann.no_edge,
            pairs: ann.pairs,
        });
    });
    sites
}

/// The workspace pair-graph pass: collect every annotated site from
/// `files` (`(rel_path, source)` pairs; non-audited files are skipped)
/// and resolve the graph. See the module docs for the rules.
#[must_use]
pub fn extract_contract(files: &[(String, String)]) -> ContractResult {
    let mut contract = Contract::default();
    for (rel, src) in files {
        let scope = Scope::of(rel);
        if !scope.audited() {
            continue;
        }
        contract.files.push(rel.clone());
        contract.sites.extend(collect_sites(rel, src));
    }

    let mut findings = Vec::new();
    let mut by_label: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, s) in contract.sites.iter().enumerate() {
        if let Some(label) = &s.label {
            if let Some(&first) = by_label.get(label.as_str()) {
                let f = &contract.sites[first];
                findings.push(FileFinding {
                    file: s.file.clone(),
                    finding: Finding {
                        line: s.line,
                        rule: Rule::DuplicateLabel,
                        msg: format!(
                            "site label `{label}` already declared at {}:{}",
                            f.file, f.line
                        ),
                    },
                });
            } else {
                by_label.insert(label.as_str(), i);
            }
        }
    }
    for s in &contract.sites {
        for p in &s.pairs {
            let Some(&ri) = by_label.get(p.as_str()) else {
                findings.push(FileFinding {
                    file: s.file.clone(),
                    finding: Finding {
                        line: s.line,
                        rule: Rule::UnresolvedPair,
                        msg: format!("`pairs: {p}` names a label no site declares"),
                    },
                });
                continue;
            };
            let r = &contract.sites[ri];
            if !r.release {
                findings.push(FileFinding {
                    file: s.file.clone(),
                    finding: Finding {
                        line: s.line,
                        rule: Rule::ContractDirection,
                        msg: format!(
                            "`pairs: {p}` resolves to {}:{}, which has no \
                             release-capable ordering — an acquire cannot pair \
                             with another acquire",
                            r.file, r.line
                        ),
                    },
                });
            }
            if let (Some(rf), Some(af)) = (&r.field, &s.field) {
                if rf != af {
                    findings.push(FileFinding {
                        file: s.file.clone(),
                        finding: Finding {
                            line: s.line,
                            rule: Rule::PairField,
                            msg: format!(
                                "pair `{p}` spans different atomic fields: release \
                                 side touches `{rf}` ({}:{}), acquire side touches \
                                 `{af}` — a synchronizes-with edge needs one location",
                                r.file, r.line
                            ),
                        },
                    });
                }
            }
        }
    }
    findings.sort_by(|a, b| (&a.file, a.finding.line).cmp(&(&b.file, b.finding.line)));
    ContractResult { contract, findings }
}

// ---------------------------------------------------------------------
// SeqCst report
// ---------------------------------------------------------------------

/// One `SeqCst` site, for the advisory downgrade worklist.
#[derive(Clone, Debug)]
pub struct SeqCstSite {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the `SeqCst` mention.
    pub line: usize,
    /// Whether the statement carries an adjacent `// ordering:` comment
    /// documenting why it stays `SeqCst` (declared linearization
    /// points); undocumented sites are the downgrade candidates.
    pub documented: bool,
    /// The statement's first code line, trimmed.
    pub context: String,
}

/// List every `Ordering::SeqCst` site in audited, non-test code.
/// Advisory: the undocumented ones are candidates for a future
/// downgrade-and-campaign pass, not failures.
#[must_use]
pub fn seqcst_report(files: &[(String, String)]) -> Vec<SeqCstSite> {
    let mut out = Vec::new();
    for (rel, src) in files {
        let scope = Scope::of(rel);
        if !scope.audited() {
            continue;
        }
        let lines = split_lines(src);
        let excluded = cfg_test_lines(&lines);
        let mut seen = usize::MAX;
        for (l, line) in lines.iter().enumerate() {
            if excluded[l] || !line.code.contains("Ordering::SeqCst") {
                continue;
            }
            let (s, _) = statement_range(&lines, l);
            if s == seen {
                continue;
            }
            seen = s;
            // Context shows the statement's head line — for a multi-line
            // CAS the `Ordering::` line alone says nothing about the
            // atomic involved.
            let mut context = lines[s].code.trim().to_string();
            if context.len() > 90 {
                context.truncate(90);
                context.push('…');
            }
            out.push(SeqCstSite {
                file: rel.clone(),
                line: l + 1,
                documented: statement_has_marker(&lines, l, "ordering:"),
                context,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// JSON emission (hand-rolled, like everything else in this workspace)
// ---------------------------------------------------------------------

/// Escape `s` for inclusion in a JSON string literal.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_opt(s: &Option<String>) -> String {
    match s {
        Some(v) => format!("\"{}\"", json_escape(v)),
        None => "null".into(),
    }
}

fn json_list(items: &[String]) -> String {
    let inner: Vec<String> =
        items.iter().map(|i| format!("\"{}\"", json_escape(i))).collect();
    format!("[{}]", inner.join(", "))
}

/// The machine-readable contract table (`wf-lint --contract-json`).
#[must_use]
pub fn contract_json(c: &Contract) -> String {
    let mut out = String::from("{\n  \"files\": ");
    out.push_str(&json_list(&c.files));
    out.push_str(",\n  \"sites\": [\n");
    for (i, s) in c.sites.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"label\": {}, \"file\": \"{}\", \"line\": {}, \"start\": {}, \
             \"end\": {}, \"field\": {}, \"release\": {}, \"acquire\": {}, \
             \"no_edge\": {}, \"pairs\": {}}}{}\n",
            json_opt(&s.label),
            json_escape(&s.file),
            s.line,
            s.start,
            s.end,
            json_opt(&s.field),
            s.release,
            s.acquire,
            s.no_edge,
            json_list(&s.pairs),
            if i + 1 < c.sites.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Structured diagnostics (`wf-lint --json`): one object per finding.
#[must_use]
pub fn findings_json(findings: &[(String, Finding)]) -> String {
    let mut out = String::from("[\n");
    for (i, (file, f)) in findings.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"msg\": \"{}\"}}{}\n",
            f.rule,
            json_escape(file),
            f.line,
            json_escape(&f.msg),
            if i + 1 < findings.len() { "," } else { "" },
        ));
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(rel: &str, src: &str) -> Vec<(String, String)> {
        vec![(rel.to_string(), src.to_string())]
    }

    fn lint(rel: &str, src: &str) -> Vec<Finding> {
        crate::lint_source(rel, src)
    }

    fn rules(findings: &[Finding]) -> Vec<Rule> {
        findings.iter().map(|f| f.rule).collect()
    }

    // -- parsing ------------------------------------------------------

    #[test]
    fn groups_parse_and_prose_brackets_are_ignored() {
        let (ann, errs) = parse_annotation(&[
            "ordering: Release [site: m.pub] — see [10] and [Batty et al.]".into(),
        ]);
        assert!(errs.is_empty(), "{errs:?}");
        assert_eq!(ann.site.as_deref(), Some("m.pub"));
        assert!(ann.pairs.is_empty());
        assert!(!ann.no_edge);
    }

    #[test]
    fn combined_group_splits_on_semicolon() {
        let (ann, errs) =
            parse_annotation(&["ordering: AcqRel [site: m.cas; pairs: m.cas, m.other]".into()]);
        assert!(errs.is_empty(), "{errs:?}");
        assert_eq!(ann.site.as_deref(), Some("m.cas"));
        assert_eq!(ann.pairs, vec!["m.cas".to_string(), "m.other".to_string()]);
    }

    #[test]
    fn no_edge_and_multi_line_pairs_merge() {
        let (ann, errs) = parse_annotation(&[
            "ordering: Acquire [pairs: a.x]".into(),
            "continued [pairs: a.y] prose".into(),
        ]);
        assert!(errs.is_empty(), "{errs:?}");
        assert_eq!(ann.pairs, vec!["a.x".to_string(), "a.y".to_string()]);
        let (ann, _) = parse_annotation(&["ordering: Relaxed [no-edge] — counter".into()]);
        assert!(ann.no_edge);
    }

    #[test]
    fn bad_labels_and_duplicate_site_are_syntax_errors() {
        let (_, errs) = parse_annotation(&["x [site: has space]".into()]);
        assert_eq!(errs.len(), 1, "{errs:?}");
        let (_, errs) = parse_annotation(&["x [site: a] [site: b]".into()]);
        assert_eq!(errs.len(), 1, "{errs:?}");
        let (_, errs) = parse_annotation(&["x [pairs: ]".into()]);
        assert_eq!(errs.len(), 1, "{errs:?}");
    }

    // -- field extraction ---------------------------------------------

    #[test]
    fn field_extraction_wants_a_projection() {
        assert_eq!(atomic_field("self.hint.store(v, Ordering::Release);").as_deref(), Some("hint"));
        assert_eq!(
            atomic_field("seg.slots[i].load(Ordering::Acquire)").as_deref(),
            Some("slots")
        );
        assert_eq!(atomic_field("(*node).next.load(Ordering::Acquire)").as_deref(), Some("next"));
        assert_eq!(atomic_field("slot.load(Ordering::Acquire)"), None);
    }

    // -- per-statement lint -------------------------------------------

    #[test]
    fn weak_release_without_site_is_flagged() {
        let src = "fn f(a: &A) {\n    // ordering: Release — publishes the node.\n    a.x.store(1, Ordering::Release);\n}\n";
        let f = lint("crates/sync/src/m.rs", src);
        assert!(rules(&f).contains(&Rule::ContractAnnotation), "{f:?}");
    }

    #[test]
    fn weak_acquire_without_pairs_is_flagged() {
        let src = "fn f(a: &A) {\n    // ordering: Acquire — pairs with the install.\n    let v = a.x.load(Ordering::Acquire);\n}\n";
        let f = lint("crates/sync/src/m.rs", src);
        assert!(rules(&f).contains(&Rule::ContractAnnotation), "{f:?}");
    }

    #[test]
    fn relaxed_without_no_edge_is_flagged() {
        let src = "fn f(a: &A) {\n    // ordering: Relaxed — monotonic counter.\n    a.x.fetch_add(1, Ordering::Relaxed);\n}\n";
        let f = lint("crates/sync/src/m.rs", src);
        assert!(rules(&f).contains(&Rule::ContractAnnotation), "{f:?}");
    }

    #[test]
    fn complete_annotations_pass() {
        let src = concat!(
            "fn f(a: &A) {\n",
            "    // ordering: Release [site: m.pub] — publishes the node.\n",
            "    a.x.store(1, Ordering::Release);\n",
            "    // ordering: Acquire [pairs: m.pub] — sees the publish.\n",
            "    let v = a.x.load(Ordering::Acquire);\n",
            "    // ordering: Relaxed [no-edge] — stat counter only.\n",
            "    a.n.fetch_add(1, Ordering::Relaxed);\n",
            "}\n",
        );
        let f = lint("crates/sync/src/m.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn direction_mismatches_are_flagged() {
        // `site:` on a pure load, `pairs:` on a pure store, `no-edge`
        // on a release.
        let src = concat!(
            "fn f(a: &A) {\n",
            "    // ordering: Acquire [site: m.bad; pairs: m.bad] — wrong side.\n",
            "    let v = a.x.load(Ordering::Acquire);\n",
            "    // ordering: Release [site: m.ok; pairs: m.ok] — wrong side.\n",
            "    a.x.store(1, Ordering::Release);\n",
            "    // ordering: Release [no-edge] — contradiction.\n",
            "    a.y.store(1, Ordering::Release);\n",
            "    // ordering: Acquire [no-edge] — defensive acquire: legal,\n",
            "    // and the dynamic pass enforces the no-edge claim.\n",
            "    let w = a.z.load(Ordering::Acquire);\n",
            "}\n",
        );
        let f = lint("crates/sync/src/m.rs", src);
        let dirs = rules(&f).iter().filter(|r| **r == Rule::ContractDirection).count();
        assert_eq!(dirs, 3, "{f:?}");
        assert!(!f.iter().any(|fd| fd.line > 7), "defensive acquire no-edge is clean: {f:?}");
    }

    #[test]
    fn bare_seqcst_statement_needs_nothing() {
        let src = "fn f(a: &A) {\n    let v = a.x.load(Ordering::SeqCst);\n}\n";
        let f = lint("crates/sync/src/m.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn annotated_seqcst_site_is_legal_and_extracted() {
        let src = concat!(
            "fn f(a: &A) {\n",
            "    // ordering: SeqCst [site: m.decide; pairs: m.decide] — linearization point.\n",
            "    let _ = a.x.compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst);\n",
            "}\n",
        );
        let f = lint("crates/sync/src/m.rs", src);
        assert!(f.is_empty(), "{f:?}");
        let r = extract_contract(&one("crates/sync/src/m.rs", src));
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.contract.sites.len(), 1);
        assert!(r.contract.sites[0].release && r.contract.sites[0].acquire);
    }

    // -- cross-file pass ----------------------------------------------

    #[test]
    fn unresolved_pair_is_flagged() {
        let src = concat!(
            "fn f(a: &A) {\n",
            "    // ordering: Acquire [pairs: m.missing] — dangling.\n",
            "    let v = a.x.load(Ordering::Acquire);\n",
            "}\n",
        );
        let r = extract_contract(&one("crates/sync/src/m.rs", src));
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].finding.rule, Rule::UnresolvedPair);
    }

    #[test]
    fn duplicate_label_is_flagged_at_second_decl() {
        let a = concat!(
            "fn f(a: &A) {\n",
            "    // ordering: Release [site: m.pub] — first.\n",
            "    a.x.store(1, Ordering::Release);\n",
            "}\n",
        );
        let b = concat!(
            "fn g(a: &A) {\n",
            "    // ordering: Release [site: m.pub] — second.\n",
            "    a.x.store(2, Ordering::Release);\n",
            "}\n",
        );
        let files = vec![
            ("crates/sync/src/a.rs".to_string(), a.to_string()),
            ("crates/sync/src/b.rs".to_string(), b.to_string()),
        ];
        let r = extract_contract(&files);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].finding.rule, Rule::DuplicateLabel);
        assert_eq!(r.findings[0].file, "crates/sync/src/b.rs");
    }

    #[test]
    fn pairing_with_a_non_release_site_is_a_direction_error() {
        let src = concat!(
            "fn f(a: &A) {\n",
            "    // ordering: Acquire [site: m.acq2; pairs: m.acq] — label on the wrong side;\n",
            "    // the per-file pass flags the site, the graph flags the reference.\n",
            "    let v = a.x.load(Ordering::Acquire);\n",
            "    // ordering: Acquire [site: m.acq; pairs: m.acq2] — also wrong.\n",
            "    let w = a.x.load(Ordering::Acquire);\n",
            "}\n",
        );
        let r = extract_contract(&one("crates/sync/src/m.rs", src));
        let dirs = r
            .findings
            .iter()
            .filter(|f| f.finding.rule == Rule::ContractDirection)
            .count();
        assert_eq!(dirs, 2, "{:?}", r.findings);
    }

    #[test]
    fn cross_field_pair_is_flagged() {
        let src = concat!(
            "fn f(a: &A) {\n",
            "    // ordering: Release [site: m.pub] — publishes via `x`.\n",
            "    a.x.store(1, Ordering::Release);\n",
            "    // ordering: Acquire [pairs: m.pub] — but reads `y`.\n",
            "    let v = a.y.load(Ordering::Acquire);\n",
            "}\n",
        );
        let r = extract_contract(&one("crates/sync/src/m.rs", src));
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].finding.rule, Rule::PairField);
    }

    #[test]
    fn bare_local_receiver_skips_the_field_check() {
        let src = concat!(
            "fn f(a: &A) {\n",
            "    // ordering: Release [site: m.pub] — publishes via `x`.\n",
            "    a.x.store(1, Ordering::Release);\n",
            "    // ordering: Acquire [pairs: m.pub] — receiver is a local.\n",
            "    let v = slot.load(Ordering::Acquire);\n",
            "}\n",
        );
        let r = extract_contract(&one("crates/sync/src/m.rs", src));
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn tests_and_sched_files_are_not_extracted() {
        let src = concat!(
            "fn f(a: &A) {\n",
            "    a.x.store(1, Ordering::Release);\n",
            "}\n",
        );
        let files = vec![
            ("crates/sched/src/m.rs".to_string(), src.to_string()),
            ("tests/m.rs".to_string(), src.to_string()),
        ];
        let r = extract_contract(&files);
        assert!(r.contract.files.is_empty());
        assert!(r.contract.sites.is_empty());
    }

    #[test]
    fn declared_pairs_and_site_at_resolve() {
        let src = concat!(
            "fn f(a: &A) {\n",
            "    // ordering: Release [site: m.pub] — publishes.\n",
            "    a.x.store(1, Ordering::Release);\n",
            "    // ordering: Acquire [pairs: m.pub] — reads.\n",
            "    let v = a.x.load(Ordering::Acquire);\n",
            "}\n",
        );
        let r = extract_contract(&one("crates/sync/src/m.rs", src));
        let pairs = r.contract.declared_pairs();
        assert_eq!(pairs.len(), 1);
        let (rel, acq) = pairs.iter().next().unwrap();
        assert_eq!(rel, "m.pub");
        assert_eq!(acq, "crates/sync/src/m.rs:5");
        // `file!()`-style absolute-ish paths match by suffix.
        let s = r.contract.site_at("crates/sync/src/m.rs", 3).unwrap();
        assert_eq!(s.label.as_deref(), Some("m.pub"));
        assert!(r.contract.site_at("crates/sync/src/m.rs", 1).is_none());
    }

    // -- seqcst report ------------------------------------------------

    #[test]
    fn seqcst_report_distinguishes_documented_sites() {
        let src = concat!(
            "fn f(a: &A) {\n",
            "    // ordering: SeqCst [site: m.decide; pairs: m.decide] — linearization point.\n",
            "    let _ = a.x.compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst);\n",
            "    let v = a.y.load(Ordering::SeqCst);\n",
            "}\n",
        );
        let r = seqcst_report(&one("crates/sync/src/m.rs", src));
        assert_eq!(r.len(), 2, "{r:?}");
        assert!(r[0].documented);
        assert!(!r[1].documented);
        assert_eq!(r[1].line, 4);
    }

    // -- json ---------------------------------------------------------

    #[test]
    fn json_emitters_escape_and_shape() {
        let src = concat!(
            "fn f(a: &A) {\n",
            "    // ordering: Release [site: m.pub] — publishes.\n",
            "    a.x.store(1, Ordering::Release);\n",
            "}\n",
        );
        let r = extract_contract(&one("crates/sync/src/m.rs", src));
        let js = contract_json(&r.contract);
        assert!(js.contains("\"label\": \"m.pub\""), "{js}");
        assert!(js.contains("\"field\": \"x\""), "{js}");
        let fj = findings_json(&[(
            "crates/sync/src/m.rs".to_string(),
            Finding { line: 7, rule: Rule::UnresolvedPair, msg: "a \"quoted\" msg".into() },
        )]);
        assert!(fj.contains("\"rule\": \"unresolved-pair\""), "{fj}");
        assert!(fj.contains("\\\"quoted\\\""), "{fj}");
    }
}
