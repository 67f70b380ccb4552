//! Static ordering-audit lint over the workspace's Rust sources — the
//! `wf-lint` binary and the line scanner behind it.
//!
//! Four rules, each encoding an invariant the rest of the workspace
//! relies on but the compiler cannot check:
//!
//! 1. **Ordering audit** — every atomic operation that names a
//!    non-`SeqCst` ordering (`Relaxed`, `Acquire`, `Release`, `AcqRel`)
//!    must carry an adjacent `// ordering:` comment justifying the
//!    happens-before edge it provides (or deliberately gives up). The
//!    dynamic complement is `waitfree_sched::hb`, which replays recorded
//!    schedules and checks that the *declared* orderings really do
//!    justify every observed value; this rule makes sure each declared
//!    ordering also has a written-down argument a reviewer can audit.
//! 2. **Orphaned audit** — the converse: a comment *formatted as* an
//!    audit (its text starts with `ordering:`) must sit adjacent to a
//!    statement that actually names an `Ordering::`. When a refactor
//!    deletes or moves an atomic and leaves its justification behind,
//!    the stale prose would otherwise keep "covering" whatever code
//!    drifts into its place — a reviewer trusts audit comments precisely
//!    because this rule makes them fail CI when they dangle.
//! 3. **Facade bypass** — no `std::sync::atomic`, `core::sync::atomic`
//!    or `std::thread` in code outside `crates/sched/src/`. All atomics
//!    and threads must go through the `waitfree_sched` facade
//!    (including its `atomic::diag` module for instrumentation-plane
//!    state), or the deterministic scheduler silently loses schedule
//!    points and the recorded traces lie. The `core::` path matters for
//!    arena/epoch-style code: `std::sync::atomic` is itself a re-export
//!    of `core::sync::atomic`, so reaching for the `core` spelling is
//!    the same bypass wearing a no-`std` costume.
//! 4. **Bench timing** — inside `crates/bench/`, `Instant::now` is
//!    allowed only in `src/timing.rs`. Timed regions must flow through
//!    the timing harness so warm-up, batching and medians stay uniform;
//!    a stray `Instant::now` in a bench body is usually an accounting
//!    bug (it was, once — see the PR that rebuilt the bench accounting).
//!
//! The scanner is hand-rolled (no `syn`, no regex crate) because the
//! workspace is deliberately dependency-free. It splits each physical
//! line into a *code* part — with string-literal contents blanked — and
//! a *comment* part, which is exact enough for the three rules above:
//! rule patterns match only real code, and audit comments are read from
//! the comment channel.
//!
//! # What counts as "adjacent" for rule 1
//!
//! The `ordering:` comment may sit on any line of the statement that
//! names the ordering (trailing comments included), or in the
//! comment block immediately above the statement (attributes such as
//! `#[cfg(...)]` may intervene). A statement's first line is found by
//! walking upward while the previous line is code that does not end in
//! `;`, `{` or `}` — so a multi-line `compare_exchange(...)` call is
//! covered by one comment above the call, and a CAS's success and
//! failure orderings share that comment.
//!
//! # Scope
//!
//! Rules 1 and 2 skip test code (`tests/`, `benches/`, `examples/`
//! directories and `#[cfg(test)]` modules): tests pin orderings for
//! scenarios, they do not promise edges. Rules 1–3 skip
//! `crates/sched/src/` wholesale — the facade and the happens-before
//! checker manipulate `Ordering` values as *data* and own the one
//! sanctioned `std` boundary. Rule 3 applies everywhere else,
//! including tests: a test on raw `std::thread` cannot be replayed
//! under the scheduler. Rule 2 recognizes an audit comment only when
//! its text *starts with* `ordering:` — doc comments that merely
//! mention the `// ordering:` convention (their comment text starts
//! with `!` or `/`) are prose, not dangling audits.

use std::fmt;

pub mod contract;

// ---------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------

/// Which lint rule produced a finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// Non-`SeqCst` ordering without an adjacent `// ordering:` comment.
    OrderingAudit,
    /// An `// ordering:` audit comment adjacent to no atomic operation.
    OrphanedAudit,
    /// Raw `std::sync::atomic` / `core::sync::atomic` / `std::thread`
    /// outside the facade.
    FacadeBypass,
    /// `Instant::now` inside `crates/bench/` outside `src/timing.rs`.
    BenchTiming,
    /// Malformed contract group inside an `// ordering:` comment
    /// (bad label, empty `pairs:`, unknown key).
    ContractSyntax,
    /// An audited atomic statement whose comment lacks the contract
    /// group its orderings require (`[site: …]` / `[pairs: …]` /
    /// `[no-edge]`).
    ContractAnnotation,
    /// A contract group that contradicts the statement's orderings
    /// (e.g. `[site: …]` on an acquire-only statement).
    ContractDirection,
    /// The same `site:` label declared by two different statements.
    DuplicateLabel,
    /// A `pairs:` reference naming a label no site declares.
    UnresolvedPair,
    /// A declared pair whose release and acquire sides touch different
    /// atomic fields.
    PairField,
    /// A `loop`/`while` in `crates/sync`/`crates/store` non-test code
    /// without an adjacent `// progress:` annotation.
    ProgressAnnotation,
    /// A `// progress:` annotation adjacent to no `loop`/`while`.
    OrphanedProgress,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Rule::OrderingAudit => "ordering-audit",
            Rule::OrphanedAudit => "orphaned-audit",
            Rule::FacadeBypass => "facade-bypass",
            Rule::BenchTiming => "bench-timing",
            Rule::ContractSyntax => "contract-syntax",
            Rule::ContractAnnotation => "contract-annotation",
            Rule::ContractDirection => "contract-direction",
            Rule::DuplicateLabel => "duplicate-label",
            Rule::UnresolvedPair => "unresolved-pair",
            Rule::PairField => "pair-field",
            Rule::ProgressAnnotation => "progress-annotation",
            Rule::OrphanedProgress => "orphaned-progress",
        })
    }
}

/// One lint finding: a rule violated at a line of a file.
#[derive(Clone, Debug)]
pub struct Finding {
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.rule, self.msg)
    }
}

// ---------------------------------------------------------------------
// Source splitting: code vs comment, strings blanked
// ---------------------------------------------------------------------

/// One physical line, split into its code part (string-literal contents
/// replaced by spaces) and its comment part (text of `//` and `/* */`
/// comments on that line, delimiters stripped).
#[derive(Clone, Debug, Default)]
pub struct Line {
    /// Code on this line with string contents blanked.
    pub code: String,
    /// Comment text on this line.
    pub comment: String,
}

/// Split `src` into [`Line`]s, classifying every character as code,
/// comment or string content. Handles nested block comments, string
/// escapes, raw strings (`r"…"`, `r#"…"#`), byte strings and char
/// literals vs lifetimes.
#[must_use]
pub fn split_lines(src: &str) -> Vec<Line> {
    let b: Vec<char> = src.chars().collect();
    let mut lines = Vec::new();
    let mut cur = Line::default();
    let mut i = 0;
    // Nesting depth of `/* */` (Rust block comments nest).
    let mut block = 0usize;

    macro_rules! newline {
        () => {
            lines.push(std::mem::take(&mut cur))
        };
    }

    while i < b.len() {
        let c = b[i];
        if c == '\n' {
            newline!();
            i += 1;
            continue;
        }
        if block > 0 {
            if c == '/' && b.get(i + 1) == Some(&'*') {
                block += 1;
                i += 2;
            } else if c == '*' && b.get(i + 1) == Some(&'/') {
                block -= 1;
                i += 2;
            } else {
                cur.comment.push(c);
                i += 1;
            }
            continue;
        }
        match c {
            '/' if b.get(i + 1) == Some(&'/') => {
                i += 2;
                while i < b.len() && b[i] != '\n' {
                    cur.comment.push(b[i]);
                    i += 1;
                }
            }
            '/' if b.get(i + 1) == Some(&'*') => {
                block = 1;
                i += 2;
            }
            '"' => {
                cur.code.push('"');
                i += 1;
                while i < b.len() {
                    match b[i] {
                        '\\' => {
                            // Escape: consume the next char too, unless it
                            // is a line-continuation newline.
                            if b.get(i + 1) == Some(&'\n') {
                                i += 1;
                            } else {
                                cur.code.push(' ');
                                i += 2;
                            }
                        }
                        '"' => {
                            cur.code.push('"');
                            i += 1;
                            break;
                        }
                        '\n' => {
                            newline!();
                            i += 1;
                        }
                        _ => {
                            cur.code.push(' ');
                            i += 1;
                        }
                    }
                }
            }
            'r' if !prev_is_ident(&b, i)
                && raw_string_hashes(&b, i).is_some() =>
            {
                let hashes = raw_string_hashes(&b, i).unwrap();
                cur.code.push('r');
                i += 1 + hashes + 1; // r, #*, opening quote
                cur.code.push('"');
                // Scan for `"` followed by `hashes` `#`s.
                loop {
                    if i >= b.len() {
                        break;
                    }
                    if b[i] == '\n' {
                        newline!();
                        i += 1;
                        continue;
                    }
                    if b[i] == '"' && (0..hashes).all(|k| b.get(i + 1 + k) == Some(&'#')) {
                        cur.code.push('"');
                        i += 1 + hashes;
                        break;
                    }
                    cur.code.push(' ');
                    i += 1;
                }
            }
            '\'' => {
                // Char literal or lifetime. A lifetime is `'ident` not
                // closed by a quote; a char literal closes within a few
                // chars (or starts with an escape).
                if b.get(i + 1) == Some(&'\\') {
                    cur.code.push('\'');
                    i += 2;
                    while i < b.len() && b[i] != '\'' {
                        cur.code.push(' ');
                        i += 1;
                    }
                    cur.code.push('\'');
                    i += 1;
                } else if b.get(i + 2) == Some(&'\'') && b.get(i + 1) != Some(&'\'') {
                    cur.code.push_str("' '");
                    i += 3;
                } else {
                    // Lifetime (or stray quote): keep as code.
                    cur.code.push('\'');
                    i += 1;
                }
            }
            _ => {
                cur.code.push(c);
                i += 1;
            }
        }
    }
    if !cur.code.is_empty() || !cur.comment.is_empty() {
        lines.push(cur);
    }
    lines
}

/// Whether the char before `i` continues an identifier (so `b[i] == 'r'`
/// is the tail of a name like `var`, not a raw-string prefix).
fn prev_is_ident(b: &[char], i: usize) -> bool {
    i > 0 && (b[i - 1].is_alphanumeric() || b[i - 1] == '_')
}

/// If `b[i..]` starts a raw string `r#*"`, the number of `#`s.
fn raw_string_hashes(b: &[char], i: usize) -> Option<usize> {
    debug_assert_eq!(b[i], 'r');
    let mut k = i + 1;
    let mut hashes = 0;
    while b.get(k) == Some(&'#') {
        hashes += 1;
        k += 1;
    }
    (b.get(k) == Some(&'"')).then_some(hashes)
}

// ---------------------------------------------------------------------
// cfg(test) block detection
// ---------------------------------------------------------------------

/// Mark the lines covered by `#[cfg(test)]` (or `#[cfg(all(test, …))]`)
/// items, by brace-matching from the attribute's first `{`.
#[must_use]
pub fn cfg_test_lines(lines: &[Line]) -> Vec<bool> {
    let mut excluded = vec![false; lines.len()];
    let mut l = 0;
    while l < lines.len() {
        let code = &lines[l].code;
        if code.contains("#[cfg(test)]") || code.contains("#[cfg(all(test") {
            // Find the first `{` at or after the attribute and match it.
            let mut depth = 0i32;
            let mut opened = false;
            let mut m = l;
            'outer: while m < lines.len() {
                excluded[m] = true;
                for ch in lines[m].code.chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => {
                            depth -= 1;
                            if opened && depth == 0 {
                                break 'outer;
                            }
                        }
                        _ => {}
                    }
                }
                m += 1;
            }
            l = m + 1;
        } else {
            l += 1;
        }
    }
    excluded
}

// ---------------------------------------------------------------------
// The rules
// ---------------------------------------------------------------------

/// Where a file sits in the workspace, for rule scoping. Derived from
/// the `/`-separated path relative to the workspace root.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Scope<'a> {
    pub(crate) rel: &'a str,
    /// Inside the facade implementation (`crates/sched/src/`).
    pub(crate) sched_src: bool,
    /// In a `tests/`, `benches/` or `examples/` directory.
    pub(crate) test_dir: bool,
    /// Inside `crates/bench/`.
    pub(crate) bench_crate: bool,
    /// Subject to the progress lint (`crates/sync/src/`,
    /// `crates/store/src/`).
    pub(crate) progress_crate: bool,
}

impl<'a> Scope<'a> {
    pub(crate) fn of(rel: &'a str) -> Scope<'a> {
        let in_dir = |d: &str| {
            rel.starts_with(&format!("{d}/")) || rel.contains(&format!("/{d}/"))
        };
        Scope {
            rel,
            sched_src: rel.starts_with("crates/sched/src/"),
            test_dir: in_dir("tests") || in_dir("benches") || in_dir("examples"),
            bench_crate: rel.starts_with("crates/bench/"),
            progress_crate: rel.starts_with("crates/sync/src/")
                || rel.starts_with("crates/store/src/"),
        }
    }

    /// Whether the ordering-audit family of rules (1, 2 and the
    /// contract checks) applies to this file at all.
    pub(crate) fn audited(&self) -> bool {
        !self.sched_src && !self.test_dir
    }
}

const WEAK_ORDERINGS: [&str; 4] = [
    "Ordering::Relaxed",
    "Ordering::Acquire",
    "Ordering::Release",
    "Ordering::AcqRel",
];

/// Lint one file's source. `rel_path` is `/`-separated and relative to
/// the workspace root (e.g. `crates/sync/src/universal/decide.rs`).
///
/// This covers every *single-file* rule, including the per-statement
/// contract checks (syntax, required groups, direction) and the
/// progress lint. The cross-file half of the contract — duplicate
/// labels, unresolved `pairs:` references, per-pair field agreement —
/// lives in [`contract::extract_contract`], which `wf-lint` runs over
/// the whole workspace after the per-file pass.
#[must_use]
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let scope = Scope::of(rel_path);
    let lines = split_lines(src);
    let mut findings = Vec::new();

    facade_bypass(&scope, &lines, &mut findings);
    bench_timing(&scope, &lines, &mut findings);
    ordering_audit(&scope, &lines, &mut findings);
    orphaned_audit(&scope, &lines, &mut findings);
    contract::annotation_lint(&scope, &lines, &mut findings);
    progress_lint(&scope, &lines, &mut findings);
    orphaned_progress(&scope, &lines, &mut findings);

    findings.sort_by_key(|f| f.line);
    findings
}

fn facade_bypass(scope: &Scope<'_>, lines: &[Line], out: &mut Vec<Finding>) {
    if scope.sched_src {
        return;
    }
    for (l, line) in lines.iter().enumerate() {
        for pat in ["std::sync::atomic", "core::sync::atomic", "std::thread"] {
            if line.code.contains(pat) {
                out.push(Finding {
                    line: l + 1,
                    rule: Rule::FacadeBypass,
                    msg: format!(
                        "raw `{pat}` bypasses the waitfree_sched facade; use \
                         `waitfree_sched::atomic` / `waitfree_sched::thread` \
                         (or `atomic::diag` for instrumentation-plane state)"
                    ),
                });
            }
        }
    }
}

fn bench_timing(scope: &Scope<'_>, lines: &[Line], out: &mut Vec<Finding>) {
    if !scope.bench_crate || scope.rel == "crates/bench/src/timing.rs" {
        return;
    }
    for (l, line) in lines.iter().enumerate() {
        if line.code.contains("Instant::now") {
            out.push(Finding {
                line: l + 1,
                rule: Rule::BenchTiming,
                msg: "`Instant::now` outside src/timing.rs: route timed regions \
                      through waitfree_bench::timing so warm-up, batching and \
                      medians stay uniform"
                    .into(),
            });
        }
    }
}

fn ordering_audit(scope: &Scope<'_>, lines: &[Line], out: &mut Vec<Finding>) {
    if scope.sched_src || scope.test_dir {
        return;
    }
    let excluded = cfg_test_lines(lines);
    for (l, line) in lines.iter().enumerate() {
        if excluded[l] {
            continue;
        }
        let weak: Vec<&str> = WEAK_ORDERINGS
            .iter()
            .copied()
            .filter(|o| line.code.contains(o))
            .collect();
        if weak.is_empty() {
            continue;
        }
        if !statement_has_audit(lines, l) {
            out.push(Finding {
                line: l + 1,
                rule: Rule::OrderingAudit,
                msg: format!(
                    "{} without an adjacent `// ordering:` comment justifying \
                     the happens-before edge",
                    weak.join(" / ")
                ),
            });
        }
    }
}

/// The `[start, end]` line range of the statement containing line `l`.
///
/// First line: walk up while the previous line is code that does not
/// close a statement. A trailing `{` does *not* close one here —
/// `if x.compare_exchange(… {` spreads a single condition over an
/// opener line, and an audit comment sits above the whole construct.
/// Last line: walk down to the first line ending in `;`, `{` or `}`.
pub(crate) fn statement_range(lines: &[Line], l: usize) -> (usize, usize) {
    let ends_stmt = |code: &str| {
        matches!(code.trim_end().chars().last(), Some(';' | '{' | '}'))
    };
    let closes_above = |code: &str| {
        matches!(code.trim_end().chars().last(), Some(';' | '}'))
    };
    let mut s = l;
    while s > 0 {
        let prev = &lines[s - 1];
        if prev.code.trim().is_empty() || closes_above(&prev.code) {
            break;
        }
        s -= 1;
    }
    let mut e = l;
    while e + 1 < lines.len() && !ends_stmt(&lines[e].code) {
        // A comment-only line splits a multi-line statement into
        // fragments, symmetric with the upward walk: each fragment
        // owns the comment block directly above it (the Debug-chain
        // idiom, where one long method chain holds several annotated
        // atomic loads).
        if lines[e + 1].code.trim().is_empty() {
            break;
        }
        e += 1;
    }
    (s, e)
}

/// Whether the statement containing line `l` carries an `ordering:`
/// audit comment — on any of its own lines, or in the comment block
/// immediately above its first line.
fn statement_has_audit(lines: &[Line], l: usize) -> bool {
    statement_has_marker(lines, l, "ordering:")
}

/// [`statement_has_audit`] for an arbitrary marker (`ordering:`,
/// `progress:`): the same adjacency convention serves both comment
/// families.
pub(crate) fn statement_has_marker(lines: &[Line], l: usize, marker: &str) -> bool {
    let (s, e) = statement_range(lines, l);
    if lines[s..=e].iter().any(|ln| ln.comment.contains(marker)) {
        return true;
    }
    // Comment block immediately above the statement.
    let mut a = s;
    while a > 0 {
        let above = &lines[a - 1];
        if above.code.trim().is_empty() && !above.comment.trim().is_empty() {
            if above.comment.contains(marker) {
                return true;
            }
            a -= 1;
        } else {
            break;
        }
    }
    false
}

/// The comment text adjacent to the statement containing line `l`:
/// the comment block immediately above the statement (top to bottom),
/// then the statement's own lines' comments — one string per comment
/// line. Contract groups are parsed out of these.
pub(crate) fn adjacent_comment_lines(lines: &[Line], l: usize) -> Vec<String> {
    let (s, e) = statement_range(lines, l);
    let mut a = s;
    while a > 0 {
        let above = &lines[a - 1];
        if above.code.trim().is_empty() && !above.comment.trim().is_empty() {
            a -= 1;
        } else {
            break;
        }
    }
    lines[a..s]
        .iter()
        .chain(lines[s..=e].iter())
        .filter(|ln| !ln.comment.trim().is_empty())
        .map(|ln| ln.comment.clone())
        .collect()
}

/// Whether `code` contains `word` as a standalone keyword (not as part
/// of a longer identifier such as `loop_count`).
pub(crate) fn has_keyword(code: &str, word: &str) -> bool {
    let bytes = code.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let after = at + word.len();
        let after_ok = after >= bytes.len() || !is_ident(bytes[after]);
        if before_ok && after_ok {
            return true;
        }
        start = at + word.len();
    }
    false
}

/// Whether this line of code opens a `loop` or `while` (the constructs
/// the progress lint covers; `for` iterates a finite iterator and is
/// structurally bounded).
fn opens_loop(code: &str) -> bool {
    has_keyword(code, "loop") || has_keyword(code, "while")
}

/// Rule: every `loop`/`while` in `crates/sync`/`crates/store` non-test
/// code carries an adjacent `// progress:` annotation classifying its
/// termination argument (`wait-free: …` / `lock-free: …` /
/// `bounded: …`), with the same statement-aware adjacency as the
/// ordering audit.
fn progress_lint(scope: &Scope<'_>, lines: &[Line], out: &mut Vec<Finding>) {
    if !scope.progress_crate || scope.test_dir {
        return;
    }
    let excluded = cfg_test_lines(lines);
    let mut seen_stmt = usize::MAX;
    for (l, line) in lines.iter().enumerate() {
        if excluded[l] || !opens_loop(&line.code) {
            continue;
        }
        // One finding per loop header, even when a multi-line `while`
        // condition mentions the keyword's statement across lines.
        let (s, _) = statement_range(lines, l);
        if s == seen_stmt {
            continue;
        }
        seen_stmt = s;
        if !statement_has_marker(lines, l, "progress:") {
            out.push(Finding {
                line: l + 1,
                rule: Rule::ProgressAnnotation,
                msg: "`loop`/`while` without an adjacent `// progress:` \
                      annotation (`wait-free: …` / `lock-free: …` / \
                      `bounded: …`) stating why it terminates"
                    .into(),
            });
            continue;
        }
        // The annotation must classify the loop, not merely exist.
        let classified = adjacent_comment_lines(lines, l).iter().any(|c| {
            c.find("progress:").is_some_and(|at| {
                let rest = c[at + "progress:".len()..].trim_start();
                ["wait-free", "lock-free", "bounded"].iter().any(|k| rest.starts_with(k))
            })
        });
        if !classified {
            out.push(Finding {
                line: l + 1,
                rule: Rule::ProgressAnnotation,
                msg: "`// progress:` annotation must start with one of \
                      `wait-free:`, `lock-free:` or `bounded:`"
                    .into(),
            });
        }
    }
}

/// Rule: a comment formatted as a progress annotation must sit adjacent
/// to a `loop`/`while` — the mirror of the orphaned-audit rule, so a
/// refactor that deletes a loop cannot leave its termination argument
/// covering unrelated code.
fn orphaned_progress(scope: &Scope<'_>, lines: &[Line], out: &mut Vec<Finding>) {
    if !scope.progress_crate || scope.test_dir {
        return;
    }
    let excluded = cfg_test_lines(lines);
    for (l, line) in lines.iter().enumerate() {
        if excluded[l] || !line.comment.trim_start().starts_with("progress:") {
            continue;
        }
        // Annotating a `for` loop is voluntary (the lint does not
        // require it) but legal — it must not read as an orphan.
        let covered = marker_covers(lines, l, |code| opens_loop(code) || has_keyword(code, "for"));
        if !covered {
            out.push(Finding {
                line: l + 1,
                rule: Rule::OrphanedProgress,
                msg: "`// progress:` annotation adjacent to no `loop`/`while` — \
                      the loop it classified was moved or deleted; move or \
                      delete the annotation with it"
                    .into(),
            });
        }
    }
}

/// Whether the marker comment at line `l` (trailing or standalone) is
/// adjacent to a statement satisfying `pred` — the shared coverage walk
/// behind the two orphan rules.
fn marker_covers(lines: &[Line], l: usize, pred: impl Fn(&str) -> bool) -> bool {
    if !lines[l].code.trim().is_empty() {
        // Trailing marker: its own statement must satisfy the predicate.
        let (s, e) = statement_range(lines, l);
        return lines[s..=e].iter().any(|ln| pred(&ln.code));
    }
    // Standalone marker (possibly a multi-line comment block, possibly
    // with attributes between it and the code): the statement starting
    // at the next code line must satisfy it. A blank line below breaks
    // adjacency.
    let mut n = l + 1;
    while n < lines.len()
        && ((lines[n].code.trim().is_empty() && !lines[n].comment.trim().is_empty())
            || lines[n].code.trim_start().starts_with("#["))
    {
        n += 1;
    }
    n < lines.len() && !lines[n].code.trim().is_empty() && {
        // Extend downward through `{` openers, mirroring the upward
        // walk in `statement_range`.
        let continues = |code: &str| {
            !matches!(code.trim_end().chars().last(), Some(';' | '}'))
        };
        let mut e = n;
        while e + 1 < lines.len() && continues(&lines[e].code) {
            e += 1;
        }
        lines[n..=e].iter().any(|ln| pred(&ln.code))
    }
}

fn orphaned_audit(scope: &Scope<'_>, lines: &[Line], out: &mut Vec<Finding>) {
    if scope.sched_src || scope.test_dir {
        return;
    }
    let excluded = cfg_test_lines(lines);
    for (l, line) in lines.iter().enumerate() {
        // Only comments *formatted as* audits: text starting with
        // `ordering:`. Doc comments (`//!`, `///`) quoting the
        // convention yield comment text starting with `!` or `/`.
        if excluded[l] || !line.comment.trim_start().starts_with("ordering:") {
            continue;
        }
        // Trailing audits must share a statement naming an ordering;
        // standalone audits (with attributes allowed in between, and the
        // downward walk extending through `{` openers — an audit above
        // `if unsafe {` covers the CAS inside the braces) must sit on
        // one. A blank line below breaks adjacency, exactly as it does
        // for the ordering-audit rule above.
        let covered = marker_covers(lines, l, |code| code.contains("Ordering::"));
        if !covered {
            out.push(Finding {
                line: l + 1,
                rule: Rule::OrphanedAudit,
                msg: "`// ordering:` audit comment adjacent to no atomic operation — \
                      the op it justified was moved or deleted; move or delete the \
                      audit with it"
                    .into(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find(rel: &str, src: &str) -> Vec<Finding> {
        lint_source(rel, src)
    }

    // -- scanner ------------------------------------------------------

    #[test]
    fn strings_and_comments_are_separated() {
        let lines = split_lines(
            "let x = \"std::thread\"; // std::thread in a comment\nload(Ordering::Relaxed);\n",
        );
        assert_eq!(lines.len(), 2);
        assert!(!lines[0].code.contains("std::thread"), "{:?}", lines[0]);
        assert!(lines[0].comment.contains("std::thread"));
        assert!(lines[1].code.contains("Ordering::Relaxed"));
    }

    #[test]
    fn nested_block_comments_and_raw_strings() {
        let lines = split_lines(
            "/* outer /* inner */ still comment */ code();\nlet r = r#\"Ordering::Relaxed\"#;\n",
        );
        assert!(lines[0].code.contains("code()"));
        assert!(lines[0].comment.contains("still comment"));
        assert!(!lines[1].code.contains("Ordering::Relaxed"));
    }

    #[test]
    fn char_literals_and_lifetimes_do_not_derail_the_scanner() {
        let lines = split_lines(
            "fn f<'a>(x: &'a str) -> char { let q = '\"'; let n = '\\n'; q }\nOrdering::Relaxed\n",
        );
        assert!(lines[0].code.contains("fn f<'a>"));
        // The quote char literal must not open a string that swallows
        // the next line.
        assert!(lines[1].code.contains("Ordering::Relaxed"));
    }

    #[test]
    fn multiline_strings_keep_line_numbers() {
        let lines = split_lines("let s = \"a\nstd::thread\nb\";\nafter();\n");
        assert_eq!(lines.len(), 4);
        assert!(!lines[1].code.contains("std::thread"));
        assert!(lines[3].code.contains("after()"));
    }

    // -- rule 1: ordering audit --------------------------------------

    #[test]
    fn uncommented_weak_ordering_is_flagged() {
        let f = find(
            "crates/sync/src/x.rs",
            "fn f(a: &AtomicUsize) {\n    a.load(Ordering::Acquire);\n}\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::OrderingAudit);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn trailing_and_preceding_audit_comments_cover_the_op() {
        let src = "fn f(a: &AtomicUsize) {\n\
                   \x20   a.load(Ordering::Acquire); // ordering: Acquire [pairs: x.pub]\n\
                   \x20   // ordering: Release [site: x.pub] — publishes Y\n\
                   \x20   a.store(1, Ordering::Release);\n\
                   }\n";
        assert!(find("crates/sync/src/x.rs", src).is_empty());
    }

    #[test]
    fn one_comment_covers_a_multiline_cas_and_its_failure_ordering() {
        let src = "fn f(a: &AtomicUsize) {\n\
                   \x20   // ordering: Release on success [site: x.z] — publish Z\n\
                   \x20   let _ = a.compare_exchange(\n\
                   \x20       0,\n\
                   \x20       1,\n\
                   \x20       Ordering::Release,\n\
                   \x20       Ordering::Relaxed,\n\
                   \x20   );\n\
                   }\n";
        assert!(find("crates/sync/src/x.rs", src).is_empty());
    }

    #[test]
    fn a_comment_above_an_if_unsafe_opener_covers_the_cas_inside() {
        let src = "fn f(t: *mut Node) {\n\
                   \x20   // ordering: Release on success [site: x.link] — publishes the link\n\
                   \x20   if unsafe {\n\
                   \x20       (*t).next.compare_exchange(\n\
                   \x20           ptr::null_mut(),\n\
                   \x20           node,\n\
                   \x20           Ordering::Release,\n\
                   \x20           Ordering::Relaxed,\n\
                   \x20       )\n\
                   \x20   }\n\
                   \x20   .is_ok()\n\
                   \x20   {}\n\
                   }\n";
        assert!(find("crates/sync/src/x.rs", src).is_empty());
    }

    #[test]
    fn an_attribute_between_comment_and_op_is_fine() {
        let src = "fn f(a: &AtomicUsize) {\n\
                   \x20   // ordering: Relaxed [no-edge] — deliberately wrong, mutant only\n\
                   \x20   #[cfg(feature = \"mutant\")]\n\
                   \x20   a.fetch_max(1, Ordering::Relaxed);\n\
                   }\n";
        assert!(find("crates/sync/src/x.rs", src).is_empty());
    }

    #[test]
    fn seqcst_needs_no_comment_and_comment_mentions_in_strings_do_not_count() {
        let src = "fn f(a: &AtomicUsize) {\n\
                   \x20   a.load(Ordering::SeqCst);\n\
                   \x20   let s = \"ordering: fake\";\n\
                   \x20   a.load(Ordering::Relaxed);\n\
                   }\n";
        let f = find("crates/sync/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 4);
    }

    #[test]
    fn cfg_test_modules_and_test_dirs_are_exempt_from_the_audit() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(a: &AtomicUsize) {\n        a.load(Ordering::Relaxed);\n    }\n}\n";
        assert!(find("crates/sync/src/x.rs", src).is_empty());
        let plain = "fn f(a: &AtomicUsize) { a.load(Ordering::Relaxed); }\n";
        assert!(find("tests/x.rs", plain).is_empty());
        assert!(find("crates/bench/benches/x.rs", plain).is_empty());
        assert!(find("examples/x.rs", plain).is_empty());
        // …but the facade rule still applies in test code.
        let bypass = "use std::thread;\n";
        assert_eq!(find("tests/x.rs", bypass).len(), 1);
    }

    #[test]
    fn a_blank_line_breaks_audit_adjacency() {
        let src = "fn f(a: &AtomicUsize) {\n\
                   \x20   // ordering: Acquire — too far away\n\
                   \n\
                   \x20   a.load(Ordering::Acquire);\n\
                   }\n";
        // Both directions fail: the load is unaudited (rule 1) and the
        // far-away comment is orphaned (rule 2).
        let f = find("crates/sync/src/x.rs", src);
        assert_eq!(f.len(), 2);
        assert!(f.iter().any(|x| x.rule == Rule::OrderingAudit && x.line == 4));
        assert!(f.iter().any(|x| x.rule == Rule::OrphanedAudit && x.line == 2));
    }

    // -- rule 2: orphaned audit --------------------------------------

    #[test]
    fn orphaned_standalone_audit_is_flagged() {
        let src = "fn f() {\n\
                   \x20   // ordering: Acquire — pairs with a store that was deleted\n\
                   \x20   let x = 1;\n\
                   }\n";
        let f = find("crates/sync/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::OrphanedAudit);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn orphaned_trailing_audit_is_flagged() {
        let src = "fn f() {\n    let x = 1; // ordering: stale justification\n}\n";
        let f = find("crates/sync/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::OrphanedAudit);
    }

    #[test]
    fn audit_followed_by_a_blank_line_is_orphaned() {
        let src = "fn f(a: &AtomicUsize) {\n\
                   \x20   // ordering: Acquire — adjacency broken below\n\
                   \n\
                   \x20   a.load(Ordering::SeqCst);\n\
                   }\n";
        let f = find("crates/sync/src/x.rs", src);
        assert!(f.iter().any(|x| x.rule == Rule::OrphanedAudit), "{f:?}");
    }

    #[test]
    fn audits_adjacent_to_atomics_are_not_orphaned() {
        // Trailing, above, above-with-attribute, and multi-line-CAS
        // placements — every form the ordering-audit rule accepts.
        let src = "fn f(a: &AtomicUsize) {\n\
                   \x20   a.load(Ordering::Acquire); // ordering: [pairs: x.pub]\n\
                   \x20   // ordering: Release [site: x.pub] — publishes Y\n\
                   \x20   a.store(1, Ordering::Release);\n\
                   \x20   // ordering: Release on success [site: x.cas], Relaxed on failure\n\
                   \x20   let _ = a.compare_exchange(\n\
                   \x20       0,\n\
                   \x20       1,\n\
                   \x20       Ordering::Release,\n\
                   \x20       Ordering::Relaxed,\n\
                   \x20   );\n\
                   }\n";
        assert!(find("crates/sync/src/x.rs", src).is_empty());
    }

    #[test]
    fn doc_comments_quoting_the_convention_are_not_orphans() {
        let src = "//! every new atomic carries an `// ordering:` audit comment.\n\
                   /// ordering: documented on the struct, not an audit.\n\
                   fn f() {}\n";
        assert!(find("crates/sync/src/x.rs", src).is_empty());
    }

    #[test]
    fn orphan_rule_skips_test_code_like_the_audit_rule() {
        let orphan = "fn f() {\n    // ordering: stale\n    let x = 1;\n}\n";
        assert!(find("tests/x.rs", orphan).is_empty());
        let in_cfg_test =
            "#[cfg(test)]\nmod tests {\n    fn f() {\n        // ordering: stale\n        let x = 1;\n    }\n}\n";
        assert!(find("crates/sync/src/x.rs", in_cfg_test).is_empty());
    }

    // -- rule 3: facade bypass ---------------------------------------

    #[test]
    fn facade_bypass_is_flagged_outside_sched_only() {
        let src = "use std::sync::atomic::{AtomicUsize, Ordering};\nuse std::thread;\n";
        let f = find("crates/sync/src/x.rs", src);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.rule == Rule::FacadeBypass));
        assert!(find("crates/sched/src/atomic.rs", src).is_empty());
    }

    #[test]
    fn facade_mentions_in_comments_are_ignored() {
        let src = "// falls back to std::thread::yield_now outside a run\nfn f() {}\n";
        assert!(find("crates/faults/src/x.rs", src).is_empty());
    }

    #[test]
    fn core_atomics_are_the_same_bypass_as_std() {
        // `std::sync::atomic` is a re-export of `core::sync::atomic`;
        // arena/epoch code reaching for the `core` spelling skips the
        // facade just as thoroughly.
        let src = "use core::sync::atomic::{AtomicPtr, AtomicUsize};\n\
                   fn f() { let _p: core::sync::atomic::AtomicBool; }\n";
        let f = find("crates/sync/src/universal/log.rs", src);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.rule == Rule::FacadeBypass));
        assert!(f[0].msg.contains("core::sync::atomic"), "{}", f[0].msg);
        // The facade itself may (and does) name the core path.
        assert!(find("crates/sched/src/atomic.rs", src).is_empty());
        // A comment mentioning the path is prose, not a bypass.
        let doc = "// core::sync::atomic is off-limits outside the facade\nfn f() {}\n";
        assert!(find("crates/sync/src/x.rs", doc).is_empty());
    }

    // -- rule 4: bench timing ----------------------------------------

    #[test]
    fn instant_now_in_bench_is_flagged_outside_timing_rs() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(find("crates/bench/src/bin/b.rs", src).len(), 1);
        assert_eq!(find("crates/bench/benches/b.rs", src).len(), 1);
        assert!(find("crates/bench/src/timing.rs", src).is_empty());
        assert!(find("crates/faults/src/harness.rs", src).is_empty());
    }

    // -- progress lint -----------------------------------------------

    #[test]
    fn unannotated_loop_is_flagged_in_sync_and_store_only() {
        let src = "fn f() {\n    loop {\n        break;\n    }\n}\n";
        let f = find("crates/sync/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::ProgressAnnotation);
        assert_eq!(f[0].line, 2);
        assert_eq!(find("crates/store/src/x.rs", src).len(), 1);
        // Other crates, tests and sched code are out of scope.
        assert!(find("crates/sched/src/x.rs", src).is_empty());
        assert!(find("crates/faults/src/x.rs", src).is_empty());
        assert!(find("tests/x.rs", src).is_empty());
    }

    #[test]
    fn annotated_loops_pass_and_classifications_are_checked() {
        let ok = "fn f() {\n\
                  \x20   // progress: wait-free — at most MAX_THREADS iterations.\n\
                  \x20   for _ in 0..2 {}\n\
                  \x20   // progress: bounded: 64 — one pass per segment slot.\n\
                  \x20   while x() {}\n\
                  \x20   loop { // progress: lock-free — CAS retry, some thread wins.\n\
                  \x20       break;\n\
                  \x20   }\n\
                  }\n";
        assert!(find("crates/sync/src/x.rs", ok).is_empty(), "{:?}", find("crates/sync/src/x.rs", ok));
        // A `progress:` marker with an unknown classification is flagged.
        let bad = "fn f() {\n\
                   \x20   // progress: eventually terminates, trust me.\n\
                   \x20   while x() {}\n\
                   }\n";
        let f = find("crates/sync/src/x.rs", bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::ProgressAnnotation);
        assert!(f[0].msg.contains("wait-free"), "{}", f[0].msg);
    }

    #[test]
    fn for_loops_need_no_annotation() {
        // `for` over a finite iterator is structurally bounded; the
        // lint covers only `loop`/`while`, where termination is a
        // claim about the algorithm rather than the iterator.
        let src = "fn f() {\n    for i in 0..n {\n        g(i);\n    }\n}\n";
        assert!(find("crates/sync/src/x.rs", src).is_empty());
    }

    #[test]
    fn loop_keywords_in_prose_and_idents_do_not_count() {
        let src = "fn f() {\n\
                   \x20   // a loop while waiting would be bad\n\
                   \x20   let while_loops = 3;\n\
                   \x20   let x = workloop(while_loops);\n\
                   }\n";
        assert!(find("crates/sync/src/x.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_loops_are_exempt_from_progress() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() {\n        loop {\n            break;\n        }\n    }\n}\n";
        assert!(find("crates/sync/src/x.rs", src).is_empty());
    }

    #[test]
    fn orphaned_progress_comment_is_flagged() {
        let src = "fn f() {\n    // progress: wait-free — stale, loop was removed.\n    let x = 1;\n}\n";
        let f = find("crates/sync/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::OrphanedProgress);
        // The same comment above a real loop is not an orphan.
        let ok = "fn f() {\n    // progress: wait-free — bounded by helpers.\n    while x() {}\n}\n";
        assert!(find("crates/sync/src/x.rs", ok).is_empty());
    }

    #[test]
    fn one_annotation_does_not_cover_a_second_loop() {
        let src = "fn f() {\n\
                   \x20   // progress: wait-free — covers only the first loop.\n\
                   \x20   while x() {}\n\
                   \x20   while y() {}\n\
                   }\n";
        let f = find("crates/sync/src/x.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::ProgressAnnotation);
        assert_eq!(f[0].line, 4);
    }
}
