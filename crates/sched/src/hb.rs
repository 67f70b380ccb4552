//! Happens-before checking over recorded schedules: a vector-clock pass
//! that replays a run's event log and verifies every observed value is
//! justified by a *declared* ordering edge, not by the SC scheduler's
//! accidental serialization.
//!
//! The scheduler executes whole atomic operations under sequential
//! consistency, so a `Relaxed` load always observes the latest write —
//! even where real hardware could legally return something older. That
//! gap is exactly how the PR-2 hint bug survived testing: the code was
//! correct under every explored schedule and wrong under the declared
//! orderings. This pass closes the gap mechanically. For each event it
//! maintains C++-style vector clocks built **only** from the orderings
//! the source declared:
//!
//! * a Release store (or the release half of an RMW / a `SeqCst` op)
//!   publishes the writer's clock on the location's *message clock*;
//! * an Acquire load (or acquire half) joins the message clock into the
//!   reader's clock;
//! * `Relaxed` creates no edge — a relaxed store *resets* the message
//!   clock (it starts a new release sequence with no head), while a
//!   relaxed RMW *carries* it forward (RMWs continue the release
//!   sequence, per C++20 §intro.races);
//! * release/acquire/`SeqCst` fences follow the fence rules (a release
//!   fence makes later relaxed stores publish the clock at the fence; an
//!   acquire fence upgrades earlier relaxed loads at the fence); `SeqCst`
//!   fences additionally join through a global SC clock;
//! * `spawn` copies the parent's clock to the child; `join` joins the
//!   target's final clock into the joiner.
//!
//! A **violation** is a load that observes a value written by another
//! thread which does *not* happen-before the load under those edges: the
//! SC interleaving guaranteed the visibility, the declared orderings did
//! not, and on weakly-ordered hardware the load may return a stale value.
//!
//! # Model limits (see DESIGN.md §9)
//!
//! * Per-op SC granularity: the pass judges the values the SC scheduler
//!   actually produced; it does not *generate* weak behaviours (no
//!   speculative/load-buffering execution), so it can miss bugs whose
//!   trigger value never occurs under SC. It can, however, never excuse
//!   an undeclared edge — which is the audit the ordering scheme needs.
//! * `SeqCst` operations are treated as `AcqRel`. The SC total order
//!   adds no same-location justification beyond release/acquire, so this
//!   loses nothing for value justification; cross-location SC reasoning
//!   (IRIW-style) is out of scope.
//! * Only plain loads are *judged*. RMW read halves (including
//!   successful CAS) are exempt: atomicity forces an RMW to read the
//!   tail of the modification order on any hardware, so the observed
//!   value needs no happens-before justification — but the acquire half
//!   still joins only what the declared ordering permits, so a later
//!   load that relies on data "published" through a too-weak RMW is
//!   still flagged. Failed `compare_exchange` observations are likewise
//!   exempt (the value only drives a retry, and the retry's own load is
//!   judged); the failure ordering's acquire edge, when declared, is
//!   still applied.

use std::collections::BTreeSet;
use std::collections::HashMap;
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::Ordering;

use crate::runtime::{AtomicOp, OpEvent, TraceEvent};

// ---------------------------------------------------------------------
// Ordering contracts (the static↔dynamic cross-validation input)
// ---------------------------------------------------------------------

/// One declared synchronization site from the extracted ordering
/// contract — the sched-side mirror of `waitfree-analyze`'s site table
/// (kept as its own type so the scheduler does not depend on the lint
/// crate; tests build it from `wf-lint --contract-json`'s source data).
#[derive(Clone, Debug)]
pub struct SiteSpec {
    /// The `site:` label, if the statement declared one.
    pub label: Option<String>,
    /// Workspace-relative, `/`-separated path of the declaring file.
    pub file: String,
    /// 1-based first line of the annotated statement.
    pub start: usize,
    /// 1-based last line of the annotated statement.
    pub end: usize,
    /// Labels this statement's acquire half may synchronize with.
    pub pairs: Vec<String>,
}

impl SiteSpec {
    /// Stable identity: the label when present, else `file:start`.
    #[must_use]
    pub fn id(&self) -> String {
        self.label.clone().unwrap_or_else(|| format!("{}:{}", self.file, self.start))
    }
}

/// The ordering contract a happens-before pass cross-validates against:
/// the declared sites plus the set of files the static pass covered.
///
/// An observed release→acquire edge is judged only when **both**
/// endpoints fall in covered files (edges into tests or the harness are
/// not part of the contract) and at least one side uses a weak
/// (non-`SeqCst`) ordering — an all-`SeqCst` protocol needs no pairing
/// declarations, its correctness does not rest on release/acquire
/// matching. A judged edge whose `(release site, acquire pairs)` do not
/// match is an [`UndeclaredEdge`]: the code synchronizes through a
/// channel the audit comments never declared, which is exactly the
/// class of drift the static lint alone cannot see.
#[derive(Clone, Debug, Default)]
pub struct Contract {
    /// Declared sites, in any order.
    pub sites: Vec<SiteSpec>,
    /// Workspace-relative paths of the files the static pass covered.
    pub files: Vec<String>,
}

impl Contract {
    /// Whether `file` (a `file!()`-style path) is covered by the
    /// contract. Matched on path suffix: inside a cargo workspace
    /// `file!()` already yields workspace-relative paths, but suffix
    /// matching keeps the check robust to a vendored path prefix.
    #[must_use]
    pub fn covers(&self, file: &str) -> bool {
        self.files.iter().any(|f| file.ends_with(f.as_str()) || f.ends_with(file))
    }

    /// The declared site whose statement contains `file:line`.
    #[must_use]
    pub fn site_of(&self, file: &str, line: usize) -> Option<&SiteSpec> {
        self.sites.iter().find(|s| {
            line >= s.start
                && line <= s.end
                && (file.ends_with(s.file.as_str()) || s.file.ends_with(file))
        })
    }

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
}

/// An observed synchronizes-with edge whose site pair the ordering
/// contract does not declare.
#[derive(Clone, Debug)]
pub struct UndeclaredEdge {
    /// Trace index of the acquire-side read.
    pub read_index: usize,
    /// Trace index of the release-side write whose clock was inherited.
    pub write_index: usize,
    /// `(file, line)` of the acquire-side call site.
    pub read_site: (String, u32),
    /// `(file, line)` of the release-side call site.
    pub write_site: (String, u32),
    /// Which declaration is missing.
    pub detail: String,
}

impl fmt::Display for UndeclaredEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "undeclared synchronization at trace[{}]: {}:{} acquires from {}:{} \
             (trace[{}]) but the ordering contract declares no such pair — {}",
            self.read_index,
            self.read_site.0,
            self.read_site.1,
            self.write_site.0,
            self.write_site.1,
            self.write_index,
            self.detail
        )
    }
}

/// A vector clock: `clock[t]` counts thread `t`'s events.
type Clock = Vec<u64>;

fn join(into: &mut Clock, other: &Clock) {
    if into.len() < other.len() {
        into.resize(other.len(), 0);
    }
    for (i, &v) in other.iter().enumerate() {
        if into[i] < v {
            into[i] = v;
        }
    }
}

fn get(clock: &Clock, t: usize) -> u64 {
    clock.get(t).copied().unwrap_or(0)
}

fn bump(clock: &mut Clock, t: usize) -> u64 {
    if clock.len() <= t {
        clock.resize(t + 1, 0);
    }
    clock[t] += 1;
    clock[t]
}

fn is_acquire(o: Ordering) -> bool {
    matches!(o, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(o: Ordering) -> bool {
    matches!(o, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

/// A read that the declared orderings do not justify.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Index of the offending read in the trace.
    pub read_index: usize,
    /// The offending read (or RMW) event.
    pub read: OpEvent,
    /// Index of the observed write in the trace.
    pub write_index: usize,
    /// Thread that performed the observed write.
    pub write_vtid: usize,
    /// Human-readable explanation.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hb violation at trace[{}]: vtid {} {:?} {}#{} ({:?}) observes trace[{}] by vtid {} \
             without a declared happens-before edge — {}",
            self.read_index,
            self.read.vtid,
            self.read.op,
            self.read.atomic,
            self.read.loc,
            self.read.ordering,
            self.write_index,
            self.write_vtid,
            self.detail
        )
    }
}

/// The verdict of a happens-before pass over one run's trace.
#[derive(Clone, Debug, Default)]
pub struct HbReport {
    /// Reads whose observed value only the SC serialization justifies.
    pub violations: Vec<Violation>,
    /// Number of read (or RMW) observations that were judged.
    pub reads_checked: usize,
    /// Observed edges the contract does not declare (empty when the
    /// pass ran without a contract). Deduplicated per `(read site,
    /// write site)` pair within a run.
    pub undeclared: Vec<UndeclaredEdge>,
    /// Declared `(release label, acquire site id)` pairs this run
    /// actually exercised — the coverage half of the cross-validation.
    pub exercised: BTreeSet<(String, String)>,
}

impl HbReport {
    /// Whether every judged observation had a declared edge and every
    /// observed synchronization was a declared pair.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.undeclared.is_empty()
    }
}

/// Per-location state: who wrote the current value, and the release-
/// sequence message clock an acquire read would synchronize with.
#[derive(Default)]
struct LocState {
    /// `(vtid, stamp, trace index)` of the write that produced the
    /// current value; `None` while the location still holds its initial
    /// value (initial values are visible to everyone — publication of
    /// the containing object is the constructor's problem, outside the
    /// trace).
    last_write: Option<(usize, u64, usize)>,
    /// The clock an acquire read currently synchronizes with; `None`
    /// when the current release sequence has no release head (e.g. after
    /// a plain relaxed store with no prior release fence).
    msg: Option<Clock>,
    /// Call sites of the writes whose clocks make up `msg` — the
    /// release-side endpoints an acquire of this location synchronizes
    /// with, for contract classification. Maintained in lockstep with
    /// `msg`: a release store resets the list to its own site, a
    /// release RMW appends, a relaxed RMW carries the list unchanged.
    /// (Fence-published relaxed writes attribute the edge to the write's
    /// own site; the fence that created it is adjacent in the same
    /// file, so contract coverage is unaffected.)
    contributors: Vec<Contributor>,
}

/// One release-side endpoint currently represented in a location's
/// message clock.
#[derive(Clone)]
struct Contributor {
    vtid: usize,
    file: &'static str,
    line: u32,
    index: usize,
    ordering: Ordering,
}

/// Per-thread state beyond the clock itself.
#[derive(Default, Clone)]
struct ThreadState {
    clock: Clock,
    /// Clock at the last release (or `SeqCst`) fence, if any: relaxed
    /// stores after it publish this.
    fence_rel: Option<Clock>,
    /// Accumulated message clocks of relaxed loads since the last
    /// acquire fence: an acquire (or `SeqCst`) fence joins this in.
    pending_acq: Clock,
    /// Final clock at exit, for join edges.
    exited: Option<Clock>,
}

/// Replays `trace` (a [`crate::runtime::RunResult::trace`]) and reports
/// every read observation the declared orderings fail to justify.
#[must_use]
pub fn check(trace: &[TraceEvent]) -> HbReport {
    check_with_contract(trace, None)
}

/// [`check`], additionally cross-validating every observed
/// release→acquire edge against an extracted ordering contract — see
/// [`Contract`] for which edges are judged and [`HbReport::undeclared`]
/// / [`HbReport::exercised`] for the two outputs.
#[must_use]
pub fn check_with_contract(trace: &[TraceEvent], contract: Option<&Contract>) -> HbReport {
    let mut threads: Vec<ThreadState> = Vec::new();
    let mut locs: HashMap<usize, LocState> = HashMap::new();
    // Global clock threaded through SeqCst fences only.
    let mut sc_fence_clock: Clock = Vec::new();
    let mut report = HbReport::default();
    let mut edges = EdgeCheck {
        contract,
        site_cache: HashMap::new(),
        seen: HashSet::new(),
    };

    fn ensure(threads: &mut Vec<ThreadState>, t: usize) {
        if threads.len() <= t {
            threads.resize(t + 1, ThreadState::default());
        }
    }

    for (i, ev) in trace.iter().enumerate() {
        match ev {
            TraceEvent::Spawn { parent, child } => {
                ensure(&mut threads, *parent.max(child));
                bump(&mut threads[*parent].clock, *parent);
                let parent_clock = threads[*parent].clock.clone();
                let c = &mut threads[*child];
                join(&mut c.clock, &parent_clock);
                bump(&mut c.clock, *child);
            }
            TraceEvent::Exit { vtid } => {
                ensure(&mut threads, *vtid);
                let t = &mut threads[*vtid];
                bump(&mut t.clock, *vtid);
                t.exited = Some(t.clock.clone());
            }
            TraceEvent::Join { joiner, target } => {
                ensure(&mut threads, *joiner.max(target));
                let target_clock = threads[*target]
                    .exited
                    .clone()
                    .unwrap_or_else(|| threads[*target].clock.clone());
                let j = &mut threads[*joiner];
                bump(&mut j.clock, *joiner);
                join(&mut j.clock, &target_clock);
            }
            TraceEvent::Fence { vtid, ordering } => {
                ensure(&mut threads, *vtid);
                let sc = *ordering == Ordering::SeqCst;
                let t = &mut threads[*vtid];
                bump(&mut t.clock, *vtid);
                if is_acquire(*ordering) {
                    let pending = std::mem::take(&mut t.pending_acq);
                    join(&mut t.clock, &pending);
                }
                if sc {
                    join(&mut t.clock, &sc_fence_clock);
                    let snap = t.clock.clone();
                    join(&mut sc_fence_clock, &snap);
                }
                if is_release(*ordering) {
                    t.fence_rel = Some(t.clock.clone());
                }
            }
            TraceEvent::Op(e) => {
                ensure(&mut threads, e.vtid);
                step_op(&mut threads, &mut locs, &mut report, &mut edges, i, e);
            }
        }
    }
    report
}

/// Contract-classification state threaded through [`step_op`].
struct EdgeCheck<'c> {
    contract: Option<&'c Contract>,
    /// `(file ptr+len, line) → site index` memo — site lookup is a
    /// linear scan over the contract, and hot loops hit the same few
    /// call sites thousands of times per trace.
    site_cache: HashMap<(usize, usize, u32), Option<usize>>,
    /// `(read site, write site)` pairs already reported, so a retry
    /// loop does not flood the report with one drifted annotation.
    seen: HashSet<(&'static str, u32, &'static str, u32)>,
}

impl EdgeCheck<'_> {
    fn site_idx(&mut self, file: &'static str, line: u32) -> Option<usize> {
        let contract = self.contract?;
        let key = (file.as_ptr() as usize, file.len(), line);
        *self.site_cache.entry(key).or_insert_with(|| {
            contract
                .sites
                .iter()
                .position(|s| s.site_of_match(file, line))
        })
    }

    /// Classify one observed release→acquire edge: record coverage when
    /// the pair is declared, report it when it is not (unless exempt).
    fn classify(&mut self, report: &mut HbReport, read_index: usize, e: &OpEvent, read_order: Ordering, c: &Contributor) {
        let Some(contract) = self.contract else { return };
        if !(contract.covers(e.site_file) && contract.covers(c.file)) {
            return;
        }
        let rel = self.site_idx(c.file, c.line);
        let acq = self.site_idx(e.site_file, e.site_line);
        let declared = match (rel, acq) {
            (Some(r), Some(a)) => {
                let (r, a) = (&contract.sites[r], &contract.sites[a]);
                match &r.label {
                    Some(label) if a.pairs.contains(label) => {
                        report.exercised.insert((label.clone(), a.id()));
                        true
                    }
                    _ => false,
                }
            }
            _ => false,
        };
        if declared {
            return;
        }
        // An all-SeqCst edge needs no pairing declaration: its
        // correctness rests on the SC total order, not on
        // release/acquire matching.
        if c.ordering == Ordering::SeqCst && read_order == Ordering::SeqCst {
            return;
        }
        if !self.seen.insert((e.site_file, e.site_line, c.file, c.line)) {
            return;
        }
        let detail = match (rel, acq) {
            (None, _) => "no `[site:]` declaration covers the release-side statement".into(),
            (Some(_), None) => "no `[pairs:]` declaration covers the acquire-side statement".into(),
            (Some(r), Some(a)) => match &contract.sites[r].label {
                None => "the release-side statement declares no `site:` label".into(),
                Some(label) => format!(
                    "the acquire side declares pairs {:?}, which do not include \
                     the release site `{label}`",
                    contract.sites[a].pairs
                ),
            },
        };
        report.undeclared.push(UndeclaredEdge {
            read_index,
            write_index: c.index,
            read_site: (e.site_file.to_string(), e.site_line),
            write_site: (c.file.to_string(), c.line),
            detail,
        });
    }
}

impl SiteSpec {
    fn site_of_match(&self, file: &str, line: u32) -> bool {
        let line = line as usize;
        line >= self.start
            && line <= self.end
            && (file.ends_with(self.file.as_str()) || self.file.ends_with(file))
    }
}

/// Kinds of access an [`AtomicOp`] performs on its location.
enum Access {
    Read,
    Write,
    ReadWrite,
}

fn access_of(e: &OpEvent) -> Access {
    match e.op {
        AtomicOp::Load => Access::Read,
        AtomicOp::Store => Access::Write,
        AtomicOp::CompareExchange => {
            // A failed CAS only reads (at the failure ordering).
            if e.cas_success == Some(false) {
                Access::Read
            } else {
                Access::ReadWrite
            }
        }
        AtomicOp::Swap | AtomicOp::FetchAdd | AtomicOp::FetchSub | AtomicOp::FetchMax => {
            Access::ReadWrite
        }
    }
}

fn step_op(
    threads: &mut [ThreadState],
    locs: &mut HashMap<usize, LocState>,
    report: &mut HbReport,
    edges: &mut EdgeCheck<'_>,
    index: usize,
    e: &OpEvent,
) {
    let access = access_of(e);
    let loc = locs.entry(e.loc).or_default();
    let failed_cas = matches!(e.op, AtomicOp::CompareExchange if e.cas_success == Some(false));
    // The ordering governing the read half: failure ordering for a
    // failed CAS, the op's ordering otherwise.
    let read_order = if failed_cas { e.failure_ordering.unwrap_or(e.ordering) } else { e.ordering };

    let stamp = bump(&mut threads[e.vtid].clock, e.vtid);

    // --- read half -----------------------------------------------------
    if matches!(access, Access::Read | Access::ReadWrite) {
        if is_acquire(read_order) {
            if let Some(msg) = &loc.msg {
                let msg = msg.clone();
                join(&mut threads[e.vtid].clock, &msg);
                // This acquire synchronizes with every release-side
                // contributor to the message clock: classify each
                // cross-thread edge against the contract (same-thread
                // "edges" are program order, not synchronization).
                for c in &loc.contributors {
                    if c.vtid != e.vtid {
                        edges.classify(report, index, e, read_order, c);
                    }
                }
            }
        } else if let Some(msg) = &loc.msg {
            // A relaxed load remembers the message clock: a later
            // acquire fence turns it into a real edge.
            let msg = msg.clone();
            join(&mut threads[e.vtid].pending_acq, &msg);
        }
        // Only plain loads are judged: RMWs read the modification-order
        // tail by atomicity (coherence justifies the value on any
        // hardware), and failed-CAS values only drive retries.
        if e.op == AtomicOp::Load {
            report.reads_checked += 1;
            if let Some((wt, wstamp, widx)) = loc.last_write {
                if wt != e.vtid && get(&threads[e.vtid].clock, wt) < wstamp {
                    report.violations.push(Violation {
                        read_index: index,
                        read: e.clone(),
                        write_index: widx,
                        write_vtid: wt,
                        detail: format!(
                            "the write is visible only because the scheduler serialized it \
                             first; with these orderings ({:?} read) the value could be stale \
                             on weakly-ordered hardware",
                            read_order
                        ),
                    });
                }
            }
        }
    }

    // --- write half ----------------------------------------------------
    if matches!(access, Access::Write | Access::ReadWrite) {
        let is_rmw = matches!(access, Access::ReadWrite) && e.op != AtomicOp::Store;
        let released = is_release(e.ordering);
        let fence_rel = threads[e.vtid].fence_rel.clone();
        let clock = threads[e.vtid].clock.clone();
        loc.msg = if released {
            // A release write heads (or, for an RMW, extends) the
            // release sequence with the writer's full clock.
            let mut m = if is_rmw { loc.msg.take().unwrap_or_default() } else { Clock::new() };
            join(&mut m, &clock);
            Some(m)
        } else {
            // Relaxed write: a store starts a sequence with no release
            // head; an RMW carries the existing sequence forward. A
            // prior release fence makes either publish the clock at the
            // fence.
            let base = if is_rmw { loc.msg.take() } else { None };
            match (base, fence_rel) {
                (None, None) => None,
                (b, f) => {
                    let mut m = b.unwrap_or_default();
                    if let Some(f) = f {
                        join(&mut m, &f);
                    }
                    Some(m)
                }
            }
        };
        // Keep the contributor list in lockstep with the message clock
        // (see `LocState::contributors`).
        let contrib = Contributor {
            vtid: e.vtid,
            file: e.site_file,
            line: e.site_line,
            index,
            ordering: e.ordering,
        };
        match (&loc.msg, released, is_rmw) {
            (None, ..) => loc.contributors.clear(),
            // Release store: a fresh sequence headed by this write.
            (Some(_), true, false) => loc.contributors = vec![contrib],
            // Release RMW: extends the sequence, adding itself.
            (Some(_), true, true) => loc.contributors.push(contrib),
            // Relaxed RMW carrying the sequence: contributors unchanged
            // (the RMW publishes nothing of its own; a prior release
            // fence's publication is attributed to this write's site).
            (Some(_), false, true) => {
                if threads[e.vtid].fence_rel.is_some() {
                    loc.contributors.push(contrib);
                }
            }
            // Fence-published relaxed store: the store's site is the
            // visible publisher.
            (Some(_), false, false) => loc.contributors = vec![contrib],
        }
        loc.last_write = Some((e.vtid, stamp, index));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(
        vtid: usize,
        kind: AtomicOp,
        ordering: Ordering,
        loc: usize,
    ) -> TraceEvent {
        TraceEvent::Op(OpEvent {
            vtid,
            atomic: "AtomicUsize",
            op: kind,
            ordering,
            loc,
            failure_ordering: None,
            cas_success: None,
            site_file: "",
            site_line: 0,
        })
    }

    /// [`op`] with an explicit call site, for contract tests.
    fn op_at(
        vtid: usize,
        kind: AtomicOp,
        ordering: Ordering,
        loc: usize,
        site_file: &'static str,
        site_line: u32,
    ) -> TraceEvent {
        TraceEvent::Op(OpEvent {
            vtid,
            atomic: "AtomicUsize",
            op: kind,
            ordering,
            loc,
            failure_ordering: None,
            cas_success: None,
            site_file,
            site_line,
        })
    }

    fn cas(vtid: usize, success: bool, ordering: Ordering, failure: Ordering, loc: usize) -> TraceEvent {
        TraceEvent::Op(OpEvent {
            vtid,
            atomic: "AtomicUsize",
            op: AtomicOp::CompareExchange,
            ordering,
            loc,
            failure_ordering: Some(failure),
            cas_success: Some(success),
            site_file: "",
            site_line: 0,
        })
    }

    fn spawn(parent: usize, child: usize) -> TraceEvent {
        TraceEvent::Spawn { parent, child }
    }

    fn fence(vtid: usize, ordering: Ordering) -> TraceEvent {
        TraceEvent::Fence { vtid, ordering }
    }

    /// Classic message passing: T1 writes data (relaxed), publishes a
    /// flag with Release; T2 acquires the flag, reads the data relaxed.
    /// Every observation is justified.
    #[test]
    fn release_acquire_message_passing_is_clean() {
        let trace = vec![
            spawn(0, 1),
            spawn(0, 2),
            op(1, AtomicOp::Store, Ordering::Relaxed, 0), // data
            op(1, AtomicOp::Store, Ordering::Release, 1), // flag
            op(2, AtomicOp::Load, Ordering::Acquire, 1),  // sees flag
            op(2, AtomicOp::Load, Ordering::Relaxed, 0),  // data: justified
        ];
        let report = check(&trace);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.reads_checked, 2);
    }

    /// Same shape, but the flag is published with Relaxed: the data read
    /// AND the flag read are only justified by SC serialization.
    #[test]
    fn relaxed_publication_is_flagged() {
        let trace = vec![
            spawn(0, 1),
            spawn(0, 2),
            op(1, AtomicOp::Store, Ordering::Relaxed, 0),
            op(1, AtomicOp::Store, Ordering::Relaxed, 1), // relaxed publish
            op(2, AtomicOp::Load, Ordering::Acquire, 1),  // no edge to inherit
            op(2, AtomicOp::Load, Ordering::Relaxed, 0),
        ];
        let report = check(&trace);
        assert_eq!(report.violations.len(), 2, "{:?}", report.violations);
        assert_eq!(report.violations[0].read_index, 4);
        assert_eq!(report.violations[1].read_index, 5);
        assert_eq!(report.violations[0].write_vtid, 1);
    }

    /// An acquire load that observes a write from a thread it already
    /// synchronized with (here: the spawner) is justified even when the
    /// store was relaxed.
    #[test]
    fn program_order_and_spawn_edges_justify_reads() {
        let trace = vec![
            op(0, AtomicOp::Store, Ordering::Relaxed, 0),
            spawn(0, 1),
            op(1, AtomicOp::Load, Ordering::Relaxed, 0), // parent's write: spawn edge
            op(1, AtomicOp::Load, Ordering::Relaxed, 0),
        ];
        let report = check(&trace);
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    /// Fence-based message passing (C++20 fence rules): relaxed store
    /// after a release fence, relaxed load upgraded by an acquire fence.
    #[test]
    fn release_and_acquire_fences_create_the_edge() {
        let trace = vec![
            spawn(0, 1),
            spawn(0, 2),
            op(1, AtomicOp::Store, Ordering::Relaxed, 0), // data
            fence(1, Ordering::Release),
            op(1, AtomicOp::Store, Ordering::Relaxed, 1), // flag, after the fence
            op(2, AtomicOp::Load, Ordering::Relaxed, 1),  // unjustified by itself
            fence(2, Ordering::Acquire),
            op(2, AtomicOp::Load, Ordering::Relaxed, 0), // justified via the fences
        ];
        let report = check(&trace);
        // The flag load itself races (no acquire at the load, and the
        // fence only helps *later* reads); the data read is clean.
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].read_index, 5);
    }

    /// SeqCst fences on both sides create an edge through the global SC
    /// order even with relaxed accesses.
    #[test]
    fn seqcst_fences_synchronize_through_the_sc_order() {
        let trace = vec![
            spawn(0, 1),
            spawn(0, 2),
            op(1, AtomicOp::Store, Ordering::Relaxed, 0),
            fence(1, Ordering::SeqCst),
            fence(2, Ordering::SeqCst),
            op(2, AtomicOp::Load, Ordering::Relaxed, 0), // justified: fence pair
        ];
        let report = check(&trace);
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    /// A release RMW continues the release sequence: an acquire read of
    /// the RMW's value inherits both the original release head and the
    /// RMW writer's clock.
    #[test]
    fn release_rmw_extends_the_release_sequence() {
        let trace = vec![
            spawn(0, 1),
            spawn(0, 2),
            spawn(0, 3),
            op(1, AtomicOp::Store, Ordering::Relaxed, 0),    // T1 data
            op(1, AtomicOp::Store, Ordering::Release, 1),    // T1 heads the sequence
            op(2, AtomicOp::Store, Ordering::Relaxed, 2),    // T2 data
            op(2, AtomicOp::FetchMax, Ordering::Release, 1), // T2 extends it
            op(3, AtomicOp::Load, Ordering::Acquire, 1),
            op(3, AtomicOp::Load, Ordering::Relaxed, 0), // justified via T1's head
            op(3, AtomicOp::Load, Ordering::Relaxed, 2), // justified via T2's RMW
        ];
        let report = check(&trace);
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    /// A *relaxed* RMW keeps the sequence alive but contributes no clock
    /// of its own: readers that rely on the RMW writer's prior work are
    /// flagged.
    #[test]
    fn relaxed_rmw_carries_but_does_not_publish() {
        let trace = vec![
            spawn(0, 1),
            spawn(0, 2),
            op(1, AtomicOp::Store, Ordering::Relaxed, 0),    // T1 data
            op(1, AtomicOp::FetchMax, Ordering::Relaxed, 1), // relaxed publish (the PR-2 bug shape)
            op(2, AtomicOp::Load, Ordering::Acquire, 1),     // nothing to acquire
            op(2, AtomicOp::Load, Ordering::Relaxed, 0),
        ];
        let report = check(&trace);
        assert_eq!(report.violations.len(), 2, "{:?}", report.violations);
    }

    /// CAS read-halves are never judged — failed ones only drive a
    /// retry, successful ones read the modification-order tail by
    /// atomicity — but a plain load observing the too-weak CAS's write
    /// from a third thread is.
    #[test]
    fn cas_reads_are_exempt_plain_loads_are_judged() {
        let trace = vec![
            spawn(0, 1),
            spawn(0, 2),
            spawn(0, 3),
            op(1, AtomicOp::Store, Ordering::Relaxed, 0),
            cas(2, false, Ordering::Release, Ordering::Relaxed, 0), // exempt
            cas(2, true, Ordering::Relaxed, Ordering::Relaxed, 0),  // exempt (coherence)
            op(3, AtomicOp::Load, Ordering::Relaxed, 0),            // judged: flagged
        ];
        let report = check(&trace);
        assert_eq!(report.reads_checked, 1);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].read_index, 6);
        assert_eq!(report.violations[0].write_vtid, 2);
    }

    /// Reads of a location's initial value are always justified.
    #[test]
    fn initial_values_are_justified() {
        let trace = vec![
            spawn(0, 1),
            op(1, AtomicOp::Load, Ordering::Relaxed, 7),
        ];
        let report = check(&trace);
        assert!(report.is_clean());
        assert_eq!(report.reads_checked, 1);
    }

    /// Join edges justify reading everything the joined thread wrote.
    #[test]
    fn join_edge_justifies_reads() {
        let trace = vec![
            spawn(0, 1),
            op(1, AtomicOp::Store, Ordering::Relaxed, 0),
            TraceEvent::Exit { vtid: 1 },
            TraceEvent::Join { joiner: 0, target: 1 },
            op(0, AtomicOp::Load, Ordering::Relaxed, 0),
        ];
        let report = check(&trace);
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    /// A relaxed store by a *third* thread breaks the release sequence:
    /// later acquire readers get no edge to the new writer.
    #[test]
    fn relaxed_store_resets_the_release_sequence() {
        let trace = vec![
            spawn(0, 1),
            spawn(0, 2),
            op(1, AtomicOp::Store, Ordering::Release, 1),
            op(2, AtomicOp::Store, Ordering::Relaxed, 1), // breaks the head
            op(0, AtomicOp::Load, Ordering::Acquire, 1),
        ];
        let report = check(&trace);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].write_vtid, 2);
    }

    // -- contract cross-validation ------------------------------------

    const F: &str = "crates/sync/src/m.rs";

    fn contract(sites: Vec<SiteSpec>) -> Contract {
        Contract { sites, files: vec![F.to_string()] }
    }

    fn site(label: Option<&str>, start: usize, end: usize, pairs: &[&str]) -> SiteSpec {
        SiteSpec {
            label: label.map(str::to_string),
            file: F.to_string(),
            start,
            end,
            pairs: pairs.iter().map(|p| p.to_string()).collect(),
        }
    }

    /// A declared release→acquire pair is recorded as exercised and
    /// nothing is flagged.
    #[test]
    fn declared_edges_are_exercised_not_flagged() {
        let c = contract(vec![
            site(Some("m.pub"), 10, 10, &[]),
            site(None, 20, 20, &["m.pub"]),
        ]);
        let trace = vec![
            spawn(0, 1),
            spawn(0, 2),
            op_at(1, AtomicOp::Store, Ordering::Release, 0, F, 10),
            op_at(2, AtomicOp::Load, Ordering::Acquire, 0, F, 20),
        ];
        let r = check_with_contract(&trace, Some(&c));
        assert!(r.is_clean(), "{:?}", r.undeclared);
        assert_eq!(r.exercised.len(), 1);
        let (rel, acq) = r.exercised.iter().next().unwrap();
        assert_eq!(rel, "m.pub");
        assert_eq!(acq, &format!("{F}:20"));
    }

    /// An edge whose acquire side does not name the release site is an
    /// undeclared-synchronization failure, and `is_clean` reflects it.
    #[test]
    fn unpaired_acquire_is_flagged() {
        let c = contract(vec![
            site(Some("m.pub"), 10, 10, &[]),
            site(Some("m.other"), 30, 30, &[]),
            site(None, 20, 20, &["m.other"]),
        ]);
        let trace = vec![
            spawn(0, 1),
            spawn(0, 2),
            op_at(1, AtomicOp::Store, Ordering::Release, 0, F, 10),
            op_at(2, AtomicOp::Load, Ordering::Acquire, 0, F, 20),
        ];
        let r = check_with_contract(&trace, Some(&c));
        assert!(!r.is_clean());
        assert_eq!(r.undeclared.len(), 1, "{:?}", r.undeclared);
        assert_eq!(r.undeclared[0].write_site, (F.to_string(), 10));
        assert!(r.undeclared[0].detail.contains("m.pub"), "{}", r.undeclared[0].detail);
        assert!(r.exercised.is_empty());
    }

    /// An acquire site with no annotation at all (not in the site
    /// table) is flagged too, so a statement that lost its annotation
    /// cannot carry an edge unjudged.
    #[test]
    fn unannotated_acquire_site_is_flagged() {
        let c = contract(vec![site(Some("m.pub"), 10, 10, &[])]);
        let trace = vec![
            spawn(0, 1),
            spawn(0, 2),
            op_at(1, AtomicOp::Store, Ordering::Release, 0, F, 10),
            op_at(2, AtomicOp::Load, Ordering::Acquire, 0, F, 20),
        ];
        let r = check_with_contract(&trace, Some(&c));
        assert_eq!(r.undeclared.len(), 1, "{:?}", r.undeclared);
        assert!(r.undeclared[0].detail.contains("[pairs:]"), "{}", r.undeclared[0].detail);
    }

    /// Edges with an endpoint outside the contract's files (tests, the
    /// harness) and all-SeqCst edges are not judged.
    #[test]
    fn foreign_and_all_seqcst_edges_are_exempt() {
        let c = contract(vec![]);
        let trace = vec![
            spawn(0, 1),
            spawn(0, 2),
            // Release side in an uncovered file (a test body).
            op_at(1, AtomicOp::Store, Ordering::Release, 0, "tests/t.rs", 5),
            op_at(2, AtomicOp::Load, Ordering::Acquire, 0, F, 20),
            // All-SeqCst handshake inside the covered file.
            op_at(1, AtomicOp::Store, Ordering::SeqCst, 1, F, 40),
            op_at(2, AtomicOp::Load, Ordering::SeqCst, 1, F, 41),
        ];
        let r = check_with_contract(&trace, Some(&c));
        assert!(r.undeclared.is_empty(), "{:?}", r.undeclared);
    }

    /// A release RMW extending a declared sequence is classified per
    /// contributor: the acquire must pair with *every* release site
    /// whose clock it inherits.
    #[test]
    fn each_contributor_is_classified() {
        let c = contract(vec![
            site(Some("m.head"), 10, 10, &[]),
            site(Some("m.ext"), 11, 11, &[]),
            site(None, 20, 20, &["m.head"]), // misses m.ext
        ]);
        let trace = vec![
            spawn(0, 1),
            spawn(0, 2),
            spawn(0, 3),
            op_at(1, AtomicOp::Store, Ordering::Release, 0, F, 10),
            op_at(2, AtomicOp::FetchAdd, Ordering::Release, 0, F, 11),
            op_at(3, AtomicOp::Load, Ordering::Acquire, 0, F, 20),
        ];
        let r = check_with_contract(&trace, Some(&c));
        assert_eq!(r.exercised.len(), 1, "{:?}", r.exercised);
        assert_eq!(r.undeclared.len(), 1, "{:?}", r.undeclared);
        assert_eq!(r.undeclared[0].write_site.1, 11);
    }

    /// Repeated occurrences of the same undeclared pair (a retry loop)
    /// are reported once.
    #[test]
    fn undeclared_edges_are_deduplicated() {
        let c = contract(vec![]);
        let mut trace = vec![spawn(0, 1), spawn(0, 2)];
        for _ in 0..5 {
            trace.push(op_at(1, AtomicOp::Store, Ordering::Release, 0, F, 10));
            trace.push(op_at(2, AtomicOp::Load, Ordering::Acquire, 0, F, 20));
        }
        let r = check_with_contract(&trace, Some(&c));
        assert_eq!(r.undeclared.len(), 1, "{:?}", r.undeclared);
    }

    /// Without a contract, `check` behaves exactly as before.
    #[test]
    fn no_contract_means_no_edge_judgement() {
        let trace = vec![
            spawn(0, 1),
            spawn(0, 2),
            op_at(1, AtomicOp::Store, Ordering::Release, 0, F, 10),
            op_at(2, AtomicOp::Load, Ordering::Acquire, 0, F, 20),
        ];
        let r = check(&trace);
        assert!(r.is_clean());
        assert!(r.exercised.is_empty());
    }
}
