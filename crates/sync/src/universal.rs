//! A wait-free universal object on hardware atomics: one log, decided
//! by pointer CAS, with batch combining, dynamic membership and
//! checkpointed truncation.
//!
//! The practical rendering of §4's universality result: a shared log in
//! which each position is decided by a *single* `AtomicPtr`
//! compare-exchange (Theorem 7 compiled to one hardware primitive), plus
//! an announce registry with a helping discipline that bounds every
//! operation — the difference between *lock-free* (someone wins) and
//! *wait-free* (everyone finishes) is exactly the helping. The literal
//! Figure 4-5 rendering the explorer checks lives in `waitfree-core`
//! (`universal::consensus_cons`, `universal::log`); this module is the
//! one hardware implementation, built one way —
//! [`WfUniversal::with_config`] over a [`UniversalConfig`] — and joined
//! one way, [`WfUniversal::register`].
//!
//! * **Pointer consensus over log segments.** A log position is one
//!   `AtomicPtr<LogEntry>`: null means undecided, and the first
//!   successful CAS from null wins. Proposals are plain heap `Box`es
//!   owned by the winning slot — there is *no per-entry reference
//!   count*. Entry lifetime is governed wholesale, per segment, by the
//!   checkpoint/frontier scheme below, so the decide/replay/collect hot
//!   path never touches reclamation bookkeeping. Helpers read another
//!   slot's announced entry through a per-handle *hazard pointer* with a
//!   single validating re-load — wait-free: a failed validation means
//!   the owner moved on, so there is nothing left to help there.
//! * **Segmented, lazily grown log.** The log is a linked list of
//!   [`SEGMENT_SIZE`]-position segments. A thread that walks off the end
//!   allocates the next segment and installs it with a CAS on the link;
//!   the loser of that race frees its duplicate and follows the winner —
//!   growth is itself wait-free (one CAS attempt, then proceed). The log
//!   is unbounded unless [`UniversalConfig::cap`] opts into a position
//!   cap ([`UniversalError::LogFull`]) for the fault tests.
//! * **Checkpointed truncation** ([`UniversalConfig::checkpoint_every`];
//!   the paper's strongly-wait-free variant, §4.1 end — see the abstract
//!   model in `waitfree-core`'s `universal::log`). A handle whose replay
//!   frontier has advanced `every` positions past the latest checkpoint
//!   proposes a [`LogEntry::Checkpoint`] carrying its replica state: one
//!   ordinary consensus decide, wait-free — the loser of the checkpoint
//!   CAS just frees its image and moves on, and replayers treat a
//!   checkpoint as an empty batch (their replica already equals the
//!   image when they reach it). Each handle publishes a *replay
//!   frontier* in its registry slot; whole segments strictly behind
//!   `min(latest checkpoint, min over active handles' frontiers)` are
//!   detached from the chain and freed once no walker's segment hazard
//!   covers them. Retired, dropped, and crashed handles publish
//!   `usize::MAX` (never pinning memory), and a late registrant
//!   bootstraps its replica from the oldest retained checkpoint — at
//!   least one is retained by construction, since the reclaim bound
//!   never passes the newest one. Steady-state memory is O(frontier
//!   spread), not O(total ops).
//! * **Batch combining** ([`UniversalConfig::combine`], the default).
//!   Before deciding position `k`, a thread scans the announce registry
//!   and collects *every* currently-pending announced operation into one
//!   [`LogEntry::Batch`], so a single winning CAS threads up to `n`
//!   operations and the losers find their op already decided instead of
//!   retrying. Under contention this drops decides per completed
//!   operation from ~1 toward 1/n (amortized O(1) RMWs on the contended
//!   slot), while the worst case keeps the per-op helping bound — the
//!   scan starts at position `k`'s preferred thread, so the batch is
//!   always a superset of the per-op candidate. `combine: false` is the
//!   paper's literal one-op-per-decide candidate rule; with the
//!   sequential spec it is the differential oracle the equivalence
//!   tests and `bench_universal` compare combining against.
//! * **Dynamic membership.** The paper fixes the process set `n` at
//!   creation time; a long-running service does not. Following the
//!   infinite-arrival construction of Bonin–Mostéfaoui–Perrin
//!   (PAPERS.md), the announce array is a *registry*: a segmented,
//!   lazily grown array of handle slots, each claimed by one CAS.
//!   [`WfUniversal::register`] is wait-free — every failed claim CAS
//!   implies a *different* concurrent registrant's success, so the
//!   scan's step count is bounded by the number of concurrently arriving
//!   clients. [`WfHandle::retire`] marks a slot departed; a quiesced
//!   retired slot is reclaimed (lazily, by the next registrant to scan
//!   past it), so registry memory is bounded by the *peak number of
//!   concurrently active handles*, never by total arrivals. A fixed
//!   process set is `n` sequential `register()` calls on a fresh object
//!   (which claim slots `0..n` in order). A client that crashes without
//!   retiring degrades gracefully: its at-most-one pending op stays
//!   announced and helpable forever, and it costs exactly one registry
//!   slot — never a wedged helping loop, because helpers skip a slot
//!   with nothing pending in two loads.
//!
//! How an operation executes (Figure 4-5's algorithm):
//!
//! 1. **Announce** the operation in the caller's announce cell (one
//!    `AtomicPtr` per slot holding the latest entry). An entry's life
//!    is a cycle, *cell → limbo → free list → cell*: the displaced
//!    predecessor goes to an owner-local limbo list; a sweep moves
//!    every limbo entry no helper hazard covers to the owner's free
//!    list; the next announce overwrites one in place. The owner writes
//!    an entry only while it is out of the cell *and* cleared by a
//!    hazard scan that followed its displacement, so a helper either
//!    fails its one validating re-load or holds the cell's *current*
//!    entry — address reuse (ABA) changes nothing, and `seq == done`
//!    rejects a current entry that is not the oldest pending one. The
//!    steady-state invoke therefore allocates once: the `LogEntry` box
//!    the log owns.
//! 2. **Thread** it onto the log: repeatedly take the first undecided
//!    position `k` and run consensus on a candidate — in combining mode
//!    the batch of all pending announced ops (scanned starting from
//!    position `k`'s *preferred slot* `k mod hi`, where `hi` is the
//!    registered-slot high-water), in per-op mode the preferred slot's
//!    pending entry or the caller's own. Once every position
//!    periodically prefers each slot, an announced operation is
//!    threaded within `hi` positions: the wait-free bound, over peak
//!    active handles.
//! 3. **Replay** the log from the handle's cached state up to the caller's
//!    entry to compute the response (§4.1's `eval`/`apply`).
//!
//! Reads take none of those steps. §4.1 only needs consensus to order
//! *mutations*; [`WfHandle::read`] answers from the handle's own replica
//! after catching it up to an observed decided frontier — the
//! Acquire-load of the `hint` word — without announcing, allocating, or
//! CASing anything. The read is linearized at that frontier load: the
//! completion-side `publish_hint` below guarantees the hint is at least
//! one past the position of every *completed* invocation, so a read that
//! starts after an `invoke` returned observes that invocation's effect.
//! Bounded work (the replay gap is fixed at the frontier load), hence
//! wait-free, and zero RMWs on the shared log.
//!
//! Helping can thread the same entry into several positions (helpers and
//! the owner may each win with a batch containing it); replay
//! deduplicates by per-thread sequence number, the standard fix. The
//! first occurrence of `(t, s)` in log order is always in per-thread
//! sequence order: a batch can only contain `(t, s)` if its collect scan
//! observed `done[t] == s`, which happens-after the decide that threaded
//! `(t, s-1)` — and the decided prefix is contiguous, so that decide
//! sits at a lower position.
//!
//! # Memory orderings
//!
//! The decide CAS stays `SeqCst` on success — it is the linearization
//! point and the paper's consensus primitive. Every relaxation off that
//! spine carries an adjacent `// ordering:` audit comment naming the
//! happens-before edge it relies on (the `wf-lint` binary in
//! `waitfree-analyze` enforces the comment; the happens-before pass in
//! `waitfree_sched::hb` checks the claimed edges against recorded
//! schedules); the summary:
//!
//! * segment `next` links: `Release` install / `Acquire` follow, so a
//!   segment's initialized header and null slots are visible before the
//!   segment is reachable;
//! * slot loads (replay, frontier scan): `Acquire`, pairing with the
//!   release half of the winner's `SeqCst` CAS, so the `LogEntry`
//!   pointed to is fully visible;
//! * the `hint` word: `Release` publish / `Acquire` read — it is a
//!   lower bound on the first undecided position, but a
//!   thread that starts threading at the hint skips the prefix below it
//!   without ever touching those slots, so the replay loop's
//!   decided-prefix invariant must be inherited from the publisher: the
//!   acquire load carries the publisher's happens-before edge to every
//!   decide below the published value. Staleness still only costs
//!   extra (already-decided) iterations — except on the log-free read
//!   path, where the hint *is* the observed frontier, so `try_invoke`
//!   additionally publishes `hint ≥ cursor` when an invocation
//!   completes: a completed op's position is always below the hint,
//!   which is what makes the Acquire frontier load a sound
//!   linearization point for [`WfHandle::read`] (see DESIGN.md §11).
//!   A publish Acquire-loads first and RMWs only to advance the word:
//!   an equal-or-larger value was Release-published by a thread with
//!   the same entitlement, and the Acquire passes its edge on.
//!   The threading start is
//!   additionally clamped to the handle's own replay cursor — a safety
//!   requirement, not a heuristic: positions at or above the cursor are
//!   at or above the handle's published frontier, which the reclaim
//!   bound never passes, so a threading walk can never enter a freed
//!   segment;
//! * the `segments` diagnostic counter: `AcqRel` bump / `Acquire` read,
//!   so a reported count of `n` implies the `n` installs it counts are
//!   visible to the reader;
//! * registry segment `next` links: `Release` install / `Acquire`
//!   follow, the same idiom (and the same audit obligations) as the
//!   log's segment chain;
//! * `slots_hi`, the registered-slot high-water: `AcqRel` `fetch_max`
//!   on claim / `Acquire` read, so a scanner that reads `hi` can reach
//!   every slot below it through the registry chain;
//! * slot `state` (free / active / retired): `SeqCst` — claim and
//!   retirement are rare membership events, kept on the strongest
//!   ordering so slot hand-over inherits the departing owner's
//!   announce writes;
//! * `announced`/`done` (per registry slot): `SeqCst` — they form
//!   the announce/help handshake the helping bound is proved against,
//!   and they are off the per-iteration fast path. The combining
//!   collect scan reads both through `pending`'s `SeqCst` loads, one
//!   pair per slot: seeing `announced > done` must imply the announce
//!   cell is populated (the announcer's cell store is a `SeqCst` store
//!   sequenced before its `SeqCst` store to `announced`), and a batch
//!   member `(t, s)` must imply `(t, s-1)` was already threaded (the
//!   `SeqCst` load of `done` sits after the decider's `SeqCst`
//!   `fetch_max` in the single total order). Sequence numbers continue
//!   across slot reuse — a re-registered slot's first op takes
//!   `seq = announced` — so the `(tid, seq)` replay dedup stays sound
//!   over churn;
//! * **every word of the checkpoint/reclaim protocol is `SeqCst`**, by
//!   design: the announce cell and the per-slot `entry_hazard`, the
//!   per-slot `frontier` and `seg_hazard`, and the shared `oldest`,
//!   `cp_pos`, `reclaimed_upto`, and `reclaim_lock`. A handle's
//!   published frontier is always ≤ its replay `cursor` and is
//!   re-published by every call that moved `cursor` (and by no other:
//!   the word is not rewritten with the value it holds). Reclamation
//!   correctness is proved as chains through the single `SeqCst` total
//!   order (hazard-publish-then-revalidate vs. replace-then-scan;
//!   frontier-publish-then-hazard-clear vs. hazard-check-then-fresh
//!   -bound; detach high-water before unlink vs. hop-then-validate —
//!   see DESIGN.md §8 for the audit), and none of these words is on
//!   the per-decide fast path, so there is nothing to relax.
//!
//! # Failpoint sites (feature `failpoints`)
//!
//! | site | placed |
//! |------|--------|
//! | `universal::register`   | on entry to `register`, before any slot is claimed |
//! | `universal::retire`     | after the slot is marked retired (frontier already unpinned), before reclamation |
//! | `universal::announce`   | before the announce-cell write |
//! | `universal::announced`  | after the announce is published, before threading |
//! | `universal::collect`    | before the announce-registry scan that builds a combined batch (combining mode only) |
//! | `universal::cas`        | in the threading loop, before each consensus decide |
//! | `universal::decided`    | after a decide, before the position advances |
//! | `universal::replay`     | in the replay loop, per applied operation |
//! | `universal::read`       | in `read`/`try_read`, after the frontier load, before the catch-up replay |
//! | `universal::checkpoint` | after the checkpoint cadence check, before the image is built and proposed |
//! | `universal::reclaim`    | inside `try_reclaim`, after the reclaim lock is taken, before anything is detached |
//!
//! `universal::collect` fires only with `combine: true`, and
//! `universal::checkpoint`/`universal::reclaim` only with
//! `checkpoint_every` set; one adversary plan over the other sites
//! stresses every configuration. A thread crashed at
//! `universal::announce` has published nothing; one crashed at any
//! later site has an announced operation that helpers may still
//! thread, and a collect scan mutates nothing shared (its hazard
//! pointer is cleared by the next owner action or handle drop). Verify
//! such histories with `PendingPolicy::MayTakeEffect`. A client
//! crashed at `universal::register` has claimed nothing; one crashed
//! at `universal::retire` leaves its slot marked retired, quiescent,
//! and — because the frontier is unpinned *before* the failpoint —
//! never pinning a segment. A crash at `universal::checkpoint` loses
//! at most one checkpoint proposal (the cadence check re-fires on the
//! next invoke); a crash at `universal::reclaim` unwinds through the
//! RAII lock guard with nothing detached, so the next reclaimer
//! proceeds unhindered. A reader crashed at `universal::read` has
//! announced nothing, decided nothing, and grown nothing — the log and
//! every other handle's counters are exactly as if the read never
//! started (`tests/fault_tolerance.rs` asserts the exact-count
//! postconditions).

use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::ptr;
use std::sync::Arc;
use waitfree_sched::atomic::{AtomicPtr, AtomicUsize, Ordering};

use waitfree_faults::failpoint;
use waitfree_model::{ObjectSpec, Pid};

/// Log positions per segment. 64 keeps a segment at one or two cache
/// pages of pointers and makes the growth tests cheap to trigger.
pub const SEGMENT_SIZE: usize = 64;

/// Handle slots per registry segment. Small, so the bounded-by-peak
/// tests can observe reuse without thousands of arrivals.
pub const REGISTRY_SEGMENT: usize = 8;

/// Displaced announce entries an owner accumulates before sweeping its
/// limbo list (freeing every entry no helper hazard covers). Small: the
/// list holds at most this many plus the per-sweep survivors, and a
/// survivor is pinned by at most one helper's hazard at a time.
const ENTRY_LIMBO_SWEEP: usize = 8;

/// Registry-slot states. A slot is claimed FREE → ACTIVE by one
/// `register` CAS, marked ACTIVE → RETIRED by `retire`, and recycled
/// RETIRED → FREE (by the retiring owner, or lazily by a later
/// registrant) once nothing is pending on it. A crashed client's slot
/// simply stays ACTIVE (or RETIRED with a pending op): helpers skip it
/// in two loads, and it costs one slot, never a wedged loop.
const SLOT_FREE: usize = 0;
const SLOT_ACTIVE: usize = 1;
const SLOT_RETIRED: usize = 2;

/// Why a universal-object operation could not complete. These are the
/// resource-exhaustion edges of the bounded renderings of §4 — not
/// concurrency failures, which the construction tolerates by design.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UniversalError {
    /// The log reached its opt-in position cap
    /// ([`UniversalConfig::cap`]) with no undecided position left.
    /// The operation was already announced and *may still take effect*
    /// through helping; the object as a whole cannot accept further
    /// operations. Never returned without a cap: the log then grows
    /// without bound.
    LogFull {
        /// First position past the cap.
        position: usize,
        /// The configured position cap.
        capacity: usize,
    },
    /// This registration used its whole [`UniversalConfig::max_ops`]
    /// budget; the operation was not announced and has no effect.
    BudgetExhausted {
        /// The invoking thread.
        tid: usize,
        /// Its per-thread operation budget.
        max_ops: usize,
    },
    /// This handle was retired ([`WfHandle::retire`]); the operation
    /// was not announced and has no effect. Register a fresh handle to
    /// keep operating on the object.
    Retired {
        /// The registry slot the handle occupied.
        tid: usize,
    },
}

impl fmt::Display for UniversalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UniversalError::LogFull { position, capacity } => {
                write!(f, "log arena exhausted at position {position} (capacity {capacity})")
            }
            UniversalError::BudgetExhausted { tid, max_ops } => {
                write!(f, "thread {tid} exceeded its budget of {max_ops} operations")
            }
            UniversalError::Retired { tid } => {
                write!(f, "handle on registry slot {tid} is retired")
            }
        }
    }
}

impl std::error::Error for UniversalError {}

/// One announced operation. Constructed once per operation; helpers and
/// batch membership copy it by `Clone` (a plain payload clone — there
/// is no shared-ownership bookkeeping on the hot path).
#[derive(Clone, Debug)]
pub struct Entry<Op> {
    /// The invoking thread.
    pub tid: usize,
    /// The invoker's operation counter.
    pub seq: usize,
    /// The operation.
    pub op: Op,
}

/// A checkpointed replica image: the abstract state with every decided
/// position below the checkpoint applied, plus the per-slot applied
/// watermarks a bootstrapping replica needs to keep the `(tid, seq)`
/// replay dedup sound across the truncated prefix.
#[derive(Clone, Debug)]
pub struct CpImage<S: ObjectSpec> {
    /// The replica state with the whole log prefix applied.
    pub state: S,
    /// Per-slot next-sequence watermarks at the checkpoint position.
    pub applied: Vec<usize>,
}

/// One decided log position: a single operation, a batch of operations
/// threaded together by one winning consensus decide, or a checkpointed
/// replica image (the truncation variant's "snapshot as an op").
///
/// Batch members are in announce-scan order (starting at the position's
/// preferred thread), which is their linearization order; replay applies
/// them in member order and response lookup keys on `(tid, seq)`.
/// [`WfHandle::decided_log`] flattens batches so the Wing–Gong checker
/// and the per-op/batched equivalence tests keep per-op granularity.
/// A checkpoint contributes no members: replayers that reach it
/// already hold a replica equal to its image, so they skip it, while a
/// bootstrapping registrant *starts* from it.
#[derive(Debug)]
pub enum LogEntry<S: ObjectSpec> {
    /// One operation. The per-op path always produces this; the
    /// combining path produces it when the collect scan finds a single
    /// pending operation.
    Solo(Entry<S::Op>),
    /// Two or more operations combined by one collect scan, in
    /// announce-scan order. At most one member per thread (the scan
    /// reads each thread's oldest pending op once).
    Batch(Box<[Entry<S::Op>]>),
    /// A checkpointed replica image decided into the log by a handle
    /// whose replay frontier reached the checkpoint cadence. Boxed:
    /// the common Solo/Batch arms must not pay for the image's size.
    Checkpoint(Box<CpImage<S>>),
}

impl<S: ObjectSpec> LogEntry<S> {
    /// The decided operations in linearization order (a `Solo` is a
    /// one-member batch; a `Checkpoint` carries none).
    #[must_use]
    pub fn members(&self) -> &[Entry<S::Op>] {
        match self {
            LogEntry::Solo(e) => std::slice::from_ref(e),
            LogEntry::Batch(m) => m,
            LogEntry::Checkpoint(_) => &[],
        }
    }
}

/// One registry slot: the dynamic-membership replacement for a fixed
/// thread index. A slot carries the announce/help handshake counters,
/// a single announce cell (latest entry wins; the displaced entry is
/// owned and eventually freed by the displacing owner), the helper-side
/// hazard pointers, and the replay frontier that governs segment
/// reclamation. Slots are recycled across registrations — the sequence
/// counter continues, the state machine resets.
struct HandleSlot<Op> {
    /// `SLOT_FREE` / `SLOT_ACTIVE` / `SLOT_RETIRED`.
    state: AtomicUsize,
    /// Operations announced on this slot across all of its owners.
    announced: AtomicUsize,
    /// Operations of this slot threaded onto the log.
    done: AtomicUsize,
    /// The latest announced entry (owned by the slot; replaced by the
    /// owner on each announce, with the predecessor handed to the
    /// owner's limbo list). Null until the slot's first announce.
    cell: AtomicPtr<Entry<Op>>,
    /// Hazard pointer published by this slot's *owner* while it reads
    /// another slot's announce cell (`pending`): the displacing owner's
    /// limbo sweep keeps any entry a hazard covers alive.
    entry_hazard: AtomicPtr<Entry<Op>>,
    /// Hazard on a log segment (stored as an address so the slot stays
    /// generic over `Op` alone), published while this slot's owner
    /// walks the chain from `oldest` (registration bootstrap and the
    /// decided-log diagnostics): the limbo sweep keeps a hazarded
    /// segment alive. Zero when unpinned.
    seg_hazard: AtomicUsize,
    /// This handle's replay frontier: every position below it has been
    /// replayed into the handle's replica, so the handle will never
    /// read a log slot below it again. `usize::MAX` while unpublished,
    /// retired, or dropped — an inactive handle never pins a segment.
    frontier: AtomicUsize,
}

impl<Op> HandleSlot<Op> {
    fn new() -> Self {
        HandleSlot {
            state: AtomicUsize::new(SLOT_FREE),
            announced: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            cell: AtomicPtr::new(ptr::null_mut()),
            entry_hazard: AtomicPtr::new(ptr::null_mut()),
            seg_hazard: AtomicUsize::new(0),
            frontier: AtomicUsize::new(usize::MAX),
        }
    }
}

impl<Op> Drop for HandleSlot<Op> {
    fn drop(&mut self) {
        let p = *self.cell.get_mut();
        if !p.is_null() {
            // SAFETY: the cell owns its current entry (displaced
            // predecessors were handed to their displacer); slots drop
            // exactly once, with the registry, so this frees it once.
            drop(unsafe { Box::from_raw(p) });
        }
    }
}

/// One fixed-size block of the handle registry, covering slot indices
/// `base .. base + REGISTRY_SEGMENT`. Grown with the same one-CAS
/// wait-free idiom as the log's segments.
struct RegSegment<Op> {
    base: usize,
    slots: Box<[HandleSlot<Op>]>,
    next: AtomicPtr<RegSegment<Op>>,
}

impl<Op> RegSegment<Op> {
    fn new(base: usize) -> Box<Self> {
        Box::new(RegSegment {
            base,
            slots: (0..REGISTRY_SEGMENT).map(|_| HandleSlot::new()).collect(),
            next: AtomicPtr::new(ptr::null_mut()),
        })
    }
}

impl<Op> Drop for RegSegment<Op> {
    fn drop(&mut self) {
        // Free the rest of the chain iteratively; each segment's slots
        // (and their announce cells) drop with their Boxes.
        let mut next = std::mem::replace(self.next.get_mut(), ptr::null_mut());
        // progress: bounded — one iteration per registry segment;
        // exclusive access at drop.
        while !next.is_null() {
            // SAFETY: `next` came from `Box::into_raw` in `reg_slot_grow`
            // and is detached before the Box drops, so each segment is
            // freed exactly once.
            let mut seg = unsafe { Box::from_raw(next) };
            next = std::mem::replace(seg.next.get_mut(), ptr::null_mut());
        }
    }
}

/// One fixed-size block of the segmented log. `base` is the global index
/// of `slots[0]`; a null slot is an undecided position. Segments are
/// reachable only through the `oldest` root and `next` links installed
/// by CAS; they are freed by checkpointed reclamation
/// (`Shared::try_reclaim`) or, for whatever remains, when the owning
/// [`Shared`] drops. A decided slot owns the `Box<LogEntry>` behind it.
struct Segment<S: ObjectSpec> {
    base: usize,
    slots: Box<[AtomicPtr<LogEntry<S>>]>,
    next: AtomicPtr<Segment<S>>,
    /// Segments logically own the boxed `LogEntry` behind each decided
    /// slot (dropped in `Drop`); the marker keeps auto-traits honest.
    _own: PhantomData<Box<LogEntry<S>>>,
}

impl<S: ObjectSpec> Segment<S> {
    fn new(base: usize) -> Box<Self> {
        Box::new(Segment {
            base,
            slots: (0..SEGMENT_SIZE).map(|_| AtomicPtr::new(ptr::null_mut())).collect(),
            next: AtomicPtr::new(ptr::null_mut()),
            _own: PhantomData,
        })
    }

    /// One past the last position this segment covers.
    fn end(&self) -> usize {
        self.base + SEGMENT_SIZE
    }
}

impl<S: ObjectSpec> Drop for Segment<S> {
    fn drop(&mut self) {
        for slot in self.slots.iter_mut() {
            let p = *slot.get_mut();
            if !p.is_null() {
                // SAFETY: a non-null slot owns the Box transferred by
                // the winning decide CAS; each segment is dropped
                // exactly once (by reclamation or by `Shared::drop`),
                // so the entry is freed exactly once.
                drop(unsafe { Box::from_raw(p) });
            }
        }
        // Deliberately NOT freeing the `next` chain here: a reclaimed
        // (limbo) segment's link still points into the *live* chain, so
        // chain-freeing would double-free. `Shared::drop` walks and
        // frees the live chain and the limbo list iteratively.
    }
}

/// RAII release of `Shared::reclaim_lock`: storing 0 in `Drop` keeps
/// the try-lock crash-safe — a `failpoint!` crash unwinding out of
/// `try_reclaim` releases the lock on the way out, so a crashed
/// reclaimer never wedges reclamation for everyone else.
struct ReclaimGuard<'a>(&'a AtomicUsize);

impl Drop for ReclaimGuard<'_> {
    fn drop(&mut self) {
        self.0.store(0, Ordering::SeqCst);
    }
}

/// Everything that can differ between two [`WfUniversal`] objects over
/// the same specification. `Default` is the plain hot path: combining,
/// no truncation, no cap, a budget no process outlives.
///
/// | field | `Default` | effect |
/// |-------|-----------|--------|
/// | `combine` | `true` | batch every pending announced op into one decide; `false` threads one op per decide |
/// | `checkpoint_every` | `None` | `Some(e)`: decide a checkpoint every `e` positions and reclaim the segments behind it |
/// | `cap` | `None` | `Some(c)`: positions `≥ c` do not exist ([`UniversalError::LogFull`]); excludes `checkpoint_every` |
/// | `max_ops` | `usize::MAX >> 8` | operations per registration before [`UniversalError::BudgetExhausted`] |
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UniversalConfig {
    /// Combining mode: scan the announce registry and propose all
    /// pending ops as one batch per decide. `false` is the paper's
    /// one-op-per-decide candidate rule (the preferred slot's pending
    /// entry, else the caller's own).
    pub combine: bool,
    /// Checkpoint cadence: decide a [`LogEntry::Checkpoint`] once a
    /// handle's replay frontier is this many positions past the latest
    /// one, and free the segments behind every frontier. `None`
    /// disables truncation entirely (the reclaim bound stays 0 and the
    /// chain root never moves).
    pub checkpoint_every: Option<usize>,
    /// Opt-in position cap, for tests that need to observe
    /// [`UniversalError::LogFull`]; `None` lets the log grow without
    /// bound. The log still grows segment by segment; only the cap is
    /// enforced eagerly.
    pub cap: Option<usize>,
    /// Per-*registration* operation budget: each `register` grants this
    /// many fresh announce sequence numbers on the claimed slot. It
    /// sizes nothing.
    pub max_ops: usize,
}

impl Default for UniversalConfig {
    fn default() -> Self {
        UniversalConfig {
            combine: true,
            checkpoint_every: None,
            cap: None,
            // 2⁵⁶ on a 64-bit target — centuries at any achievable
            // rate. A slot's budget ends at (ops its earlier occupants
            // actually ran) + this, which therefore cannot overflow.
            max_ops: usize::MAX >> 8,
        }
    }
}

struct Shared<S: ObjectSpec> {
    cfg: UniversalConfig,
    /// First registry segment (slot indices 0..REGISTRY_SEGMENT). Later
    /// segments hang off its `next` chain and are owned by it.
    reg_head: Box<RegSegment<S::Op>>,
    /// One past the highest slot index ever claimed — the `hi` that
    /// bounds the helping scan and the restated O(peak active) bound.
    /// Slot reuse keeps this at peak concurrent registrations, not
    /// total arrivals.
    slots_hi: AtomicUsize,
    /// Currently registered handles (diagnostics; a crash mid-retirement
    /// or a dropped-without-retire handle stays counted).
    active: AtomicUsize,
    /// High-water mark of `active` (diagnostics).
    peak_active: AtomicUsize,
    /// Total `register` calls ever (diagnostics).
    arrivals: AtomicUsize,
    /// Root of the live log chain: the oldest segment not yet detached
    /// by reclamation. With checkpointing off this never moves and is
    /// always the base-0 segment.
    oldest: AtomicPtr<Segment<S>>,
    /// Number of segments ever installed (diagnostics; duplicates that
    /// lose the install race are freed and not counted; reclaimed
    /// segments stay counted — see `reclaimed`).
    segments: AtomicUsize,
    /// Number of segments detached *and freed* by reclamation.
    reclaimed: AtomicUsize,
    /// Number of checkpoint entries decided into the log.
    checkpoints: AtomicUsize,
    /// Position of the latest decided checkpoint; 0 means "none yet"
    /// (checkpoints are only ever proposed at positions ≥ 1, so the
    /// sentinel is unambiguous).
    cp_pos: AtomicUsize,
    /// High-water of detached positions: the maximum `end()` of any
    /// segment ever unlinked from the chain, bumped *before* the
    /// unlink is observable. A walker that hopped a `next` link
    /// validates against this to detect that its target may already be
    /// detached (and possibly freed) — without dereferencing it.
    reclaimed_upto: AtomicUsize,
    /// Try-lock (0 free / 1 held) serializing `try_reclaim`. Taken
    /// with one CAS and never waited on: reclamation is a side duty,
    /// and a loser knows the winner is doing the work.
    reclaim_lock: AtomicUsize,
    /// Detached segments awaiting hazard clearance before they can be
    /// freed. Touched only under `reclaim_lock` (and in `Drop`, with
    /// exclusive access).
    limbo: UnsafeCell<Vec<*mut Segment<S>>>,
    /// Heuristic lower bound on the first undecided position.
    hint: AtomicUsize,
}

impl<S: ObjectSpec> fmt::Debug for Shared<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shared")
            .field("cfg", &self.cfg)
            // ordering: Acquire [pairs: universal.slots_hi] —
            // diagnostics read cross-thread state; Acquire keeps the
            // printed values consistent with the structures they
            // describe (uniform rule for observers).
            .field("slots_hi", &self.slots_hi.load(Ordering::Acquire))
            .field("active", &self.active.load(Ordering::SeqCst))
            // ordering: Acquire [pairs: universal.seg_count] — same
            // observer rule as `slots_hi`.
            .field("segments", &self.segments.load(Ordering::Acquire))
            .field("reclaimed", &self.reclaimed.load(Ordering::SeqCst))
            .field("checkpoints", &self.checkpoints.load(Ordering::SeqCst))
            .field("cp_pos", &self.cp_pos.load(Ordering::SeqCst))
            // ordering: Acquire [pairs: universal.hint_pub] — same
            // observer rule as `slots_hi`.
            .field("hint", &self.hint.load(Ordering::Acquire))
            .finish_non_exhaustive()
    }
}

impl<S: ObjectSpec> Drop for Shared<S> {
    fn drop(&mut self) {
        // Free the live chain iteratively (a long log must not recurse
        // once per segment), then whatever reclamation had detached but
        // not yet freed.
        let mut seg = *self.oldest.get_mut();
        // progress: bounded — one iteration per live log segment;
        // exclusive access at drop.
        while !seg.is_null() {
            // SAFETY: `Drop` has exclusive access; every live segment
            // came from `Box::into_raw` and is freed exactly once here
            // (limbo segments are unreachable from `oldest`).
            let mut b = unsafe { Box::from_raw(seg) };
            seg = *b.next.get_mut();
        }
        for &p in self.limbo.get_mut().iter() {
            // SAFETY: limbo holds segments already detached from the
            // chain (never reachable from `oldest` again), each pushed
            // exactly once; with exclusive access they are freed here.
            drop(unsafe { Box::from_raw(p) });
        }
    }
}

impl<S: ObjectSpec> Shared<S> {
    /// One past the highest slot index ever claimed.
    fn registered(&self) -> usize {
        // ordering: Acquire [pairs: universal.slots_hi] — pairs with
        // the AcqRel fetch_max in `register`'s claim, so a reader of `hi` can reach every slot
        // below `hi` through the registry chain (the claimant walked it
        // with Acquire before bumping).
        self.slots_hi.load(Ordering::Acquire)
    }

    /// The registry slot at index `t`, which must already be reachable
    /// (`t` below a value read from `slots_hi`, or below a claim this
    /// thread performed).
    fn reg_slot(&self, t: usize) -> &HandleSlot<S::Op> {
        // SAFETY (all derefs below): registry segment pointers originate
        // from `self.reg_head` or from `next` links installed with
        // Release and read with Acquire; segments are never freed while
        // `self` is alive.
        let mut seg: *const RegSegment<S::Op> = &*self.reg_head;
        // progress: bounded — one hop per installed registry segment; the
        // caller guarantees slot `t`'s segment is already installed.
        loop {
            let s = unsafe { &*seg };
            if t < s.base + REGISTRY_SEGMENT {
                return &s.slots[t - s.base];
            }
            // ordering: Acquire [pairs: universal.reg_install] — pairs
            // with the Release install in `reg_slot_grow`, so the
            // segment's slots are initialized before the link is
            // observable.
            let next = s.next.load(Ordering::Acquire);
            assert!(!next.is_null(), "slot {t} beyond the installed registry");
            seg = next;
        }
    }

    /// The registry slot at index `t`, growing the registry as needed
    /// (the `register` path). Growth is wait-free: allocate the missing
    /// segment, one install CAS, losers free their copy and follow.
    fn reg_slot_grow(&self, t: usize) -> &HandleSlot<S::Op> {
        // SAFETY: see `reg_slot`.
        let mut seg: *const RegSegment<S::Op> = &*self.reg_head;
        // progress: wait-free — every iteration advances one segment (a
        // lost install CAS means the winner's link is there to follow),
        // and slot `t` is a bounded number of segments from the head.
        loop {
            let s = unsafe { &*seg };
            if t < s.base + REGISTRY_SEGMENT {
                return &s.slots[t - s.base];
            }
            // ordering: Acquire [pairs: universal.reg_install] — pairs
            // with the Release install below.
            let next = s.next.load(Ordering::Acquire);
            if !next.is_null() {
                seg = next;
                continue;
            }
            let fresh = Box::into_raw(RegSegment::new(s.base + REGISTRY_SEGMENT));
            // ordering: Release on success [site: universal.reg_install;
            // pairs: universal.reg_install] — publishes the fully
            // built segment (slots, announce cells) with the link;
            // Acquire on failure to safely follow the winner.
            match s.next.compare_exchange(
                ptr::null_mut(),
                fresh,
                Ordering::Release,
                Ordering::Acquire,
            ) {
                Ok(_) => seg = fresh,
                Err(winner) => {
                    // SAFETY: the CAS failed, so `fresh` was never
                    // published; we still own it exclusively.
                    drop(unsafe { Box::from_raw(fresh) });
                    seg = winner;
                }
            }
        }
    }

    /// Visit slots `0..hi` in index order, one linear walk of the
    /// registry chain (the reclaim bound, hazard scans, and limbo
    /// sweeps all use this).
    fn for_each_slot(&self, hi: usize, mut f: impl FnMut(usize, &HandleSlot<S::Op>)) {
        // SAFETY: see `reg_slot`.
        let mut seg: *const RegSegment<S::Op> = &*self.reg_head;
        let mut t = 0usize;
        // progress: bounded — advances `t` one slot per iteration up to
        // `hi`, hopping segments the registry has already installed.
        while t < hi {
            let s = unsafe { &*seg };
            if t >= s.base + REGISTRY_SEGMENT {
                // ordering: Acquire [pairs: universal.reg_install] —
                // pairs with the Release segment install in
                // `reg_slot_grow`.
                let next = s.next.load(Ordering::Acquire);
                if next.is_null() {
                    return; // `hi` outran this thread's view of the chain
                }
                seg = next;
                continue;
            }
            f(t, &s.slots[t - s.base]);
            t += 1;
        }
    }

    /// The oldest announced-but-unthreaded entry on `slot`, if any,
    /// cloned out under `hazard` (the *caller's* entry-hazard slot). A
    /// free, retired-quiescent, or idle slot costs exactly the first
    /// two loads: that is how helpers "stop scanning" departed handles.
    ///
    /// Wait-free hazard protocol, no retry loop: publish the pointer,
    /// re-load the cell once, and *skip* on mismatch — a mismatch means
    /// the owner replaced its announce (its previous op was threaded),
    /// so there is nothing left to help here. ABA on a recycled
    /// allocation address — routine, since owners re-announce into
    /// their own swept entries — is benign: validation succeeding means
    /// the pointer is the cell's *current* entry (alive, owned by the
    /// slot, written before the store that put it there), and the
    /// `seq == done` check rejects any entry that is not the oldest
    /// pending one.
    fn pending(
        &self,
        slot: &HandleSlot<S::Op>,
        hazard: &AtomicPtr<Entry<S::Op>>,
    ) -> Option<Entry<S::Op>> {
        // SeqCst on both counters: the announce/help handshake. Seeing
        // `announced > done` must imply the announce cell is populated,
        // which the announcing owner guarantees by storing the cell
        // before its SeqCst store to `announced`.
        let d = slot.done.load(Ordering::SeqCst);
        let a = slot.announced.load(Ordering::SeqCst);
        if d >= a {
            return None;
        }
        let p = slot.cell.load(Ordering::SeqCst);
        if p.is_null() {
            return None;
        }
        hazard.store(p, Ordering::SeqCst);
        if slot.cell.load(Ordering::SeqCst) != p {
            // The owner displaced the entry between our load and the
            // hazard publish; its limbo sweep may not have seen our
            // hazard, so `p` may already be freed. Do not touch it.
            hazard.store(ptr::null_mut(), Ordering::SeqCst);
            return None;
        }
        // SAFETY: the validating re-load makes the deref sound in the
        // SeqCst total order: if the owner's displacing store preceded
        // our re-load we would have seen the new pointer, so the store
        // follows our hazard publish — and the owner's limbo sweep
        // (which follows its store) then sees our hazard and keeps `p`
        // alive until we clear it below.
        let e = unsafe { &*p };
        let out = if e.seq == d { Some(e.clone()) } else { None };
        hazard.store(ptr::null_mut(), Ordering::SeqCst);
        out
    }

    /// [`Shared::pending`] by slot index (the per-op candidate path).
    fn pending_at(
        &self,
        t: usize,
        hazard: &AtomicPtr<Entry<S::Op>>,
    ) -> Option<Entry<S::Op>> {
        self.pending(self.reg_slot(t), hazard)
    }

    /// Gather the pending entries of slots `from..to` (one linear walk
    /// of the registry chain) into `members`. The caller's own slot is
    /// read without the hazard dance — the caller owns its cell — and
    /// without a clone: if `own` is still pending, `own_at` records the
    /// index it takes in scan order, and `collect_candidate` inserts it
    /// only when some *other* slot turned out to be pending too.
    fn pending_range(
        &self,
        from: usize,
        to: usize,
        own: &Entry<S::Op>,
        hazard: &AtomicPtr<Entry<S::Op>>,
        members: &mut Vec<Entry<S::Op>>,
        own_at: &mut Option<usize>,
    ) {
        if from >= to {
            return;
        }
        // SAFETY: see `reg_slot`.
        let mut seg: *const RegSegment<S::Op> = &*self.reg_head;
        let mut t = from;
        // progress: bounded — advances `t` one slot per iteration over
        // the `from..to` window.
        while t < to {
            let s = unsafe { &*seg };
            if t >= s.base + REGISTRY_SEGMENT {
                // ordering: Acquire [pairs: universal.reg_install] —
                // pairs with the Release segment install in
                // `reg_slot_grow`.
                let next = s.next.load(Ordering::Acquire);
                if next.is_null() {
                    return; // `to` outran this thread's view; nothing there to help
                }
                seg = next;
                continue;
            }
            let slot = &s.slots[t - s.base];
            if t == own.tid {
                // Own slot: the caller owns the cell, no hazard needed;
                // and the entry is by definition `own` while undone.
                if slot.done.load(Ordering::SeqCst) <= own.seq {
                    *own_at = Some(members.len());
                }
            } else if let Some(e) = self.pending(slot, hazard) {
                members.push(e);
            }
            t += 1;
        }
    }

    /// Whether any registered slot's segment hazard currently covers
    /// `x` (a detached segment may only be freed when none does).
    fn seg_pinned(&self, x: *mut Segment<S>) -> bool {
        let mut pinned = false;
        self.for_each_slot(self.registered(), |_, slot| {
            if slot.seg_hazard.load(Ordering::SeqCst) == x as usize {
                pinned = true;
            }
        });
        pinned
    }

    /// The position below which no live reader will ever look again:
    /// the minimum of the latest checkpoint position and every
    /// registered slot's published replay frontier. Inactive slots
    /// publish `usize::MAX`, which the min ignores; starting at
    /// `cp_pos` both bounds the result by the newest checkpoint (so a
    /// bootstrapping registrant always finds one in the retained
    /// chain) and makes "no checkpoint yet" reclaim nothing.
    fn reclaim_bound(&self) -> usize {
        let mut b = self.cp_pos.load(Ordering::SeqCst);
        self.for_each_slot(self.registered(), |_, slot| {
            b = b.min(slot.frontier.load(Ordering::SeqCst));
        });
        b
    }

    /// Pin the current chain root in `slot`'s segment hazard and return
    /// it. The store-then-revalidate loop retries only when a
    /// concurrent reclaimer detached the root between our load and the
    /// hazard publish — distinct progress elsewhere, the same
    /// accounting as the registry claim scan. On return, the root
    /// cannot be freed until the hazard is cleared: any detach of it
    /// follows our revalidating load in the SeqCst total order, so the
    /// detacher's sweep sees our hazard.
    fn pin_oldest(&self, slot: &HandleSlot<S::Op>) -> *const Segment<S> {
        // progress: lock-free — a retry means a reclaimer advanced
        // `oldest` between our load and revalidation; detaches are
        // bounded by decided checkpoints.
        loop {
            let o = self.oldest.load(Ordering::SeqCst);
            slot.seg_hazard.store(o as usize, Ordering::SeqCst);
            if self.oldest.load(Ordering::SeqCst) == o {
                return o;
            }
        }
    }

    /// Detach and free every log segment wholly behind the reclaim
    /// bound. One CAS try-lock attempt — a loser returns immediately
    /// (the winner is doing the work), keeping this wait-free. Runs
    /// after each decided checkpoint, on retire, and on handle drop;
    /// also directly via [`WfUniversal::reclaim`].
    ///
    /// Two phases under the lock:
    ///
    /// 1. **Detach**: unlink chain-root segments with `end() ≤ bound`,
    ///    recording `reclaimed_upto` *before* each unlink so walkers
    ///    that hopped past can detect it, and never unlinking the last
    ///    installed segment.
    /// 2. **Sweep**: free limbo segments no segment hazard covers —
    ///    checking the hazard *first* and recomputing the bound fresh
    ///    *second*. The order is load-bearing: a bootstrapping
    ///    registrant publishes its frontier before clearing its
    ///    hazard, so passing the hazard check guarantees the fresh
    ///    bound already reflects that registrant's frontier.
    fn try_reclaim(&self) {
        if self.cfg.checkpoint_every.is_none() {
            return;
        }
        if self
            .reclaim_lock
            .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return;
        }
        let _guard = ReclaimGuard(&self.reclaim_lock);
        failpoint!("universal::reclaim");
        // SAFETY: `limbo` is only touched under `reclaim_lock` (held
        // here, released by the guard even on unwind) or with exclusive
        // access in `Drop`, so this is the only live reference.
        let limbo = unsafe { &mut *self.limbo.get() };
        // progress: bounded — each iteration detaches the chain root;
        // stops at the reclaim bound or the last installed segment.
        loop {
            let b = self.reclaim_bound();
            let x = self.oldest.load(Ordering::SeqCst);
            // SAFETY: the chain root is only detached under this lock,
            // and detached segments are freed only by the sweep below /
            // `Drop`; `x` is therefore alive here.
            let xr = unsafe { &*x };
            if xr.end() > b {
                break;
            }
            let next = xr.next.load(Ordering::SeqCst);
            if next.is_null() {
                break; // never detach the last installed segment
            }
            // Record the detach high-water BEFORE the unlink is
            // observable: a walker that follows `x`'s link and then
            // sees `reclaimed_upto ≤ x.end()` knows its hop target was
            // still chained when it validated.
            self.reclaimed_upto.fetch_max(xr.end(), Ordering::SeqCst);
            self.oldest.store(next, Ordering::SeqCst);
            limbo.push(x);
        }
        let mut i = 0;
        // progress: bounded — one hazard-and-free check per limbo entry;
        // `i` advances past every entry kept.
        while i < limbo.len() {
            let x = limbo[i];
            if self.seg_pinned(x) {
                i += 1;
                continue;
            }
            // Hazard check passed — NOW recompute the bound, so any
            // walker that just finished bootstrapping (frontier stored,
            // hazard cleared, in that order) is accounted for.
            let b = self.reclaim_bound();
            // SAFETY: `x` is detached and only this (locked) sweep or
            // `Drop` frees limbo entries; alive here.
            if unsafe { &*x }.end() > b {
                i += 1;
                continue;
            }
            limbo.swap_remove(i);
            // SAFETY: `x` is unreachable from `oldest` (detached), no
            // hazard covered it after the detach, and every published
            // frontier is at or past its end — no reader can reach it
            // again, so this free is the only and final one.
            drop(unsafe { Box::from_raw(x) });
            self.reclaimed.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// The segment containing position `k`, walking forward from `seg`
    /// (which must satisfy `seg.base <= k` and be protected from
    /// reclamation — every caller passes a cached pointer whose
    /// segment's `end()` exceeds the handle's published frontier, which
    /// the reclaim bound never passes) and growing the log as needed.
    ///
    /// Growth is wait-free: a thread allocates the missing segment and
    /// makes exactly one install attempt; on failure it frees its copy
    /// and follows the winner.
    fn seg_for(&self, mut seg: *const Segment<S>, k: usize) -> *const Segment<S> {
        // SAFETY (all derefs below): the starting segment is alive (see
        // above), and everything reached through `next` links covers
        // higher positions — also above the caller's frontier, so also
        // outside the reclaim bound while the caller holds its cache.
        // progress: wait-free — every iteration advances one segment (a
        // lost install CAS means the winner's link is there to follow),
        // and the target position is a bounded number of segments ahead.
        loop {
            let s = unsafe { &*seg };
            debug_assert!(s.base <= k);
            if k < s.base + SEGMENT_SIZE {
                return seg;
            }
            // ordering: Acquire [pairs: universal.seg_install] — pairs
            // with the Release install below, so the new segment's
            // header and nulled slots are initialized before we can
            // observe the link.
            let next = s.next.load(Ordering::Acquire);
            if !next.is_null() {
                seg = next;
                continue;
            }
            let fresh = Box::into_raw(Segment::new(s.base + SEGMENT_SIZE));
            // ordering: Release on success [site: universal.seg_install;
            // pairs: universal.seg_install] — publishes the fully
            // built segment together with the link; Acquire on
            // failure to safely follow the winner's segment.
            match s.next.compare_exchange(
                ptr::null_mut(),
                fresh,
                Ordering::Release,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    // ordering: AcqRel [site: universal.seg_count;
                    // pairs: universal.seg_count] — the diagnostic
                    // counter chains installer clocks, so an Acquire
                    // reader of the count also inherits every earlier
                    // install (keeps the counter meaningful off-thread;
                    // off the hot path).
                    self.segments.fetch_add(1, Ordering::AcqRel);
                    seg = fresh;
                }
                Err(winner) => {
                    // SAFETY: the CAS failed, so `fresh` was never
                    // published; we still own it exclusively.
                    drop(unsafe { Box::from_raw(fresh) });
                    seg = winner;
                }
            }
        }
    }

    /// The slot of global position `k` inside `seg` (which must contain
    /// `k`).
    fn slot(&self, seg: *const Segment<S>, k: usize) -> &AtomicPtr<LogEntry<S>> {
        // SAFETY: see `seg_for` — the caller's cached segment is
        // protected by its published frontier.
        let s = unsafe { &*seg };
        debug_assert!(s.base <= k && k < s.base + SEGMENT_SIZE);
        &s.slots[k - s.base]
    }

    /// Run pointer consensus on `slot`: propose `candidate`, return the
    /// winner plus whether our proposal won. The single CAS is the
    /// decide of Theorem 7; on success the slot takes ownership of the
    /// candidate box. On failure the candidate comes back to the caller
    /// (so an own-op Solo box is re-proposed, not re-allocated, at the
    /// next position).
    fn decide(
        &self,
        slot: &AtomicPtr<LogEntry<S>>,
        candidate: Box<LogEntry<S>>,
    ) -> (*const LogEntry<S>, bool, Option<Box<LogEntry<S>>>) {
        let proposed = Box::into_raw(candidate);
        // ordering: SeqCst success [site: universal.decide;
        // pairs: universal.decide, universal.cp_install] — the
        // linearization point, one of
        // the two SeqCst sites this crate keeps deliberately (the
        // other is the announce/done handshake): every decide must
        // take effect in one total order all threads agree on, which
        // release/acquire alone does not give. Acquire
        // failure — pairs with the winner's (SeqCst ⊇ Release) store
        // so the winning LogEntry's members are visible before we
        // read them.
        match slot.compare_exchange(
            ptr::null_mut(),
            proposed,
            Ordering::SeqCst,
            Ordering::Acquire,
        ) {
            Ok(_) => (proposed.cast_const(), true, None),
            Err(winner) => {
                // SAFETY: the CAS failed, so `proposed` was never
                // published; we still own it exclusively.
                let back = unsafe { Box::from_raw(proposed) };
                (winner.cast_const(), false, Some(back))
            }
        }
    }
}

// SAFETY: `Shared` is a bag of atomics plus raw segment/entry pointers
// that are only mutated via atomic CAS/store protocols and freed exactly
// once (reclaim sweep under `reclaim_lock`, or `Drop`); the `limbo`
// `UnsafeCell` is only touched while holding `reclaim_lock` (one holder
// by CAS) or with `&mut self` in `Drop`. Thread-safety therefore reduces
// to the payload's: `S: Send + Sync` (checkpoint images live in the log)
// and `Op: Send + Sync` make the shared structure safe to hand across
// threads.
unsafe impl<S: ObjectSpec + Send + Sync> Send for Shared<S> where S::Op: Send + Sync {}
unsafe impl<S: ObjectSpec + Send + Sync> Sync for Shared<S> where S::Op: Send + Sync {}

/// A wait-free universal object wrapping a sequential specification `S`.
///
/// The object is a cloneable front-end over the shared state; clients
/// join and leave dynamically. Build it with
/// [`WfUniversal::with_config`], call [`WfUniversal::register`] to
/// obtain a [`WfHandle`] per client and [`WfHandle::retire`] when a
/// client departs. See [`crate::wrappers`] for typed instantiations.
///
/// # Example
///
/// ```
/// use waitfree_objects::counter::{Counter, CounterOp, CounterResp};
/// use waitfree_sync::universal::{UniversalConfig, WfUniversal};
///
/// let obj = WfUniversal::with_config(Counter::new(0), UniversalConfig::default());
/// let mut a = obj.register();
/// assert_eq!(a.invoke(CounterOp::FetchAndAdd(5)), CounterResp::Value(0));
/// let mut b = obj.register(); // a second client, registry slot 1
/// assert_eq!(b.invoke(CounterOp::Get), CounterResp::Value(5));
/// a.retire();
/// let mut c = obj.register(); // reuses a's registry slot
/// assert_eq!(c.tid(), 0);
/// assert_eq!(c.invoke(CounterOp::Get), CounterResp::Value(5));
/// assert_eq!(obj.registry_slots(), 2);
///
/// // Bounded memory for a long-running service: checkpoint every 64
/// // positions and free the segments behind every replica.
/// let cfg = UniversalConfig { checkpoint_every: Some(64), ..UniversalConfig::default() };
/// let service = WfUniversal::with_config(Counter::new(0), cfg);
/// let mut h = service.register();
/// for _ in 0..1_000 {
///     h.invoke(CounterOp::Add(1));
/// }
/// assert!(service.reclaimed_segments() > 0);
/// ```
pub struct WfUniversal<S: ObjectSpec> {
    shared: Arc<Shared<S>>,
    /// The initial abstract state, cloned into each registered handle's
    /// local replica (every replica replays the same log from it — or,
    /// with checkpointing, from a retained checkpoint image).
    initial: S,
}

impl<S: ObjectSpec> Clone for WfUniversal<S> {
    fn clone(&self) -> Self {
        WfUniversal { shared: Arc::clone(&self.shared), initial: self.initial.clone() }
    }
}

impl<S: ObjectSpec> fmt::Debug for WfUniversal<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WfUniversal").field("shared", &self.shared).finish_non_exhaustive()
    }
}

impl<S: ObjectSpec> WfUniversal<S> {
    /// Build the object over `initial` as `cfg` describes (see
    /// [`UniversalConfig`] for the fields and their defaults). No
    /// process set is fixed: each [`WfUniversal::register`] call claims
    /// (or recycles) a registry slot and grants a fresh `cfg.max_ops`
    /// operation budget.
    ///
    /// The log starts as a single [`SEGMENT_SIZE`] segment and grows
    /// lazily: memory is O(positions actually decided). Without
    /// `checkpoint_every` it is never truncated.
    ///
    /// # Panics
    ///
    /// If `cfg.checkpoint_every` is `Some(0)`, or is set together with
    /// `cfg.cap`: a capped log never truncates, so the pair has no
    /// meaning.
    #[must_use]
    pub fn with_config(initial: S, cfg: UniversalConfig) -> Self {
        assert!(cfg.checkpoint_every != Some(0), "checkpoint_every must be at least 1");
        assert!(
            cfg.checkpoint_every.is_none() || cfg.cap.is_none(),
            "checkpoint_every and cap are mutually exclusive"
        );
        WfUniversal {
            shared: Arc::new(Shared {
                cfg,
                reg_head: RegSegment::new(0),
                slots_hi: AtomicUsize::new(0),
                active: AtomicUsize::new(0),
                peak_active: AtomicUsize::new(0),
                arrivals: AtomicUsize::new(0),
                oldest: AtomicPtr::new(Box::into_raw(Segment::new(0))),
                segments: AtomicUsize::new(1),
                reclaimed: AtomicUsize::new(0),
                checkpoints: AtomicUsize::new(0),
                cp_pos: AtomicUsize::new(0),
                reclaimed_upto: AtomicUsize::new(0),
                reclaim_lock: AtomicUsize::new(0),
                limbo: UnsafeCell::new(Vec::new()),
                hint: AtomicUsize::new(0),
            }),
            initial,
        }
    }

    /// [`WfUniversal::with_config`] with `checkpoint_every: Some(every)`
    /// and the given budget. Exists only because the repository's
    /// benchmark (`benchmark/src/sut.rs`, frozen between benchmark PRs)
    /// spells the checkpointed configuration this way; new code passes
    /// a [`UniversalConfig`].
    #[must_use]
    pub fn new_dynamic_checkpointed(initial: S, max_ops: usize, every: usize) -> Self {
        Self::with_config(
            initial,
            UniversalConfig { checkpoint_every: Some(every), max_ops, ..UniversalConfig::default() },
        )
    }

    /// Join the object: claim a registry slot and return a fresh handle
    /// with a full `max_ops` budget.
    ///
    /// Wait-free in the infinite-arrival sense: the claim scan loses a
    /// CAS (or skips a just-taken slot) only when a *different*
    /// concurrent `register` succeeded, so its step count is bounded by
    /// the number of concurrently arriving clients plus the registry
    /// high-water — never by total arrivals. Retired-and-quiesced slots
    /// encountered on the way are reclaimed and reused (that is what
    /// keeps registry memory bounded by peak active handles).
    ///
    /// With checkpointing the new handle bootstraps its replica
    /// from the *oldest* checkpoint in the retained log — the first
    /// one the walk from the retained root finds — instead of
    /// replaying from position 0 (which may be truncated away); it
    /// then replays the remaining retained suffix, so adopting an
    /// older checkpoint costs extra replay, never correctness. The
    /// walk pins segments with the slot's hazard and publishes the
    /// adopted frontier before unpinning, so reclamation can never
    /// free a segment out from under it.
    #[must_use]
    pub fn register(&self) -> WfHandle<S> {
        failpoint!("universal::register");
        let shared = &self.shared;
        let mut t = 0usize;
        // progress: wait-free — a claim CAS can fail only to another
        // registrant's success, and `t` then advances, so iterations are
        // bounded by slots claimed ahead of us plus the chain length.
        let slot: &HandleSlot<S::Op> = loop {
            let slot = shared.reg_slot_grow(t);
            let claimable = match slot.state.load(Ordering::SeqCst) {
                SLOT_FREE => true,
                SLOT_RETIRED => {
                    // Lazy reclamation: a departed slot with nothing
                    // pending goes back in the free pool. (A retired
                    // slot with a pending op — its owner crashed
                    // mid-operation or hit LogFull — stays helpable and
                    // unclaimed until the op is threaded.)
                    let d = slot.done.load(Ordering::SeqCst);
                    let a = slot.announced.load(Ordering::SeqCst);
                    d >= a
                        && slot
                            .state
                            .compare_exchange(
                                SLOT_RETIRED,
                                SLOT_FREE,
                                Ordering::SeqCst,
                                Ordering::SeqCst,
                            )
                            .is_ok()
                }
                _ => false,
            };
            if claimable
                && slot
                    .state
                    .compare_exchange(SLOT_FREE, SLOT_ACTIVE, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                break slot;
            }
            // Every miss above means some concurrent register() claimed
            // this slot (or a racer reclaimed-and-claimed it): distinct
            // progress elsewhere, the wait-free accounting.
            t += 1;
        };
        // ordering: AcqRel [site: universal.slots_hi;
        // pairs: universal.slots_hi] — publishes the claim's slot
        // index so any reader of `slots_hi` can reach slot `t` through
        // the registry chain this thread just walked with Acquire.
        shared.slots_hi.fetch_max(t + 1, Ordering::AcqRel);
        let now = shared.active.fetch_add(1, Ordering::SeqCst) + 1;
        shared.peak_active.fetch_max(now, Ordering::SeqCst);
        shared.arrivals.fetch_add(1, Ordering::SeqCst);
        // Sequence numbers continue where the previous owner stopped
        // (FREE implies announced == done), keeping per-slot seqs
        // monotone across reuse for the replay dedup.
        let base = slot.announced.load(Ordering::SeqCst);
        // Belt and braces: a previous owner's crash could have left a
        // stale hazard published; we own the slot now.
        slot.entry_hazard.store(ptr::null_mut(), Ordering::SeqCst);

        // Bootstrap the replica. Without checkpointing, reclamation
        // never runs: replay starts at position 0 in the immortal
        // base-0 segment.
        let anchor: *const Segment<S>;
        let mut state = self.initial.clone();
        let mut applied: Vec<usize> = Vec::new();
        let mut cursor = 0usize;
        if shared.cfg.checkpoint_every.is_none() {
            slot.frontier.store(0, Ordering::SeqCst);
            anchor = shared.oldest.load(Ordering::SeqCst);
        } else {
            // Checkpointed: walk the retained log from the pinned root
            // and adopt the first checkpoint found (a valid image of
            // the whole truncated prefix). If the walk hits the
            // undecided frontier (or the chain end) without one, the
            // log was never truncated — provided no checkpoint exists
            // at all, which the cp_pos re-check certifies *after* our
            // frontier-0 store: in the SeqCst total order our store
            // precedes our cp_pos read, which (reading 0) precedes any
            // checkpoint decide's fetch_max, which precedes any
            // reclaimer's cp_pos read, which precedes its frontier
            // scan — so every reclaimer that could detach the root
            // sees our 0 frontier first and keeps it.
            // progress: lock-free — a restart means a reclaimer detached a
            // segment under this walk; detaches are bounded by decided
            // checkpoints.
            anchor = 'adopt: loop {
                let root = shared.pin_oldest(slot);
                let mut seg = root;
                // progress: bounded — one hop per installed segment between
                // `root` and the first decided checkpoint (truncation keeps one).
                loop {
                    // SAFETY: `root` is hazard-pinned; every later
                    // segment reached below is hop-validated against
                    // `reclaimed_upto` before being dereferenced.
                    let s = unsafe { &*seg };
                    let mut undecided = false;
                    for (i, ls) in s.slots.iter().enumerate() {
                        let raw = ls.load(Ordering::SeqCst);
                        if raw.is_null() {
                            undecided = true;
                            break;
                        }
                        // SAFETY: a non-null slot owns its decided
                        // entry; the segment holding it is pinned (or
                        // hop-validated) so the entry is alive.
                        if let LogEntry::Checkpoint(img) = unsafe { &*raw } {
                            let q = s.base + i;
                            // Publish the frontier first, then prove no
                            // reclaimer working from a bound that
                            // predates it has started on a *later*
                            // segment: the hazard covers `seg` alone,
                            // and replay from `q` follows its links.
                            // Detaches run oldest-first and record
                            // `reclaimed_upto` before unlinking, so a
                            // value at or below `seg`'s end means every
                            // later segment is still chained — and any
                            // sweep that could free one recomputes its
                            // bound after this store and keeps it.
                            slot.frontier.store(q, Ordering::SeqCst);
                            if shared.reclaimed_upto.load(Ordering::SeqCst) > s.end() {
                                slot.frontier.store(usize::MAX, Ordering::SeqCst);
                                continue 'adopt;
                            }
                            state = img.state.clone();
                            applied = img.applied.clone();
                            cursor = q + 1;
                            break 'adopt seg;
                        }
                    }
                    if undecided {
                        slot.frontier.store(0, Ordering::SeqCst);
                        if shared.cp_pos.load(Ordering::SeqCst) == 0 {
                            // No checkpoint has ever been decided, so
                            // nothing was ever truncated: the root is
                            // the base-0 segment and replay-from-0 is
                            // sound (and now pinned by our frontier).
                            break 'adopt root;
                        }
                        // A checkpoint appeared mid-walk (we scanned
                        // its position while still null). Rewalk: the
                        // decided prefix is contiguous and the newest
                        // checkpoint's segment is retained, so the
                        // next pass finds one. Each rewalk implies a
                        // concurrent checkpoint decide — progress
                        // elsewhere, the usual accounting.
                        slot.frontier.store(usize::MAX, Ordering::SeqCst);
                        continue 'adopt;
                    }
                    let next = s.next.load(Ordering::SeqCst);
                    if next.is_null() {
                        // Chain end without a checkpoint: same
                        // certification as the undecided case.
                        slot.frontier.store(0, Ordering::SeqCst);
                        if shared.cp_pos.load(Ordering::SeqCst) == 0 {
                            break 'adopt root;
                        }
                        slot.frontier.store(usize::MAX, Ordering::SeqCst);
                        continue 'adopt;
                    }
                    // Hop: move the hazard to the next segment, then
                    // prove it was still chained (not detached) when we
                    // look — without dereferencing it. The chain
                    // invariant gives next.base == s.end(); if any
                    // segment with end() > s.end()'s predecessor — i.e.
                    // reclaimed_upto > s.end() — was detached, `next`
                    // itself may be gone: restart. Otherwise any later
                    // detach of `next` follows our hazard publish in
                    // the SeqCst order and its sweep sees the hazard.
                    // `s.end()` is read *before* the hazard moves to
                    // `next`: the store unpins `s`, and a concurrent
                    // sweep may free it in the same instant.
                    let s_end = s.end();
                    slot.seg_hazard.store(next as usize, Ordering::SeqCst);
                    if shared.reclaimed_upto.load(Ordering::SeqCst) > s_end {
                        continue 'adopt;
                    }
                    seg = next;
                }
            };
            // Unpin only after the adopted frontier is published: the
            // sweep checks hazards before recomputing the bound, so
            // clearing here can never let the anchor be freed.
            slot.seg_hazard.store(0, Ordering::SeqCst);
        }
        WfHandle {
            shared: Arc::clone(shared),
            tid: t,
            slot: slot as *const HandleSlot<S::Op>,
            state,
            applied,
            cursor,
            replay_seg: anchor,
            thread_seg: anchor,
            entry_limbo: Vec::new(),
            entry_free: Vec::new(),
            entry_hazards: Vec::new(),
            // What the bootstrap above stored: 0 with nothing adopted
            // (`cursor` 0), else the adopted checkpoint's position.
            published_frontier: cursor.saturating_sub(1),
            next_seq: base,
            budget_end: base + shared.cfg.max_ops,
            retired: false,
            last_threading_steps: 0,
            max_threading_steps: 0,
            decides: 0,
            cas_failures: 0,
            invokes: 0,
            last_pos: None,
        }
    }

    /// Currently registered handles. A handle dropped without
    /// [`WfHandle::retire`] (a crashed client) stays counted — it still
    /// occupies its slot.
    #[must_use]
    pub fn active_handles(&self) -> usize {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// High-water mark of [`Self::active_handles`].
    #[must_use]
    pub fn peak_active(&self) -> usize {
        self.shared.peak_active.load(Ordering::SeqCst)
    }

    /// Total [`Self::register`] calls over the object's life.
    #[must_use]
    pub fn total_arrivals(&self) -> usize {
        self.shared.arrivals.load(Ordering::SeqCst)
    }

    /// One past the highest registry slot index ever claimed — the
    /// registry's memory footprint witness (allocated registry segments
    /// are `ceil(registry_slots / REGISTRY_SEGMENT)`). Slot reuse keeps
    /// this bounded by peak *concurrently active* handles (plus
    /// transient claim races), never by [`Self::total_arrivals`].
    #[must_use]
    pub fn registry_slots(&self) -> usize {
        self.shared.registered()
    }

    /// Log segments ever installed (each [`SEGMENT_SIZE`] positions),
    /// including ones since reclaimed. Starts at 1.
    #[must_use]
    pub fn installed_segments(&self) -> usize {
        // ordering: Acquire [pairs: universal.seg_count] — pairs with
        // the AcqRel fetch_add in `seg_for`, so a count of `n` implies
        // the `n`th install is visible to this reader.
        self.shared.segments.load(Ordering::Acquire)
    }

    /// Log segments detached and freed by checkpointed reclamation.
    /// Always 0 without checkpointing.
    #[must_use]
    pub fn reclaimed_segments(&self) -> usize {
        self.shared.reclaimed.load(Ordering::SeqCst)
    }

    /// Log segments currently allocated: installed minus reclaimed
    /// (detached-but-hazard-pinned limbo segments count as live — they
    /// still hold memory). The bounded-memory witness: under sustained
    /// checkpointed traffic this flattens out at O(frontier spread /
    /// [`SEGMENT_SIZE`]) while `installed_segments` keeps climbing.
    #[must_use]
    pub fn live_segments(&self) -> usize {
        self.installed_segments() - self.reclaimed_segments()
    }

    /// Checkpoint entries decided into the log so far.
    #[must_use]
    pub fn checkpoints(&self) -> usize {
        self.shared.checkpoints.load(Ordering::SeqCst)
    }

    /// Run a reclamation pass now (detach + sweep), as invokes do after
    /// deciding a checkpoint. Useful for tests and for forcing the
    /// final sweep after handles retire; a no-op without checkpointing
    /// or when another thread holds the reclaim lock.
    pub fn reclaim(&self) {
        self.shared.try_reclaim();
    }
}

/// One client's handle onto a [`WfUniversal`] object. Not `Clone`: the
/// registry-slot identity is baked in. Obtained from
/// [`WfUniversal::register`]; returned to the pool with
/// [`WfHandle::retire`]. Dropping a handle
/// *without* retiring models a crashed client: its slot stays claimed
/// (one slot leaked, nothing else) and any pending op stays helpable —
/// but the drop still unpins the handle's frontier and hazards, so a
/// crashed client never holds back segment reclamation.
#[derive(Debug)]
pub struct WfHandle<S: ObjectSpec> {
    shared: Arc<Shared<S>>,
    tid: usize,
    /// The claimed registry slot (cached; always `shared.reg_slot(tid)`).
    slot: *const HandleSlot<S::Op>,
    /// Cached replica, replayed up to `cursor`.
    state: S,
    /// Per-slot watermark of applied sequence numbers (deduplication),
    /// grown on demand as higher slot indices appear in the log.
    applied: Vec<usize>,
    /// First log position not yet replayed.
    cursor: usize,
    /// Segment containing `cursor` (invariant: `base <= cursor`); both
    /// only move forward, so the cache never has to back up. Never
    /// reclaimed while cached: its `end()` exceeds the published
    /// frontier, which the reclaim bound cannot pass.
    replay_seg: *const Segment<S>,
    /// Segment cache for the threading loop, whose position is likewise
    /// monotone (it starts at `max(hint, cursor)` — the clamp keeps it
    /// at or above the published frontier, hence unreclaimable).
    thread_seg: *const Segment<S>,
    /// Announce entries this handle displaced from its cell and not yet
    /// recycled (a helper's hazard may still cover the latest few).
    /// Swept opportunistically every [`ENTRY_LIMBO_SWEEP`]
    /// displacements and on drop; bounded by the sweep cadence plus one
    /// survivor per concurrently stalled helper.
    entry_limbo: Vec<*mut Entry<S::Op>>,
    /// Displaced entries a sweep found unpinned: allocations this
    /// handle owns outright, overwritten in place by its next
    /// announces. Fed only by `entry_limbo`, so bounded like it; freed
    /// on drop.
    entry_free: Vec<*mut Entry<S::Op>>,
    /// The non-null entry hazards the last limbo sweep read (scratch
    /// reused across sweeps; almost always empty).
    entry_hazards: Vec<*mut Entry<S::Op>>,
    /// The value this handle last stored to its slot's `frontier`
    /// (`publish_frontier` skips the store while `cursor` equals it).
    published_frontier: usize,
    next_seq: usize,
    /// One past the last sequence number this registration's `max_ops`
    /// budget covers (`base + max_ops`, where `base` was the slot's
    /// `announced` at claim time).
    budget_end: usize,
    /// Set by [`WfHandle::retire`]; all later invokes return
    /// [`UniversalError::Retired`].
    retired: bool,
    /// Threading-loop iterations (consensus decides) of the last invoke.
    last_threading_steps: usize,
    /// Maximum threading-loop iterations over any single invoke.
    max_threading_steps: usize,
    /// Total consensus decides (CAS attempts) across this handle's life.
    decides: usize,
    /// Decides whose CAS lost to a concurrent winner.
    cas_failures: usize,
    /// Completed `invoke`/`try_invoke` calls (Ok only).
    invokes: usize,
    /// Log position whose decide applied this handle's most recent op
    /// (`None` before the first completed invoke).
    last_pos: Option<usize>,
}

// SAFETY: the raw segment/slot pointers cached here always point into
// chains owned by `shared`, which the handle keeps alive via its
// `Arc<Shared<S>>` (and, for log segments, pins against reclamation via
// its published frontier); `entry_limbo` holds entries this handle
// exclusively owns. The handle is therefore exactly as thread-safe as
// its owned state (`S`) plus the shared structure (see `Shared`'s
// impls).
unsafe impl<S: ObjectSpec + Send + Sync> Send for WfHandle<S> where S::Op: Send + Sync {}

impl<S: ObjectSpec> WfHandle<S> {
    /// This handle's registry slot index (its thread identity in log
    /// entries and `Pid`s).
    #[must_use]
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// The registered-slot high-water: one past the highest slot index
    /// ever claimed — the `n` of the O(peak active handles) helping
    /// bound.
    #[must_use]
    pub fn n(&self) -> usize {
        self.shared.registered()
    }

    /// Leave the object: all later invokes on this handle return
    /// [`UniversalError::Retired`], and the registry slot becomes
    /// reclaimable — immediately if nothing is pending on it, otherwise
    /// lazily once helpers thread the pending op (the slot is freed by
    /// the next `register` scan that finds it quiesced). The handle's
    /// replay frontier is unpinned *first*, so a retiring (or crashing-
    /// mid-retire) client never holds back segment reclamation.
    /// Idempotent.
    pub fn retire(&mut self) {
        if self.retired {
            return;
        }
        self.retired = true;
        // SAFETY: `slot` points into the registry chain owned by
        // `shared`, alive for the life of this handle.
        let slot = unsafe { &*self.slot };
        // Unpin before anything else — including before the failpoint —
        // so even a crash mid-retire stops pinning segments. Hazards
        // are already clear in normal operation (pending/walks clear
        // them on every exit path); clearing again covers a handle
        // reused after a caught crash. Must precede the RETIRED store:
        // once the slot is reclaimable a new owner may claim it, and
        // these words are then the new owner's.
        slot.frontier.store(usize::MAX, Ordering::SeqCst);
        slot.seg_hazard.store(0, Ordering::SeqCst);
        slot.entry_hazard.store(ptr::null_mut(), Ordering::SeqCst);
        slot.state.store(SLOT_RETIRED, Ordering::SeqCst);
        self.shared.active.fetch_sub(1, Ordering::SeqCst);
        failpoint!("universal::retire");
        // Quiesced already? Free the slot ourselves; otherwise leave it
        // RETIRED for lazy reclamation. A crash right above (at the
        // failpoint) skips this and costs nothing but the laziness.
        let d = slot.done.load(Ordering::SeqCst);
        let a = slot.announced.load(Ordering::SeqCst);
        if d >= a {
            let _ = slot.state.compare_exchange(
                SLOT_RETIRED,
                SLOT_FREE,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
        }
        // Our frontier may have been the reclaim bound; collect what it
        // was pinning.
        self.shared.try_reclaim();
    }

    /// Whether [`Self::retire`] was called on this handle.
    #[must_use]
    pub fn is_retired(&self) -> bool {
        self.retired
    }

    /// Whether decides combine all pending announced ops into one batch
    /// or thread one op each ([`UniversalConfig::combine`]).
    #[must_use]
    pub fn combining(&self) -> bool {
        self.shared.cfg.combine
    }

    /// Consensus decides the last completed `invoke` spent threading its
    /// operation. Wait-freedom (§4.1) bounds this by O(n) *regardless of
    /// other threads' speed or crashes* — the fault-tolerance tests
    /// assert it.
    #[must_use]
    pub fn last_threading_steps(&self) -> usize {
        self.last_threading_steps
    }

    /// Worst [`Self::last_threading_steps`] across this handle's life.
    #[must_use]
    pub fn max_threading_steps(&self) -> usize {
        self.max_threading_steps
    }

    /// Total consensus decides (CAS attempts) across this handle's life
    /// — the numerator of the amortized decides-per-op metric the
    /// combining layer lowers. With batching, `decides() / invokes()`
    /// drops toward 1/n under contention; per-op it is ≥ 1.
    #[must_use]
    pub fn decides(&self) -> usize {
        self.decides
    }

    /// How many of [`Self::decides`] lost their CAS to a concurrent
    /// winner. Losing is cheap (the loser adopts the winner), but every
    /// loss is a wasted RMW on the contended slot; the benchmark reports
    /// this per completed op for the per-op vs batched comparison.
    #[must_use]
    pub fn cas_failures(&self) -> usize {
        self.cas_failures
    }

    /// Completed (`Ok`) invocations through this handle — the
    /// denominator of the per-op counter metrics.
    #[must_use]
    pub fn invokes(&self) -> usize {
        self.invokes
    }

    /// Log position whose decide carried this handle's most recent
    /// completed op (`None` before the first successful invoke). Under
    /// batch combining this is the position of the *batch* containing
    /// the op. Layered protocols use it to relate their own entries to
    /// log order — e.g. `waitfree-store` reports the per-shard
    /// positions its snapshot markers were decided at.
    #[must_use]
    pub fn last_decided_position(&self) -> Option<usize> {
        self.last_pos
    }

    /// Move displaced announce entries no helper hazard covers to the
    /// free list, where the next announces overwrite them in place.
    /// One pass over the registry reads every entry hazard — after
    /// every displacement in the limbo was published — and the limbo is
    /// filtered against that reading. The scan is sound against stalled
    /// helpers: a helper publishes its hazard and then re-validates the
    /// cell — if the publish preceded this scan's load of that hazard,
    /// the scan sees it and keeps the entry; if not, the re-validation
    /// follows the displacement, fails, and the helper never touches
    /// the entry.
    ///
    /// That is also why recycling is sound: the owner writes an entry
    /// only while it is out of the cell *and* passed this scan, so no
    /// helper holds a validated reference to it. A helper that loaded
    /// the address before the displacement and validates after the
    /// entry was re-announced finds the cell's *current* entry — alive,
    /// fully written before the re-announcing `cell` store — and its
    /// `seq == done` check rejects it unless it really is the oldest
    /// pending one (the benign ABA `Shared::pending` documents).
    fn sweep_entry_limbo(&mut self) {
        let hazards = &mut self.entry_hazards;
        hazards.clear();
        self.shared.for_each_slot(self.shared.registered(), |_, slot| {
            let h = slot.entry_hazard.load(Ordering::SeqCst);
            if !h.is_null() {
                hazards.push(h);
            }
        });
        let free = &mut self.entry_free;
        self.entry_limbo.retain(|p| {
            let pinned = hazards.contains(p);
            if !pinned {
                free.push(*p);
            }
            pinned
        });
    }

    /// Combining mode's candidate for position `k`: scan the announce
    /// registry once, starting at `k`'s preferred slot, and gather
    /// every pending announced operation into one batch. The scan is
    /// `hi` `pending` reads (SeqCst loads plus the hazard protocol,
    /// no RMWs, nothing left published), so a thread that crashes
    /// mid-collect has perturbed nothing: every entry it gathered
    /// stays announced and helpable.
    ///
    /// Starting at the preferred slot makes the batch a superset of
    /// the per-op candidate, so the per-position helping guarantee the
    /// O(peak active) bound is proved against carries over unchanged.
    ///
    /// Returns the candidate and whether it is the caller's own
    /// pre-built Solo (which `thread_entry` recovers on a lost CAS and
    /// re-proposes instead of re-allocating).
    fn collect_candidate(
        &self,
        k: usize,
        hi: usize,
        own: &Entry<S::Op>,
        own_solo: &mut Option<Box<LogEntry<S>>>,
    ) -> (Box<LogEntry<S>>, bool) {
        failpoint!("universal::collect");
        // SAFETY: `slot` points into the registry chain owned by
        // `shared`, alive for the life of this handle.
        let slot = unsafe { &*self.slot };
        let preferred = k % hi;
        // Other slots' pending entries in scan order; stays unallocated
        // when there are none.
        let mut members: Vec<Entry<S::Op>> = Vec::new();
        let mut own_at = None;
        let hazard = &slot.entry_hazard;
        self.shared.pending_range(preferred, hi, own, hazard, &mut members, &mut own_at);
        self.shared.pending_range(0, preferred, own, hazard, &mut members, &mut own_at);
        if members.is_empty() {
            // The common uncontended case: only our own op is pending —
            // or not even that: it got helped between the loop's `done`
            // check and the scan, and we propose our (possibly stale)
            // entry anyway, as the per-op path does; replay
            // deduplicates. Reuse the pre-built Solo so a solo run
            // allocates one box per invoke, never per scan.
            let solo = own_solo
                .take()
                .unwrap_or_else(|| Box::new(LogEntry::Solo(own.clone())));
            return (solo, true);
        }
        if let Some(i) = own_at {
            members.insert(i, own.clone());
        }
        let batch = if members.len() == 1 {
            LogEntry::Solo(members.pop().expect("len checked"))
        } else {
            LogEntry::Batch(members.into_boxed_slice())
        };
        (Box::new(batch), false)
    }

    /// Thread `own` onto the log: the consensus loop of `try_invoke`,
    /// factored out so a handle recovering from a caught crash (its
    /// previous op announced but not yet threaded) can finish that op
    /// before announcing a new one.
    fn thread_entry(&mut self, own: &Entry<S::Op>) -> Result<(), UniversalError> {
        // SAFETY: `slot` points into the registry chain owned by
        // `shared`, alive for the life of this handle.
        let slot = unsafe { &*self.slot };
        let mut own_solo: Option<Box<LogEntry<S>>> = None;
        let mut steps = 0usize;
        // ordering: Acquire [pairs: universal.hint_pub] — pairs with
        // the Release `fetch_max` in `publish_hint`.
        // Starting at `k` skips the prefix [0, k) without ever touching
        // those slots, so the decided-prefix invariant that the replay
        // loop asserts (and `refresh` relies on) is inherited here: the
        // acquire carries the publisher's happens-before edge to every
        // decide below `k`. A stale value only costs extra (cheap,
        // already-decided) iterations; segment reachability is
        // re-established by the acquire walk in `seg_for`. The clamp to
        // `cursor` is a *safety* requirement on the checkpointed path:
        // positions ≥ cursor are ≥ this handle's published frontier,
        // which the reclaim bound never passes, so `thread_seg` can
        // never be (or walk into) a reclaimed segment.
        #[cfg(not(feature = "mutant-unpaired-acquire"))]
        let mut k = self.shared.hint.load(Ordering::Acquire).max(self.cursor);
        // ordering: Acquire [pairs: universal.hint_stale] — DELIBERATELY
        // WRONG. The `mutant-unpaired-acquire` feature mis-labels this
        // acquire's pair with a label no release site declares, so the
        // contract gates can prove they catch a dangling pair two ways:
        // statically (`extract_contract` with mutants reports an
        // unresolved pair) and dynamically (the happens-before pass
        // flags the observed `hint_pub` edge as undeclared). The
        // executed code is identical to the shipped statement above —
        // only the declared contract lies. Never enable outside those
        // tests.
        #[cfg(feature = "mutant-unpaired-acquire")]
        let mut k = self.shared.hint.load(Ordering::Acquire).max(self.cursor);
        // progress: wait-free — the §4 helping bound: every iteration
        // threads or helps thread position `k`, and our announced op is
        // decided within `n` positions of the entry hint.
        while slot.done.load(Ordering::SeqCst) <= own.seq {
            if let Some(cap) = self.shared.cfg.cap {
                if k >= cap {
                    self.publish_hint(k);
                    return Err(UniversalError::LogFull { position: k, capacity: cap });
                }
            }
            // The slot high-water is re-read each iteration so freshly
            // registered slots join the preferred-rotation (and the
            // collect scan) as soon as their claim is visible.
            let hi = self.shared.registered();
            self.thread_seg = self.shared.seg_for(self.thread_seg, k);
            let log_slot = self.shared.slot(self.thread_seg, k);
            let (candidate, is_own) = if self.shared.cfg.combine {
                self.collect_candidate(k, hi, own, &mut own_solo)
            } else if k % hi == own.tid {
                // Preferred slot is our own: propose our entry (the
                // pending read would only hand back a clone of it).
                let solo = own_solo
                    .take()
                    .unwrap_or_else(|| Box::new(LogEntry::Solo(own.clone())));
                (solo, true)
            } else {
                match self.shared.pending_at(k % hi, &slot.entry_hazard) {
                    Some(e) => (Box::new(LogEntry::Solo(e)), false),
                    None => {
                        let solo = own_solo
                            .take()
                            .unwrap_or_else(|| Box::new(LogEntry::Solo(own.clone())));
                        (solo, true)
                    }
                }
            };
            failpoint!("universal::cas");
            let (winner, won, returned) = self.shared.decide(log_slot, candidate);
            self.decides += 1;
            if !won {
                self.cas_failures += 1;
                if is_own {
                    // Reuse our Solo box at the next position instead
                    // of re-allocating it.
                    own_solo = returned;
                }
            }
            // Advance every member's `done` watermark, not just one
            // winner's: losers adopt the whole winning batch, so all its
            // members become visible as threaded before anyone rescans.
            // SAFETY: `winner` is the decided entry the slot owns; the
            // slot's segment is at position ≥ cursor ≥ our published
            // frontier, hence alive.
            for m in unsafe { &*winner }.members() {
                let owner = if m.tid == self.tid { slot } else { self.shared.reg_slot(m.tid) };
                // ordering: SeqCst — half of the announce/done
                // handshake, the second of the two protocol points this
                // crate deliberately keeps at SeqCst (with the decide
                // CAS): a collector's `announced` scan and an
                // announcer's `done` check look at opposite sides of
                // the same race, and only the single total order rules
                // out the both-miss interleaving that would strand an
                // announced op unhelped — the §4 helping bound rests on
                // it.
                owner.done.fetch_max(m.seq + 1, Ordering::SeqCst);
            }
            failpoint!("universal::decided");
            steps += 1;
            k += 1;
            if steps.is_multiple_of(hi) {
                self.publish_hint(k);
            }
        }
        self.publish_hint(k);
        self.last_threading_steps = steps;
        self.max_threading_steps = self.max_threading_steps.max(steps);
        Ok(())
    }

    /// Execute `op` wait-free, returning its response.
    ///
    /// # Panics
    ///
    /// Panics if the handle is retired, exceeds its `max_ops` budget,
    /// or a [`UniversalConfig::cap`] is hit — the message is the
    /// [`UniversalError`] display. Use [`Self::try_invoke`] to
    /// handle exhaustion as a value.
    pub fn invoke(&mut self, op: S::Op) -> S::Resp {
        match self.try_invoke(op) {
            Ok(resp) => resp,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Self::invoke`] over a borrowed operation — see
    /// [`Self::try_invoke_ref`] for why callers that retry (the store's
    /// helped-multi loops) want this form.
    ///
    /// # Panics
    ///
    /// As [`Self::invoke`].
    pub fn invoke_ref(&mut self, op: &S::Op) -> S::Resp {
        match self.try_invoke_ref(op) {
            Ok(resp) => resp,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Self::try_invoke`] over a borrowed operation. The op is cloned
    /// exactly once — into the announce entry — so a caller that may
    /// retry the same operation (e.g. the store's put loops, which help
    /// a blocking multi-op and re-invoke) keeps its op and pays one
    /// clone per *attempt*.
    ///
    /// # Errors
    ///
    /// As [`Self::try_invoke`].
    pub fn try_invoke_ref(&mut self, op: &S::Op) -> Result<S::Resp, UniversalError> {
        self.try_invoke(op.clone())
    }

    /// Execute `op` wait-free, or report resource exhaustion (or a
    /// departed handle) as a typed error instead of panicking. `op` is
    /// moved into the announce entry, never cloned on the way in.
    ///
    /// On [`UniversalError::Retired`] and
    /// [`UniversalError::BudgetExhausted`] nothing was announced and
    /// the call had no effect (repeat calls keep failing the same way).
    /// On [`UniversalError::LogFull`] the operation *was* announced and
    /// may still be threaded by a helper; treat the object as done —
    /// further calls on this handle keep returning
    /// [`UniversalError::LogFull`] without announcing anything more.
    ///
    /// # Errors
    ///
    /// [`UniversalError::Retired`] after [`WfHandle::retire`];
    /// [`UniversalError::BudgetExhausted`] after `max_ops` invocations on
    /// this handle; [`UniversalError::LogFull`] when a
    /// [`UniversalConfig::cap`] leaves no undecided position (never
    /// without one).
    pub fn try_invoke(&mut self, op: S::Op) -> Result<S::Resp, UniversalError> {
        if self.retired {
            return Err(UniversalError::Retired { tid: self.tid });
        }
        let seq = self.next_seq;
        if seq >= self.budget_end {
            return Err(UniversalError::BudgetExhausted {
                tid: self.tid,
                max_ops: self.shared.cfg.max_ops,
            });
        }
        // SAFETY: `slot` points into the registry chain owned by
        // `shared`, which this handle keeps alive.
        let slot = unsafe { &*self.slot };
        // At-most-one-pending invariant: the announce cell holds only
        // the *latest* entry, so a new announce must not overwrite a
        // predecessor helpers could still need. Normally the previous
        // op completed (done caught up) before we get here; the gap
        // cases are a capped log that hit LogFull (the op stays
        // pending) and a handle reused after a *caught* crash
        // mid-invoke. Both finish the orphaned op first: on a
        // genuinely full log the threading attempt fails again at the
        // real stuck position — in O(1), since the prior attempt
        // published the hint at the cap — without announcing more,
        // while a caught crash on a capped log with room simply
        // recovers, as on an uncapped log.
        let d = slot.done.load(Ordering::SeqCst);
        let a = slot.announced.load(Ordering::SeqCst);
        if a > d {
            let p = slot.cell.load(Ordering::SeqCst);
            // SAFETY: owner-side read — only this handle replaces its
            // cell's entry, so the current content is alive.
            let orphan = unsafe { (*p).clone() };
            self.thread_entry(&orphan)?;
        }
        self.next_seq += 1;

        // 1. Announce, into a recycled entry when the free list has
        //    one (steady state: no allocation); the displaced
        //    predecessor goes to the owner's limbo list (a helper's
        //    hazard may still cover it), swept opportunistically.
        failpoint!("universal::announce");
        let entry = Entry { tid: self.tid, seq, op };
        let fresh = match self.entry_free.pop() {
            Some(p) => {
                // SAFETY: a free-list entry is a live allocation this
                // handle owns exclusively — out of the cell, and
                // cleared by a hazard scan that followed its
                // displacement (`sweep_entry_limbo`) — so overwriting
                // it (dropping the old op) races with nobody. The write
                // is ordered before the SeqCst `cell` store below.
                unsafe { *p = entry };
                p
            }
            None => Box::into_raw(Box::new(entry)),
        };
        // SAFETY: `fresh` is live (above) and only the owner ever
        // displaces its announce cell — which cannot happen before this
        // invocation returns — so the borrow stays valid throughout.
        // Helpers read the cell but never free or write the current
        // entry.
        let own: &Entry<S::Op> = unsafe { &*fresh };
        let prev = slot.cell.load(Ordering::SeqCst);
        slot.cell.store(fresh, Ordering::SeqCst);
        if !prev.is_null() {
            self.entry_limbo.push(prev);
            if self.entry_limbo.len() >= ENTRY_LIMBO_SWEEP {
                self.sweep_entry_limbo();
            }
        }
        // ordering: SeqCst — the other half of the announce/done
        // handshake (see `done.fetch_max` in the threading loop): the
        // announce must be ordered into the same total order the
        // collectors scan, or a collector could miss this op while its
        // announcer concurrently concludes it still needs help.
        slot.announced.store(seq + 1, Ordering::SeqCst);
        failpoint!("universal::announced");

        // 2. Thread onto the log.
        self.thread_entry(own)?;

        // 3. Replay until our own entry is applied. A batch is applied
        //    member by member in decide order; we finish the position
        //    containing our op before returning (its later members were
        //    linearized by the same decide, so applying them is plain
        //    local catch-up), keeping `cursor` a whole-position index.
        //    Checkpoint entries contribute no members: our replica
        //    already equals their image when we reach them.
        // progress: bounded — applies one decided position per
        // iteration; stops at this operation's own entry, which the
        // threading loop above guaranteed is decided.
        loop {
            self.replay_seg = self.shared.seg_for(self.replay_seg, self.cursor);
            // ordering: Acquire [pairs: universal.decide,
            // universal.cp_install] — pairs with the winning decide
            // CAS and with the checkpoint-image install (both
            // SeqCst ⊇ Release), so the LogEntry behind a non-null
            // slot is fully initialized before we dereference it.
            let raw = self.shared.slot(self.replay_seg, self.cursor).load(Ordering::Acquire);
            assert!(
                !raw.is_null(),
                "own entry is threaded at or before the first undecided position"
            );
            // SAFETY: a non-null slot owns its decided entry, and this
            // segment cannot be reclaimed (its end() exceeds our
            // published frontier); the borrow ends inside this
            // iteration.
            let le = unsafe { &*raw };
            self.cursor += 1;
            let mut resp = None;
            for m in le.members() {
                if m.tid >= self.applied.len() {
                    self.applied.resize(m.tid + 1, 0);
                }
                if m.seq != self.applied[m.tid] {
                    continue; // duplicate from helping
                }
                failpoint!("universal::replay");
                if m.tid == self.tid && m.seq == seq {
                    resp = Some(self.state.apply(Pid(m.tid), &m.op));
                } else {
                    self.state.apply_discard(Pid(m.tid), &m.op);
                }
                self.applied[m.tid] += 1;
            }
            if let Some(r) = resp {
                // `cursor` was already advanced past the position whose
                // decide carried our op.
                self.last_pos = Some(self.cursor - 1);
                self.invokes += 1;
                // 4. Completion-side hint publication: `thread_entry`'s
                //    own publish can lag our decided position when a
                //    helper threaded the op (its loop exits as soon as
                //    `done` passes `seq`), so re-publish at the replay
                //    cursor. This makes the hint ≥ one past every
                //    *completed* op's position — the invariant the
                //    log-free read path linearizes against: a `read`
                //    that starts after this return Acquire-loads a
                //    frontier covering this op. Off the contended decide
                //    path; one fetch_max per completed invoke.
                self.publish_hint(self.cursor);
                // 5. Checkpoint duty + frontier publication: decide a
                //    checkpoint if the cadence came due, advertise how
                //    far our replica has replayed, and let reclamation
                //    collect what fell behind every frontier.
                self.maybe_checkpoint();
                self.publish_frontier();
                return Ok(r);
            }
        }
    }

    /// Decide a [`LogEntry::Checkpoint`] at the handle's replay cursor
    /// if the configured cadence came due. Wait-free: one CAS attempt —
    /// on loss the position was decided by a concurrent op (or another
    /// checkpoint) and the image is simply freed; the cadence check
    /// re-fires on a later invoke. The proposer is fully replayed up to
    /// `cursor`, so its replica *is* the prefix image, and the image
    /// carries the `applied` watermarks so adopters dedup correctly.
    fn maybe_checkpoint(&mut self) {
        let Some(every) = self.shared.cfg.checkpoint_every else {
            return;
        };
        let k = self.cursor;
        if k < self.shared.cp_pos.load(Ordering::SeqCst) + every {
            return;
        }
        failpoint!("universal::checkpoint");
        let image: Box<LogEntry<S>> = Box::new(LogEntry::Checkpoint(Box::new(CpImage {
            state: self.state.clone(),
            applied: self.applied.clone(),
        })));
        self.replay_seg = self.shared.seg_for(self.replay_seg, k);
        let log_slot = self.shared.slot(self.replay_seg, k);
        let raw = Box::into_raw(image);
        // ordering: SeqCst [site: universal.cp_install] — installing a
        // checkpoint image races ordinary decides for the same slot and
        // must land in the same total order, so it uses the decide
        // CAS's strength; replayers' Acquire slot loads pair with it to
        // see the boxed image's contents. (The dynamic cross-check
        // found this site: it was the one slot publication the audit
        // comments never declared.)
        match log_slot.compare_exchange(ptr::null_mut(), raw, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(_) => {
                // Our own checkpoint applies nothing: skip it.
                self.cursor = k + 1;
                self.shared.cp_pos.fetch_max(k, Ordering::SeqCst);
                self.shared.checkpoints.fetch_add(1, Ordering::SeqCst);
                self.publish_hint(k + 1);
                self.shared.try_reclaim();
            }
            Err(_) => {
                // Lost to a concurrent decide at this position; replay
                // will adopt it and a later invoke retries the cadence.
                // SAFETY: the CAS failed, so `raw` was never published;
                // we still own it exclusively.
                drop(unsafe { Box::from_raw(raw) });
            }
        }
    }

    /// Publish the handle's replay frontier and re-anchor the cached
    /// segment pointers at it, restoring the invariant every cached
    /// segment depends on: `end() > published frontier`, so the reclaim
    /// bound (≤ every published frontier) can never free a segment a
    /// handle still points at. The published frontier is always
    /// ≤ `cursor`, and every call that moved `cursor` re-publishes it;
    /// a call that did not (a read that found nothing new) returns
    /// without touching shared memory — the caches were anchored at
    /// this very frontier by the call that stored it and only move
    /// forward.
    fn publish_frontier(&mut self) {
        if self.retired || self.cursor == self.published_frontier {
            return;
        }
        self.replay_seg = self.shared.seg_for(self.replay_seg, self.cursor);
        self.thread_seg = self.replay_seg;
        // SAFETY: `slot` points into the registry chain owned by
        // `shared`, alive for the life of this handle.
        let slot = unsafe { &*self.slot };
        slot.frontier.store(self.cursor, Ordering::SeqCst);
        self.published_frontier = self.cursor;
    }

    /// Advance the shared frontier hint to at least `k`.
    fn publish_hint(&self, k: usize) {
        // ordering: Acquire [pairs: universal.hint_pub] — the RMW below
        // only when it would advance the word. A value already ≥ `k`
        // was itself Release-published by a thread with the property
        // described below, so the edge later readers need exists; and
        // Acquire (not Relaxed) makes *this* thread inherit it too,
        // since it goes on to treat the prefix below `k` as decided.
        if self.shared.hint.load(Ordering::Acquire) >= k {
            return;
        }
        // ordering: Release [site: universal.hint_pub] — a reader
        // that acquire-loads this value
        // starts threading at it and skips the decided prefix below
        // without observing those decides itself; the release store
        // hands over this thread's happens-before edge to every decide
        // below `k` (observed directly via its own SeqCst decide RMWs,
        // or inherited from the hint it started from). When a racing
        // publisher makes the `fetch_max` a no-op the current value was
        // itself Release-published by a thread with the same property,
        // so the edge readers need still exists.
        #[cfg(not(feature = "mutant-relaxed-hint"))]
        self.shared.hint.fetch_max(k, Ordering::Release);
        // ordering: Relaxed [no-edge] — DELIBERATELY WRONG. The `mutant-relaxed-hint`
        // feature reintroduces the PR-2 bug (hint published without a
        // release edge) so the happens-before checker's regression test
        // can prove it flags this class mechanically. Never enable
        // outside that test.
        #[cfg(feature = "mutant-relaxed-hint")]
        self.shared.hint.fetch_max(k, Ordering::Relaxed);
    }

    /// Replay any outstanding log entries and return a copy of the
    /// current abstract state (a linearizable read of the whole
    /// object). On the checkpointed path this also performs the same
    /// checkpoint/frontier duty as an invoke. On a *retired* handle the
    /// replay is unpinned (the frontier stays `usize::MAX`), so it is a
    /// quiescent diagnostic there — as the decided-log walks already
    /// are.
    pub fn refresh(&mut self) -> S {
        if self.retired {
            // `retire()` unpinned our frontier, so any amount of later
            // activity by other handles may have reclaimed the segment
            // the cached `replay_seg` points at — never touch it again.
            // Under the quiescence contract (no invoke in flight) the
            // chain is stable for the duration of this call: re-anchor
            // at the retained root, exactly as `walk_decided` does.
            let root = self.shared.oldest.load(Ordering::SeqCst).cast_const();
            // SAFETY: quiescence — the chain root is stable and no
            // segment is freed while this diagnostic runs.
            let base = unsafe { &*root }.base;
            self.replay_seg = root;
            self.thread_seg = root;
            if self.cursor < base {
                // Truncation passed our cursor while we were retired.
                // Truncation implies a decided checkpoint at `cp_pos`
                // with the whole prefix up to it decided and its
                // segment retained (the reclaim bound never passes
                // `cp_pos`), so scanning from the root finds a
                // checkpoint before any null slot: adopt it, exactly
                // as a late registrant bootstraps. The image's
                // `applied` watermarks keep the dedup exact across the
                // jump.
                let mut seg = root;
                // progress: bounded — one hop per installed segment; truncation
                // retains a decided checkpoint, so the jump lands within the
                // chain.
                'adopt: loop {
                    // SAFETY: quiescence, as above.
                    let s = unsafe { &*seg };
                    for (i, ls) in s.slots.iter().enumerate() {
                        let raw = ls.load(Ordering::SeqCst);
                        assert!(
                            !raw.is_null(),
                            "truncation implies a retained decided checkpoint"
                        );
                        // SAFETY: a non-null slot owns its decided
                        // entry; segment alive as above.
                        if let LogEntry::Checkpoint(img) = unsafe { &*raw } {
                            self.state = img.state.clone();
                            self.applied = img.applied.clone();
                            self.cursor = s.base + i + 1;
                            self.replay_seg = seg;
                            self.thread_seg = seg;
                            break 'adopt;
                        }
                    }
                    let next = s.next.load(Ordering::SeqCst);
                    assert!(
                        !next.is_null(),
                        "truncation implies a retained decided checkpoint"
                    );
                    seg = next;
                }
            }
        }
        // progress: bounded — applies one decided position per
        // iteration; stops at the first undecided slot.
        loop {
            self.replay_seg = self.shared.seg_for(self.replay_seg, self.cursor);
            // ordering: Acquire [pairs: universal.decide,
            // universal.cp_install] — same slot-publication edges as
            // the replay loop.
            let raw = self.shared.slot(self.replay_seg, self.cursor).load(Ordering::Acquire);
            if raw.is_null() {
                break;
            }
            // SAFETY: as in `try_invoke`'s replay — the slot owns the
            // entry and the segment is pinned by our frontier (or by
            // quiescence on a retired handle).
            let le = unsafe { &*raw };
            self.cursor += 1;
            self.apply_members(le);
        }
        if !self.retired {
            // All positions below `cursor` are decided (we replayed
            // them), so the hint invariant is preserved; publishing
            // keeps later log-free reads from re-walking this prefix.
            self.publish_hint(self.cursor);
            self.maybe_checkpoint();
            self.publish_frontier();
        }
        self.state.clone()
    }

    /// Apply every not-yet-applied member of a decided entry to this
    /// handle's replica, advancing the per-thread dedup watermarks.
    /// Checkpoint entries contribute no members. Shared by the pure
    /// catch-up replays (`refresh`, `try_read`); `try_invoke`'s replay
    /// loop keeps its own copy because it additionally watches for the
    /// caller's own response and fires the `universal::replay`
    /// failpoint per applied op.
    fn apply_members(&mut self, le: &LogEntry<S>) {
        for m in le.members() {
            if m.tid >= self.applied.len() {
                self.applied.resize(m.tid + 1, 0);
            }
            if m.seq != self.applied[m.tid] {
                continue; // duplicate from helping
            }
            self.state.apply_discard(Pid(m.tid), &m.op);
            self.applied[m.tid] += 1;
        }
    }

    /// Linearizable **log-free** read: evaluate `f` against this
    /// handle's replica caught up to the decided frontier observed on
    /// entry, without announcing, allocating, or CASing anything.
    ///
    /// §4.1 needs consensus only to order *mutations*; a read is
    /// answered from any replica that has replayed past an observed
    /// frontier, linearized at the moment the frontier was read:
    ///
    /// 1. Acquire-load the `hint` word (clamped to the handle's own
    ///    replay cursor) — **the linearization point**. `try_invoke`'s
    ///    completion-side `publish_hint` guarantees the hint is past
    ///    every *completed* invocation's position, so the read observes
    ///    every operation that returned before it began; ops decided
    ///    after the load are concurrent with the read and legitimately
    ///    invisible. See DESIGN.md §11 for the full argument.
    /// 2. Replay the replica up to exactly that frontier. The gap is
    ///    fixed at step 1, so the work is bounded — wait-free without
    ///    any helping.
    /// 3. Evaluate `f` against the replica.
    ///
    /// A read that finds nothing new decided has no shared-memory
    /// effect at all; one that replayed re-publishes this handle's
    /// replay frontier (a plain store to its own registry slot, which
    /// lets segment reclamation advance). Either way the log itself
    /// sees zero appends and zero RMWs — `invokes`/`decides`/
    /// `last_decided_position` are untouched, which the no-trace tests
    /// assert. Unlike [`Self::refresh`], `read` never proposes a
    /// checkpoint (that duty stays on mutators) and never clones the
    /// state: `f` borrows the replica in place.
    ///
    /// # Panics
    ///
    /// Panics if the handle is retired; use [`Self::try_read`] to
    /// handle that as a value.
    pub fn read<R>(&mut self, f: impl FnOnce(&S) -> R) -> R {
        match self.try_read(f) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Self::read`], reporting a retired handle as a typed error
    /// instead of panicking. A retired handle's frontier is unpinned
    /// (`usize::MAX`), so its cached segments may be reclaimed at any
    /// time — the quiescent diagnostics (`refresh`, the decided-log
    /// walks) re-anchor under the quiescence contract, but a
    /// linearizable read offers no such contract, so it refuses.
    ///
    /// # Errors
    ///
    /// [`UniversalError::Retired`] after [`WfHandle::retire`]; nothing
    /// was read and the call had no effect.
    pub fn try_read<R>(&mut self, f: impl FnOnce(&S) -> R) -> Result<R, UniversalError> {
        if self.retired {
            return Err(UniversalError::Retired { tid: self.tid });
        }
        // ordering: Acquire [pairs: universal.hint_pub] — the
        // linearization point. Pairs with the Release `fetch_max` in
        // `publish_hint`: the load inherits the
        // publisher's happens-before edge to every decide below the
        // value, so the slots replayed below never read null. Clamped
        // to `cursor`: the hint is global and monotone, but this
        // handle may already have replayed past a stale value.
        let frontier = self.shared.hint.load(Ordering::Acquire).max(self.cursor);
        failpoint!("universal::read");
        // progress: bounded — `cursor` advances one position per
        // iteration up to the frontier read on entry.
        while self.cursor < frontier {
            self.replay_seg = self.shared.seg_for(self.replay_seg, self.cursor);
            // ordering: Acquire [pairs: universal.decide,
            // universal.cp_install] — same slot-publication edges as
            // the replay loop.
            let raw = self.shared.slot(self.replay_seg, self.cursor).load(Ordering::Acquire);
            assert!(
                !raw.is_null(),
                "hint is a lower bound on the first undecided position"
            );
            // SAFETY: a non-null slot owns its decided entry, and the
            // segment cannot be reclaimed: its end() exceeds this
            // handle's published frontier (≤ cursor), which the
            // reclaim bound never passes.
            let le = unsafe { &*raw };
            self.cursor += 1;
            self.apply_members(le);
        }
        self.publish_frontier();
        Ok(f(&self.state))
    }

    /// Total log positions this handle has replayed (diagnostics). A
    /// combined batch counts as one position however many ops it
    /// carries; on the checkpointed path an adopting registrant starts
    /// already past the checkpoint position.
    #[must_use]
    pub fn replayed(&self) -> usize {
        self.cursor
    }

    /// The decided *retained* prefix of the log as `(tid, seq)` pairs,
    /// from the oldest retained segment to the first undecided slot,
    /// with batches flattened in decide order — so the Wing–Gong
    /// checker and the per-op/batched equivalence tests keep per-op
    /// granularity regardless of how ops were grouped into positions.
    /// Checkpoint entries contribute nothing. Without checkpointing
    /// "retained" is the whole log. Read-only diagnostic;
    /// quiescently consistent: call it only when no invoke is in
    /// flight (or under the deterministic scheduler).
    #[must_use]
    pub fn decided_log(&self) -> Vec<(usize, usize)> {
        self.walk_decided(|out, le| {
            for m in le.members() {
                out.push((m.tid, m.seq));
            }
        })
    }

    /// The decided retained prefix grouped by log position: one inner
    /// vector of `(tid, seq)` pairs per decide, checkpoint positions
    /// skipped. A per-op log has only singleton groups;
    /// `decided_batches().len()` vs `decided_log().len()` measures how
    /// much combining happened.
    #[must_use]
    pub fn decided_batches(&self) -> Vec<Vec<(usize, usize)>> {
        self.walk_decided(|out, le| {
            if !matches!(le, LogEntry::Checkpoint(_)) {
                out.push(le.members().iter().map(|m| (m.tid, m.seq)).collect());
            }
        })
    }

    /// Walk decided slots from the oldest retained segment to the first
    /// null, feeding each `LogEntry` to `push`. The walk pins segments
    /// with this slot's hazard (restarting from scratch if a hop races
    /// a detach), except on a retired handle — whose slot may already
    /// belong to a new owner — where it relies on the documented
    /// quiescence contract instead.
    fn walk_decided<T>(&self, mut push: impl FnMut(&mut Vec<T>, &LogEntry<S>)) -> Vec<T> {
        // SAFETY: `slot` points into the registry chain owned by
        // `shared`, alive for the life of this handle.
        let slot = unsafe { &*self.slot };
        let pin = !self.retired;
        let mut out = Vec::new();
        // progress: lock-free — a restart means a reclaimer detached a
        // segment under this walk; detaches are bounded by decided
        // checkpoints.
        'walk: loop {
            out.clear();
            let mut seg = if pin {
                shared_pin(&self.shared, slot)
            } else {
                self.shared.oldest.load(Ordering::SeqCst).cast_const()
            };
            // progress: bounded — one hop per installed segment from the
            // pinned (or quiescent) root to the observed frontier.
            loop {
                // SAFETY: pinned by the slot's segment hazard (hops are
                // validated against `reclaimed_upto` before the target
                // is dereferenced), or covered by the quiescence
                // contract on a retired handle.
                let s = unsafe { &*seg };
                for ls in s.slots.iter() {
                    // ordering: Acquire [pairs: universal.decide,
                    // universal.cp_install] — same slot-publication
                    // edges as the replay loop.
                    let raw = ls.load(Ordering::Acquire);
                    if raw.is_null() {
                        if pin {
                            slot.seg_hazard.store(0, Ordering::SeqCst);
                        }
                        return out;
                    }
                    // SAFETY: the slot owns its decided entry; segment
                    // alive as above.
                    push(&mut out, unsafe { &*raw });
                }
                // ordering: Acquire [pairs: universal.seg_install] —
                // pairs with the Release segment install in `seg_for`
                // before we walk into the next segment.
                let next = s.next.load(Ordering::Acquire);
                if next.is_null() {
                    if pin {
                        slot.seg_hazard.store(0, Ordering::SeqCst);
                    }
                    return out;
                }
                if pin {
                    // Hop: same publish-then-validate protocol as the
                    // registration bootstrap walk — including reading
                    // `s.end()` while the hazard still covers `s` (the
                    // store unpins it).
                    let s_end = s.end();
                    slot.seg_hazard.store(next as usize, Ordering::SeqCst);
                    if self.shared.reclaimed_upto.load(Ordering::SeqCst) > s_end {
                        continue 'walk;
                    }
                }
                seg = next;
            }
        }
    }
}

/// Free function so `walk_decided` can pin without borrowing `self`
/// mutably (it takes `&self`): identical to `Shared::pin_oldest`.
fn shared_pin<S: ObjectSpec>(
    shared: &Shared<S>,
    slot: &HandleSlot<S::Op>,
) -> *const Segment<S> {
    shared.pin_oldest(slot)
}

impl<S: ObjectSpec> Drop for WfHandle<S> {
    fn drop(&mut self) {
        // A dropped-without-retire handle models a crashed client: its
        // slot stays claimed (ACTIVE) and its pending op stays
        // helpable. It must still stop pinning memory. After `retire`
        // the slot may already belong to a new owner, and retire
        // already unpinned everything — leave the slot alone then.
        if !self.retired {
            // SAFETY: `slot` points into the registry chain owned by
            // `shared`, still alive (we hold the Arc).
            let slot = unsafe { &*self.slot };
            slot.frontier.store(usize::MAX, Ordering::SeqCst);
            slot.seg_hazard.store(0, Ordering::SeqCst);
            slot.entry_hazard.store(ptr::null_mut(), Ordering::SeqCst);
        }
        // Free displaced announce entries; one still pinned by a
        // concurrently stalled helper's hazard is leaked (bounded: at
        // most one per such helper) rather than freed under it.
        self.sweep_entry_limbo();
        for p in self.entry_free.drain(..) {
            // SAFETY: free-list entries came from `Box::into_raw` at
            // announce, are out of the cell and unpinned (see
            // `sweep_entry_limbo`), and sit on the list exactly once.
            drop(unsafe { Box::from_raw(p) });
        }
        self.shared.try_reclaim();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waitfree_objects::counter::{Counter, CounterOp, CounterResp};
    use waitfree_sched::thread;
    use waitfree_objects::queue::{FifoQueue, QueueOp, QueueResp};

    /// A fresh object over `initial` with `n` handles registered in
    /// order, so `tid == index`.
    fn fixed<S: ObjectSpec>(
        initial: S,
        n: usize,
        cfg: UniversalConfig,
    ) -> (WfUniversal<S>, Vec<WfHandle<S>>) {
        let obj = WfUniversal::with_config(initial, cfg);
        let handles = (0..n).map(|_| obj.register()).collect();
        (obj, handles)
    }

    /// [`fixed`] on the default configuration, handles only.
    fn register_n<S: ObjectSpec>(initial: S, n: usize) -> Vec<WfHandle<S>> {
        fixed(initial, n, UniversalConfig::default()).1
    }

    fn checkpointed(every: usize) -> UniversalConfig {
        UniversalConfig { checkpoint_every: Some(every), ..UniversalConfig::default() }
    }

    fn capped(cap: usize) -> UniversalConfig {
        UniversalConfig { cap: Some(cap), ..UniversalConfig::default() }
    }

    /// The budget tests' configuration: two operations per registration.
    fn budget_of_two() -> UniversalConfig {
        UniversalConfig { max_ops: 2, ..UniversalConfig::default() }
    }

    #[test]
    fn single_thread_matches_spec() {
        let mut h = WfUniversal::with_config(FifoQueue::new(), UniversalConfig::default()).register();
        assert_eq!(h.invoke(QueueOp::Enq(1)), QueueResp::Ack);
        assert_eq!(h.invoke(QueueOp::Enq(2)), QueueResp::Ack);
        assert_eq!(h.invoke(QueueOp::Deq), QueueResp::Item(1));
        assert_eq!(h.invoke(QueueOp::Deq), QueueResp::Item(2));
        assert_eq!(h.invoke(QueueOp::Deq), QueueResp::Empty);
    }

    /// Small enough for `cargo miri test`: two threads, a handful of
    /// ops, crossing the announce/help path and one log segment. CI's
    /// analyze job runs every `miri_smoke_*` test under miri to check
    /// the unsafe log/segment code against the real memory model.
    #[test]
    fn miri_smoke_two_thread_counter() {
        let mut handles = register_n(Counter::new(0), 2);
        let mut b = handles.pop().unwrap();
        let mut a = handles.pop().unwrap();
        let jb = thread::spawn(move || {
            for _ in 0..3 {
                b.invoke(CounterOp::Add(1));
            }
            b
        });
        for _ in 0..3 {
            a.invoke(CounterOp::Add(1));
        }
        let _b = jb.join().unwrap();
        match a.invoke(CounterOp::Get) {
            CounterResp::Value(v) => assert_eq!(v, 6),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn counter_is_exact_under_contention() {
        let threads = 4;
        let per = 500;
        let handles = register_n(Counter::new(0), threads);
        let joins: Vec<_> = handles
            .into_iter()
            .map(|mut h| {
                thread::spawn(move || {
                    for _ in 0..per {
                        h.invoke(CounterOp::Add(1));
                    }
                    h
                })
            })
            .collect();
        let mut finished: Vec<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        let mut last = finished.pop().unwrap();
        match last.invoke(CounterOp::Get) {
            CounterResp::Value(v) => assert_eq!(v, (threads * per) as i64),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fetch_and_add_responses_are_unique_under_contention() {
        // Linearizability witness: every FetchAndAdd(1) must see a
        // distinct old value.
        let threads = 4;
        let per = 300;
        let handles = register_n(Counter::new(0), threads);
        let joins: Vec<_> = handles
            .into_iter()
            .map(|mut h| {
                thread::spawn(move || {
                    (0..per)
                        .map(|_| match h.invoke(CounterOp::FetchAndAdd(1)) {
                            CounterResp::Value(v) => v,
                            other => panic!("unexpected {other:?}"),
                        })
                        .collect::<Vec<i64>>()
                })
            })
            .collect();
        let mut all: Vec<i64> = joins.into_iter().flat_map(|j| j.join().unwrap()).collect();
        all.sort_unstable();
        let expect: Vec<i64> = (0..(threads * per) as i64).collect();
        assert_eq!(all, expect, "each ticket taken exactly once");
    }

    #[test]
    fn queue_items_dequeued_exactly_once() {
        let threads = 4;
        let per = 200;
        let handles = register_n(FifoQueue::new(), threads);
        let joins: Vec<_> = handles
            .into_iter()
            .map(|mut h| {
                let tid = h.tid() as i64;
                thread::spawn(move || {
                    let mut got = Vec::new();
                    for i in 0..per {
                        h.invoke(QueueOp::Enq(tid * 1_000_000 + i as i64));
                        if let QueueResp::Item(v) = h.invoke(QueueOp::Deq) {
                            got.push(v);
                        }
                    }
                    got
                })
            })
            .collect();
        let mut all: Vec<i64> = joins.into_iter().flat_map(|j| j.join().unwrap()).collect();
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "no item dequeued twice");
        assert!(total <= threads * per);
    }

    #[test]
    fn refresh_converges_across_handles() {
        let mut handles = register_n(Counter::new(0), 2);
        let mut h1 = handles.pop().unwrap();
        let mut h0 = handles.pop().unwrap();
        h0.invoke(CounterOp::Add(3));
        h0.invoke(CounterOp::Add(4));
        assert_eq!(h1.refresh(), h0.refresh(), "replicas converge");
    }

    #[test]
    fn read_observes_every_completed_invoke() {
        let mut handles = register_n(Counter::new(0), 2);
        let mut h1 = handles.pop().unwrap();
        let mut h0 = handles.pop().unwrap();
        h0.invoke(CounterOp::Add(3));
        h0.invoke(CounterOp::Add(4));
        // The other handle's read: the completed invokes published the
        // hint past their positions, so the frontier covers them.
        assert_eq!(h1.read(Counter::value), 7);
        h1.invoke(CounterOp::Add(5));
        assert_eq!(h0.read(Counter::value), 12);
        // A read after our own invoke trivially sees it (cursor clamp).
        assert_eq!(h1.read(Counter::value), 12);
    }

    #[test]
    fn read_leaves_no_trace_in_the_log() {
        let mut handles = register_n(Counter::new(0), 2);
        let mut h1 = handles.pop().unwrap();
        let mut h0 = handles.pop().unwrap();
        for _ in 0..5 {
            h0.invoke(CounterOp::Add(1));
        }
        let (inv, dec, pos) = (h1.invokes(), h1.decides(), h1.last_decided_position());
        let log_before = h0.decided_log();
        for _ in 0..100 {
            assert_eq!(h1.read(Counter::value), 5);
        }
        // Zero log appends, zero shared-log RMWs: every invoke/decide
        // diagnostic is exactly where it was, and the decided log is
        // byte-for-byte the same.
        assert_eq!(h1.invokes(), inv, "read must not count as an invoke");
        assert_eq!(h1.decides(), dec, "read must not attempt a decide");
        assert_eq!(h1.last_decided_position(), pos);
        assert_eq!(h0.decided_log(), log_before, "read must not grow the log");
        // The next mutation lands at the same position it would have
        // without the reads.
        h0.invoke(CounterOp::Add(1));
        assert_eq!(h0.last_decided_position(), Some(log_before.len()));
    }

    #[test]
    fn read_on_a_retired_handle_is_a_typed_error() {
        let mut h = WfUniversal::with_config(Counter::new(7), UniversalConfig::default()).register();
        h.invoke(CounterOp::Add(1));
        h.retire();
        match h.try_read(Counter::value) {
            Err(UniversalError::Retired { .. }) => {}
            other => panic!("expected Retired, got {other:?}"),
        }
    }

    #[test]
    fn read_stays_exact_across_checkpoint_truncation() {
        // Checkpoint every 8 positions on a 2-handle log: drive enough
        // ops that whole segments are reclaimed, reading throughout.
        let (obj, mut handles) = fixed(Counter::new(0), 2, checkpointed(8));
        let mut h1 = handles.pop().unwrap();
        let mut h0 = handles.pop().unwrap();
        for i in 0..300i64 {
            h0.invoke(CounterOp::Add(1));
            assert_eq!(h1.read(Counter::value), i + 1);
        }
        assert!(obj.reclaimed_segments() > 0, "truncation actually ran");
    }

    #[test]
    fn concurrent_reads_are_monotone_and_bounded() {
        let threads = 4;
        let per = 300;
        let handles = register_n(Counter::new(0), threads);
        let joins: Vec<_> = handles
            .into_iter()
            .enumerate()
            .map(|(i, mut h)| {
                thread::spawn(move || {
                    if i == 0 {
                        // Pure reader: values must be monotone (each read
                        // linearizes at its frontier load, and frontiers
                        // only advance) and within [0, writers*per].
                        let mut last = 0;
                        for _ in 0..per {
                            let v = h.read(Counter::value);
                            assert!(v >= last, "reads ran backwards: {v} < {last}");
                            assert!(v <= ((threads - 1) * per) as i64);
                            last = v;
                        }
                        assert_eq!(h.invokes(), 0);
                        assert_eq!(h.decides(), 0);
                    } else {
                        for _ in 0..per {
                            h.invoke(CounterOp::Add(1));
                        }
                    }
                    h
                })
            })
            .collect();
        let mut done: Vec<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        let total = ((threads - 1) * per) as i64;
        for h in &mut done {
            assert_eq!(h.read(Counter::value), total);
        }
    }

    #[test]
    #[should_panic(expected = "checkpoint_every must be at least 1")]
    fn zero_checkpoint_cadence_is_rejected_by_name() {
        let _ = WfUniversal::with_config(Counter::new(0), checkpointed(0));
    }

    #[test]
    #[should_panic(expected = "checkpoint_every and cap are mutually exclusive")]
    fn cap_with_checkpointing_is_rejected_by_name() {
        let cfg = UniversalConfig { cap: Some(64), ..checkpointed(8) };
        let _ = WfUniversal::with_config(Counter::new(0), cfg);
    }

    #[test]
    fn benchmark_pinned_constructor_is_the_checkpointed_config() {
        let pinned = WfUniversal::new_dynamic_checkpointed(Counter::new(0), 77, 16);
        let cfg = UniversalConfig { max_ops: 77, ..checkpointed(16) };
        let spelled = WfUniversal::with_config(Counter::new(0), cfg);
        assert_eq!(format!("{pinned:?}"), format!("{spelled:?}"));
        assert!(format!("{pinned:?}").contains(&format!("{cfg:?}")), "{pinned:?}");
    }

    #[test]
    #[should_panic(expected = "budget")]
    fn op_budget_is_enforced() {
        let mut h = WfUniversal::with_config(Counter::new(0), budget_of_two()).register();
        h.invoke(CounterOp::Add(1));
        h.invoke(CounterOp::Add(1));
        h.invoke(CounterOp::Add(1));
    }

    #[test]
    fn log_full_is_a_typed_error_not_a_panic() {
        // A deliberately tiny cap: the third operation has no undecided
        // position left.
        let mut h = WfUniversal::with_config(Counter::new(0), capped(2)).register();
        assert!(h.try_invoke(CounterOp::Add(1)).is_ok());
        assert!(h.try_invoke(CounterOp::Add(1)).is_ok());
        match h.try_invoke(CounterOp::Add(1)) {
            Err(UniversalError::LogFull { position, capacity }) => {
                assert_eq!(position, 2);
                assert_eq!(capacity, 2);
            }
            other => panic!("expected LogFull, got {other:?}"),
        }
    }

    #[test]
    fn log_full_stays_logfull_without_reannouncing() {
        // Once an op hits LogFull it stays announced; repeat attempts
        // must keep failing the same way *without* announcing more (the
        // at-most-one-pending invariant would otherwise break).
        let mut h = WfUniversal::with_config(Counter::new(0), capped(2)).register();
        assert!(h.try_invoke(CounterOp::Add(1)).is_ok());
        assert!(h.try_invoke(CounterOp::Add(1)).is_ok());
        for _ in 0..3 {
            assert_eq!(
                h.try_invoke(CounterOp::Add(1)),
                Err(UniversalError::LogFull { position: 2, capacity: 2 })
            );
        }
    }

    #[test]
    fn uncapped_log_outgrows_the_old_arena_formula() {
        // Without a cap no position bound exists: the log grows segment
        // by segment past anything a preallocated arena could hold.
        let per = 3 * SEGMENT_SIZE;
        let obj = WfUniversal::with_config(Counter::new(0), UniversalConfig::default());
        let mut h = obj.register();
        for _ in 0..per {
            h.invoke(CounterOp::Add(1));
        }
        assert_eq!(h.invoke(CounterOp::Get), CounterResp::Value(per as i64));
        let installed = obj.installed_segments();
        assert!(installed >= 3, "log grew across segments: {installed}");
    }

    #[test]
    fn budget_error_is_typed_stable_and_effect_free() {
        let mut h = WfUniversal::with_config(Counter::new(0), budget_of_two()).register();
        h.invoke(CounterOp::Add(1));
        h.invoke(CounterOp::Add(1));
        for _ in 0..3 {
            assert_eq!(
                h.try_invoke(CounterOp::Add(1)),
                Err(UniversalError::BudgetExhausted { tid: 0, max_ops: 2 })
            );
        }
        // The failed attempts announced nothing: a fresh handle's replay
        // sees exactly two additions.
        assert_eq!(h.refresh(), {
            let mut c = Counter::new(0);
            c.apply(Pid(0), &CounterOp::Add(1));
            c.apply(Pid(0), &CounterOp::Add(1));
            c
        });
    }

    #[test]
    fn error_display_names_the_resource() {
        let log = UniversalError::LogFull { position: 9, capacity: 9 };
        assert!(log.to_string().contains("log arena exhausted"));
        let budget = UniversalError::BudgetExhausted { tid: 3, max_ops: 7 };
        assert!(budget.to_string().contains("budget"));
    }

    #[test]
    fn threading_steps_are_counted_and_bounded_solo() {
        let mut h = WfUniversal::with_config(Counter::new(0), UniversalConfig::default()).register();
        assert_eq!(h.max_threading_steps(), 0);
        h.invoke(CounterOp::Add(1));
        // Alone, threading one op takes exactly one consensus decide.
        assert_eq!(h.last_threading_steps(), 1);
        assert_eq!(h.max_threading_steps(), 1);
        assert_eq!(h.n(), 1);
        assert!(h.combining());
    }

    #[test]
    fn counters_track_decides_solo() {
        let mut h = WfUniversal::with_config(Counter::new(0), UniversalConfig::default()).register();
        for _ in 0..5 {
            h.invoke(CounterOp::Add(1));
        }
        // Alone: one decide per op, none lost, batches all singletons.
        assert_eq!(h.invokes(), 5);
        assert_eq!(h.decides(), 5);
        assert_eq!(h.cas_failures(), 0);
        assert_eq!(h.decided_batches().len(), 5);
        assert!(h.decided_batches().iter().all(|b| b.len() == 1));
    }

    #[test]
    fn per_op_and_combining_agree_when_uncontended() {
        // Without contention the combining path degenerates to exactly
        // the per-op behaviour: same responses, same (flat) decided log.
        let script = [
            QueueOp::Enq(4),
            QueueOp::Enq(5),
            QueueOp::Deq,
            QueueOp::Deq,
            QueueOp::Deq,
            QueueOp::Enq(6),
            QueueOp::Deq,
        ];
        let per_op_cfg = UniversalConfig { combine: false, ..UniversalConfig::default() };
        let mut batched = register_n(FifoQueue::new(), 1).remove(0);
        let mut per_op = WfUniversal::with_config(FifoQueue::new(), per_op_cfg).register();
        assert!(!per_op.combining());
        for op in &script {
            assert_eq!(batched.invoke(op.clone()), per_op.invoke(op.clone()), "{op:?}");
        }
        assert_eq!(batched.decided_log(), per_op.decided_log());
    }

    #[test]
    fn decided_batches_flatten_to_decided_log() {
        // Under contention positions may hold multi-op batches; the
        // flattened view must match `decided_log` exactly and account
        // for every completed op once.
        let threads = 4;
        let per = 300;
        let handles = register_n(Counter::new(0), threads);
        let joins: Vec<_> = handles
            .into_iter()
            .map(|mut h| {
                thread::spawn(move || {
                    for _ in 0..per {
                        h.invoke(CounterOp::Add(1));
                    }
                    h
                })
            })
            .collect();
        let finished: Vec<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        let h = &finished[0];
        let flat = h.decided_log();
        let grouped: Vec<(usize, usize)> =
            h.decided_batches().into_iter().flatten().collect();
        assert_eq!(flat, grouped, "flattened batches are the decided log");
        // Dedup to first occurrences: every op appears.
        let mut firsts = std::collections::HashSet::new();
        for pair in &flat {
            firsts.insert(*pair);
        }
        assert_eq!(firsts.len(), threads * per, "every op threaded");
        // Positions never exceed ops (combining only packs tighter).
        assert!(h.decided_batches().len() <= flat.len());
    }

    #[test]
    fn per_op_position_consumption_is_bounded() {
        // Wait-freedom evidence: with helping, total positions consumed
        // stay within 2·n·ops even under contention (each entry appears
        // at most twice per mode's duplication bound; combining only
        // packs positions tighter).
        let threads = 3;
        let per = 400;
        let (obj, handles) = fixed(Counter::new(0), threads, UniversalConfig::default());
        let joins: Vec<_> = handles
            .into_iter()
            .map(|mut h| {
                let obj = obj.clone();
                thread::spawn(move || {
                    for _ in 0..per {
                        h.invoke(CounterOp::Add(1));
                    }
                    obj.installed_segments()
                })
            })
            .collect();
        for j in joins {
            let segments = j.join().unwrap();
            let max_positions = 2 * threads * per;
            assert!(
                (segments - 1) * SEGMENT_SIZE <= max_positions,
                "{segments} segments exceeds the 2·n·ops position bound"
            );
        }
    }

    #[test]
    fn retired_handle_returns_typed_error_not_a_panic() {
        let obj = WfUniversal::with_config(Counter::new(0), UniversalConfig::default());
        let mut h = obj.register();
        assert_eq!(h.invoke(CounterOp::FetchAndAdd(1)), CounterResp::Value(0));
        assert!(!h.is_retired());
        h.retire();
        h.retire(); // idempotent
        assert!(h.is_retired());
        for _ in 0..3 {
            assert_eq!(
                h.try_invoke(CounterOp::Add(1)),
                Err(UniversalError::Retired { tid: 0 })
            );
        }
        // The failed attempts announced nothing; the object still works
        // through a fresh registration.
        let mut h2 = obj.register();
        assert_eq!(h2.invoke(CounterOp::Get), CounterResp::Value(1));
    }

    #[test]
    fn retired_error_display_names_the_slot() {
        let e = UniversalError::Retired { tid: 5 };
        assert!(e.to_string().contains("retired"));
        assert!(e.to_string().contains('5'));
    }

    #[test]
    fn registry_is_bounded_by_peak_active_not_total_arrivals() {
        // 100 arrivals, never more than one active at a time: the whole
        // churn runs on a single recycled slot.
        let obj = WfUniversal::with_config(Counter::new(0), UniversalConfig::default());
        for i in 0..100 {
            let mut h = obj.register();
            assert_eq!(h.tid(), 0, "sequential churn reuses slot 0");
            h.invoke(CounterOp::Add(1));
            h.retire();
            assert_eq!(obj.total_arrivals(), i + 1);
        }
        assert_eq!(obj.registry_slots(), 1);
        assert_eq!(obj.peak_active(), 1);
        assert_eq!(obj.active_handles(), 0);
        let mut probe = obj.register();
        assert_eq!(probe.invoke(CounterOp::Get), CounterResp::Value(100));
    }

    #[test]
    fn register_grows_past_a_registry_segment() {
        let obj = WfUniversal::with_config(Counter::new(0), UniversalConfig::default());
        let mut handles: Vec<_> = (0..2 * REGISTRY_SEGMENT).map(|_| obj.register()).collect();
        assert_eq!(obj.registry_slots(), 2 * REGISTRY_SEGMENT);
        assert_eq!(obj.peak_active(), 2 * REGISTRY_SEGMENT);
        for (i, h) in handles.iter_mut().enumerate() {
            assert_eq!(h.tid(), i);
            h.invoke(CounterOp::Add(1));
        }
        let total = handles[0].refresh();
        assert_eq!(total, {
            let mut c = Counter::new(0);
            for t in 0..2 * REGISTRY_SEGMENT {
                c.apply(Pid(t), &CounterOp::Add(1));
            }
            c
        });
    }

    #[test]
    fn budget_renews_per_registration_and_seqs_continue() {
        let obj = WfUniversal::with_config(Counter::new(0), budget_of_two());
        let mut h = obj.register();
        h.invoke(CounterOp::Add(1));
        h.invoke(CounterOp::Add(1));
        assert_eq!(
            h.try_invoke(CounterOp::Add(1)),
            Err(UniversalError::BudgetExhausted { tid: 0, max_ops: 2 })
        );
        h.retire();
        // Re-registering the same slot grants a fresh budget; sequence
        // numbers continue (the `announced` watermark is per-slot, not
        // per-registration), so the replay dedup stays sound across
        // reuse.
        let mut h = obj.register();
        assert_eq!(h.tid(), 0);
        h.invoke(CounterOp::Add(1));
        h.invoke(CounterOp::Add(1));
        assert_eq!(
            h.try_invoke(CounterOp::Add(1)),
            Err(UniversalError::BudgetExhausted { tid: 0, max_ops: 2 })
        );
        assert_eq!(h.refresh(), {
            let mut c = Counter::new(0);
            for _ in 0..4 {
                c.apply(Pid(0), &CounterOp::Add(1));
            }
            c
        });
    }

    #[test]
    fn dropped_without_retire_costs_one_slot_and_stays_consistent() {
        // A crashed client: handle dropped, never retired. Its slot is
        // not reclaimable, so the next arrival claims a fresh one — and
        // the object keeps linearizing.
        let obj = WfUniversal::with_config(Counter::new(0), UniversalConfig::default());
        let mut crashed = obj.register();
        crashed.invoke(CounterOp::Add(10));
        drop(crashed);
        assert_eq!(obj.active_handles(), 1, "crashed client stays counted");
        let mut h = obj.register();
        assert_eq!(h.tid(), 1, "leaked slot is skipped, not reused");
        assert_eq!(h.invoke(CounterOp::Get), CounterResp::Value(10));
        assert_eq!(obj.registry_slots(), 2);
    }

    #[test]
    fn announce_entries_cycle_cell_limbo_free_list_cell() {
        // The announce path is a single cell per slot fed from a
        // per-handle free list: any number of ops runs in O(1) announce
        // storage — a displaced entry waits in the owner's limbo for a
        // hazard-free sweep, then is overwritten in place by a later
        // announce.
        let per = 4 * ENTRY_LIMBO_SWEEP + 2;
        let obj = WfUniversal::with_config(Counter::new(0), UniversalConfig::default());
        let mut h = obj.register();
        let helper = obj.register();
        // SAFETY: both slots live in the registry `obj` keeps alive.
        let (slot, helper_slot) = unsafe { (&*h.slot, &*helper.slot) };
        let mut addresses = std::collections::BTreeSet::new();
        for _ in 0..per {
            h.invoke(CounterOp::Add(1));
            addresses.insert(slot.cell.load(Ordering::SeqCst));
        }
        assert_eq!(h.invoke(CounterOp::Get), CounterResp::Value(per as i64));
        assert!(
            addresses.len() <= ENTRY_LIMBO_SWEEP + 1,
            "{} entries allocated for {per} announces",
            addresses.len()
        );
        assert!(h.entry_limbo.len() + h.entry_free.len() <= ENTRY_LIMBO_SWEEP);

        // A (stalled) helper's hazard keeps its entry out of the free
        // list for as long as it stands, and only that entry.
        let pinned = slot.cell.load(Ordering::SeqCst);
        helper_slot.entry_hazard.store(pinned, Ordering::SeqCst);
        for _ in 0..per {
            h.invoke(CounterOp::Add(1));
            assert_ne!(slot.cell.load(Ordering::SeqCst), pinned, "a pinned entry was re-announced");
        }
        assert!(h.entry_limbo.contains(&pinned) && !h.entry_free.contains(&pinned));
        assert!(h.entry_limbo.len() <= ENTRY_LIMBO_SWEEP, "the survivor held others back");
        helper_slot.entry_hazard.store(ptr::null_mut(), Ordering::SeqCst);
        for _ in 0..ENTRY_LIMBO_SWEEP {
            h.invoke(CounterOp::Add(1));
        }
        assert!(!h.entry_limbo.contains(&pinned), "an unpinned entry is recycled by the next sweep");
        assert_eq!(h.invoke(CounterOp::Get), CounterResp::Value((2 * per + ENTRY_LIMBO_SWEEP) as i64));
    }

    /// Churn across the announce/help path under real threads, small
    /// enough for `cargo miri test` (CI's analyze job runs every
    /// `miri_smoke_*` test under miri): register/invoke/retire cycles
    /// exercising slot claim, reuse, and announce-cell recycling
    /// against the real memory model.
    #[test]
    fn miri_smoke_churn_register_retire_respawn() {
        let obj = WfUniversal::with_config(Counter::new(0), UniversalConfig::default());
        let other = obj.clone();
        let jb = thread::spawn(move || {
            for _ in 0..3 {
                let mut h = other.register();
                h.invoke(CounterOp::Add(1));
                h.retire();
            }
        });
        for _ in 0..3 {
            let mut h = obj.register();
            h.invoke(CounterOp::Add(1));
            h.retire();
        }
        jb.join().unwrap();
        let mut probe = obj.register();
        match probe.invoke(CounterOp::Get) {
            CounterResp::Value(v) => assert_eq!(v, 6),
            other => panic!("unexpected {other:?}"),
        }
        assert!(obj.registry_slots() <= 2, "churn of 2 threads needs at most 2 slots");
        assert_eq!(obj.total_arrivals(), 7);
    }

    #[test]
    fn checkpointed_log_truncates_and_preserves_state() {
        // Sequential sanity for the tentpole: run far past several
        // checkpoint cadences, then check (a) checkpoints were decided,
        // (b) whole segments were reclaimed, (c) the live-segment count
        // is bounded by the frontier spread — constant — rather than by
        // total ops, and (d) the state is still exact.
        let every = SEGMENT_SIZE / 2;
        let obj = WfUniversal::with_config(Counter::new(0), checkpointed(every));
        let mut h = obj.register();
        let per = 8 * SEGMENT_SIZE;
        for _ in 0..per {
            h.invoke(CounterOp::Add(1));
        }
        assert!(obj.checkpoints() >= 2, "cadence fired: {}", obj.checkpoints());
        assert!(
            obj.reclaimed_segments() >= 4,
            "old segments reclaimed: {}",
            obj.reclaimed_segments()
        );
        assert!(
            obj.live_segments() <= 3,
            "live segments bounded by frontier spread, got {}",
            obj.live_segments()
        );
        assert_eq!(h.invoke(CounterOp::Get), CounterResp::Value(per as i64));
        // The retained decided prefix starts past the truncation point:
        // far fewer pairs than total ops.
        assert!(h.decided_log().len() < per / 2);
    }

    #[test]
    fn late_registrant_adopts_checkpoint() {
        // A handle that arrives after truncation cannot replay from
        // position 0 (those segments are gone): it must bootstrap from
        // a retained checkpoint image and still observe the full state.
        let every = SEGMENT_SIZE / 2;
        let obj = WfUniversal::with_config(Counter::new(0), checkpointed(every));
        let mut h = obj.register();
        let per = 6 * SEGMENT_SIZE;
        for _ in 0..per {
            h.invoke(CounterOp::Add(1));
        }
        assert!(obj.reclaimed_segments() >= 1, "truncation happened");
        let mut late = obj.register();
        assert!(
            late.replayed() > 0,
            "late registrant started from a checkpoint, not position 0"
        );
        assert_eq!(late.invoke(CounterOp::Get), CounterResp::Value(per as i64));
        // And it participates normally from there.
        late.invoke(CounterOp::Add(5));
        assert_eq!(h.invoke(CounterOp::Get), CounterResp::Value(per as i64 + 5));
    }

    /// Regression: `register` used to publish its adopted frontier only
    /// after cloning the checkpoint image, with its hazard on the
    /// image's segment alone — so a reclaimer working from a newer
    /// checkpoint could free the segments *after* it meanwhile, and the
    /// registrant's first replay walked into freed memory. A state that
    /// takes a while to clone makes the window wide.
    #[test]
    fn registrant_adopting_under_reclamation_never_reaches_a_freed_segment() {
        use waitfree_sched::atomic::AtomicBool;
        const ITEMS: i64 = 4096;
        let obj = WfUniversal::with_config(FifoQueue::from_items(0..ITEMS), checkpointed(8));
        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..3)
            .map(|_| {
                let (obj, stop) = (obj.clone(), Arc::clone(&stop));
                thread::spawn(move || {
                    let mut h = obj.register();
                    while !stop.load(Ordering::SeqCst) {
                        h.invoke(QueueOp::Enq(7));
                        h.invoke(QueueOp::Deq);
                    }
                    h.retire();
                })
            })
            .collect();
        // At least 400 registrations, and enough of them racing a
        // reclaimer (a fast build gets through 400 before the writers
        // fill their first segment).
        let mut probes = 0;
        while probes < 400 || (obj.reclaimed_segments() < 32 && probes < 1_000_000) {
            let mut late = obj.register();
            let len = late.read(FifoQueue::len) as i64;
            assert!((ITEMS..=ITEMS + 3).contains(&len), "{len}");
            late.retire();
            probes += 1;
        }
        stop.store(true, Ordering::SeqCst);
        for w in writers {
            w.join().unwrap();
        }
        assert!(obj.reclaimed_segments() > 0, "reclamation never ran under the registrants");
    }

    #[test]
    fn checkpointed_matches_unbounded_sequential() {
        // Same op script through a checkpointed and an unbounded object:
        // responses and final states must agree exactly (truncation is
        // invisible to the abstract object).
        let script: Vec<QueueOp> = (0..3 * SEGMENT_SIZE as i64)
            .map(|i| if i % 3 == 2 { QueueOp::Deq } else { QueueOp::Enq(i) })
            .collect();
        let obj_cp = WfUniversal::with_config(FifoQueue::new(), checkpointed(8));
        let obj_un = WfUniversal::with_config(FifoQueue::new(), UniversalConfig::default());
        let mut cp = obj_cp.register();
        let mut un = obj_un.register();
        for op in &script {
            assert_eq!(cp.invoke(op.clone()), un.invoke(op.clone()), "{op:?}");
        }
        assert_eq!(cp.refresh(), un.refresh());
        assert!(obj_cp.checkpoints() >= 1);
        assert!(obj_cp.live_segments() < obj_un.live_segments());
    }

    /// Checkpoint truncation under real threads, small enough for
    /// `cargo miri test`: two handles race invokes across several
    /// checkpoint cadences and at least one segment reclaim, exercising
    /// the hazard/frontier protocol against the real memory model.
    #[test]
    fn miri_smoke_checkpoint_truncation() {
        let obj = WfUniversal::with_config(Counter::new(0), checkpointed(16));
        let other = obj.clone();
        let jb = thread::spawn(move || {
            let mut h = other.register();
            for _ in 0..70 {
                h.invoke(CounterOp::Add(1));
            }
            h.retire();
        });
        let mut h = obj.register();
        for _ in 0..70 {
            h.invoke(CounterOp::Add(1));
        }
        jb.join().unwrap();
        match h.invoke(CounterOp::Get) {
            CounterResp::Value(v) => assert_eq!(v, 140),
            other => panic!("unexpected {other:?}"),
        }
        h.retire();
        obj.reclaim();
        assert!(obj.checkpoints() >= 1, "cadence fired under contention");
        assert!(obj.reclaimed_segments() >= 1, "reclaim ran under contention");
    }

    /// Regression (and `cargo miri test` coverage for the retired
    /// replay path): `retire()` unpins the handle's frontier, so later
    /// activity by other handles reclaims the segment its cached replay
    /// anchor points into — purely sequentially, no race needed. The
    /// quiescent `refresh()` diagnostic must re-anchor at the retained
    /// root (adopting a checkpoint when its cursor was truncated away)
    /// instead of dereferencing the stale cache.
    #[test]
    fn miri_smoke_retired_refresh_after_truncation() {
        let obj = WfUniversal::with_config(Counter::new(0), checkpointed(16));
        let mut early = obj.register();
        early.invoke(CounterOp::Add(1));
        early.retire();
        let mut busy = obj.register();
        for _ in 0..3 * SEGMENT_SIZE {
            busy.invoke(CounterOp::Add(1));
        }
        assert!(
            obj.reclaimed_segments() >= 1,
            "truncation ran behind the retired handle"
        );
        // The retired handle's cursor (1) now lies in a freed segment;
        // its refresh must adopt a retained checkpoint and converge.
        assert_eq!(early.refresh(), busy.refresh());
        // Idempotent: a second quiescent refresh replays nothing new.
        assert_eq!(early.refresh(), busy.refresh());
    }

    #[test]
    fn entries_are_freed_with_the_object() {
        // Leak check: segments behind the reclaim bound are actually
        // freed while the object is still alive (live-segment count
        // drops back), op payloads inside them are dropped (observed by
        // refcount on a probe Arc inside the op), and object drop frees
        // everything that remains.
        let probe = Arc::new(());
        #[derive(Clone, Debug, PartialEq, Eq, Hash)]
        struct Probe;
        impl waitfree_model::ObjectSpec for Probe {
            type Op = ProbeOp;
            type Resp = ();
            fn apply(&mut self, _pid: Pid, _op: &Self::Op) {}
        }
        // The field is never read: it exists so the op's drop decrements
        // the probe Arc, making leaked entries observable as refcounts.
        #[derive(Clone, Debug)]
        struct ProbeOp(#[allow(dead_code)] Arc<()>);
        impl PartialEq for ProbeOp {
            fn eq(&self, _: &Self) -> bool {
                true
            }
        }
        impl Eq for ProbeOp {}
        impl std::hash::Hash for ProbeOp {
            fn hash<H: std::hash::Hasher>(&self, _: &mut H) {}
        }

        let obj = WfUniversal::with_config(Probe, checkpointed(SEGMENT_SIZE / 2));
        let mut h = obj.register();
        for _ in 0..4 * SEGMENT_SIZE {
            h.invoke(ProbeOp(Arc::clone(&probe)));
        }
        let installed = obj.installed_segments();
        assert!(installed >= 4, "log spanned segments: {installed}");
        assert!(Arc::strong_count(&probe) > 1, "log holds payloads");
        h.retire();
        drop(h);
        obj.reclaim();
        // Mid-life reclamation really freed memory: only the frontier
        // neighbourhood survives, and with it only a bounded number of
        // payload clones (announce cell + retained tail).
        assert!(
            obj.live_segments() <= 2,
            "retired segments freed while object lives: {} live",
            obj.live_segments()
        );
        assert!(
            Arc::strong_count(&probe) <= 2 * SEGMENT_SIZE + 2,
            "payload refs bounded by retained tail, got {}",
            Arc::strong_count(&probe)
        );
        drop(obj);
        assert_eq!(Arc::strong_count(&probe), 1, "all log references freed");
    }
}
