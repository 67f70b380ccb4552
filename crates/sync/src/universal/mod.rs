//! A wait-free universal object on hardware atomics: §4.1's
//! construction as one log decided by pointer CAS, with batch-combining
//! decides, dynamic membership and checkpointed truncation. The literal
//! Figure 4-5 rendering the explorer checks lives in `waitfree-core`
//! (`universal::consensus_cons`, `universal::log`); this is the one
//! hardware implementation, built one way — [`WfUniversal::with_config`]
//! over a [`UniversalConfig`] — and joined one way,
//! [`WfUniversal::register`].
//!
//! One private module per layer an operation crosses; each documents its
//! own argument and orderings:
//!
//! | module | layer | holds |
//! |--------|-------|-------|
//! | `config` | construction | [`UniversalConfig`], [`UniversalError`], `with_config` |
//! | `chain` | both unbounded arrays | the segment, its one-CAS growth, the lookup, the range walk, the chain's free |
//! | `log` | the decided sequence | [`Entry`], [`LogEntry`], [`CpImage`], the log slot and the `segments` count |
//! | `registry` | membership | handle slots, `register`/`retire`, the `pending` read helpers use |
//! | `decide` | announce → collect → decide | `invoke`, the entry free list and limbo, the threading loop, the `hint` |
//! | `replay` | apply | the one replay step, `read`, the decided-log visitors, the frontier |
//! | `checkpoint` | truncation | checkpoint decides, segment reclamation and its limbo, the hazard-pinned walk from the retained root |
//! | `stats` | diagnostics | [`ObjectStats`], [`HandleStats`], the one place every counter is loaded |
//!
//! An invoke is `decide` (announce, then thread the op onto the log),
//! then `replay` (apply up to the op's position), then `checkpoint` (the
//! cadence duty); a read is `replay` alone. This file defines the three
//! types every layer shares — `Shared`, [`WfUniversal`], [`WfHandle`] —
//! and each layer adds its methods. The decide CAS and the announce/done
//! handshake are `SeqCst` by choice; every weaker ordering carries a
//! typed `// ordering:` declaration that `wf-lint` resolves and the
//! `sched` campaigns check (DESIGN.md §8–§9). The `universal::*`
//! failpoint sites are listed in `waitfree_faults::failpoints`. The
//! small `chain`, `log` and `registry` helpers the other layers call
//! per position or per slot are `#[inline]`: each module compiles into its
//! own codegen unit, and without the hint those calls stay calls
//! (`wfbench`'s `uni_counter` `read_p99_ns` then reads ≈ 20 % higher on
//! a 2-vCPU host).

use std::cell::UnsafeCell;
use std::fmt;
use std::sync::Arc;
use waitfree_sched::atomic::{AtomicPtr, AtomicUsize, Ordering};

use waitfree_model::ObjectSpec;

mod chain;
mod checkpoint;
mod config;
mod decide;
mod log;
mod registry;
mod replay;
mod stats;

pub use config::{UniversalConfig, UniversalError};
pub use log::{CpImage, Entry, LogEntry, SEGMENT_SIZE};
pub use registry::REGISTRY_SEGMENT;
pub use stats::{HandleStats, ObjectStats};

use self::chain::Seg;
use self::log::LogSeg;
use self::registry::HandleSlot;

/// The state every handle of one object shares, field groups in layer
/// order: registry, log, checkpoint/reclaim, and the decide layer's
/// `hint`.
struct Shared<S: ObjectSpec> {
    cfg: UniversalConfig,
    /// Root of the registry chain (slot indices from 0). It never
    /// moves and nothing behind it is freed before `Shared` drops.
    reg_head: Box<Seg<HandleSlot<S::Op>>>,
    /// One past the highest slot index ever claimed — the `hi` that
    /// bounds the helping scan and the restated O(peak active) bound.
    /// Slot reuse keeps this at peak concurrent registrations, not
    /// total arrivals.
    slots_hi: AtomicUsize,
    /// [`ObjectStats`]' `active_handles`, `peak_active` and
    /// `total_arrivals`: diagnostics only.
    active: AtomicUsize,
    peak_active: AtomicUsize,
    arrivals: AtomicUsize,
    /// Root of the live log chain: the oldest segment not yet detached
    /// by reclamation. With checkpointing off this never moves and is
    /// always the base-0 segment.
    oldest: AtomicPtr<LogSeg<S>>,
    /// [`ObjectStats`]' `installed_segments` (a duplicate that loses
    /// the install race is freed and not counted), `reclaimed_segments`
    /// (detached *and freed*) and `checkpoints`: diagnostics only.
    segments: AtomicUsize,
    reclaimed: AtomicUsize,
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
    limbo: UnsafeCell<Vec<*mut LogSeg<S>>>,
    /// Heuristic lower bound on the first undecided position.
    hint: AtomicUsize,
}

impl<S: ObjectSpec> fmt::Debug for Shared<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shared")
            .field("cfg", &self.cfg)
            .field("stats", &self.stats())
            .field("cp_pos", &self.cp_pos.load(Ordering::SeqCst))
            // ordering: Acquire [pairs: universal.hint_pub] —
            // diagnostics read cross-thread state; Acquire keeps the
            // printed value consistent with the structures it describes
            // (uniform rule for observers).
            .field("hint", &self.hint.load(Ordering::Acquire))
            .finish_non_exhaustive()
    }
}

impl<S: ObjectSpec> Drop for Shared<S> {
    fn drop(&mut self) {
        // SAFETY: `Drop` has exclusive access. Every segment of the live
        // log chain (from `oldest`) and of the registry chain after its
        // boxed root came from `Box::into_raw` and is freed exactly once
        // here (limbo segments are unreachable from `oldest`).
        unsafe {
            Seg::free(*self.oldest.get_mut());
            Seg::free(*self.reg_head.next.get_mut());
        }
        // Whatever reclamation had detached but not yet freed, one by
        // one: a detached segment's link still points into the live
        // chain, so it must not be followed.
        for &p in self.limbo.get_mut().iter() {
            // SAFETY: limbo holds segments already detached from the
            // chain (never reachable from `oldest` again), each pushed
            // exactly once; with exclusive access they are freed here.
            drop(unsafe { Box::from_raw(p) });
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
/// assert_eq!(obj.stats().registry_slots, 2);
///
/// // Bounded memory for a long-running service: checkpoint every 64
/// // positions and free the segments behind every replica.
/// let cfg = UniversalConfig { checkpoint_every: Some(64), ..UniversalConfig::default() };
/// let service = WfUniversal::with_config(Counter::new(0), cfg);
/// let mut h = service.register();
/// for _ in 0..1_000 {
///     h.invoke(CounterOp::Add(1));
/// }
/// assert!(service.stats().reclaimed_segments > 0);
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
    replay_seg: *const LogSeg<S>,
    /// Segment cache for the threading loop, whose position is likewise
    /// monotone (it starts at `max(hint, cursor)` — the clamp keeps it
    /// at or above the published frontier, hence unreclaimable).
    thread_seg: *const LogSeg<S>,
    /// Announce entries this handle displaced from its cell and not yet
    /// recycled (a helper's hazard may still cover the latest few).
    /// Swept opportunistically every
    /// [`ENTRY_LIMBO_SWEEP`](decide::ENTRY_LIMBO_SWEEP)
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
    /// This handle's counters, bumped in place by the decide and replay
    /// layers. `replayed` stays 0 here: [`WfHandle::stats`] reads it
    /// from `cursor`.
    counters: HandleStats,
}

// SAFETY: the raw segment/slot pointers cached here always point into
// chains owned by `shared`, which the handle keeps alive via its
// `Arc<Shared<S>>` (and, for log segments, pins against reclamation via
// its published frontier); `entry_limbo` holds entries this handle
// exclusively owns. The handle is therefore exactly as thread-safe as
// its owned state (`S`) plus the shared structure (see `Shared`'s
// impls).
unsafe impl<S: ObjectSpec + Send + Sync> Send for WfHandle<S> where S::Op: Send + Sync {}

/// Test fixtures shared by the layers' unit tests.
#[cfg(test)]
mod fixtures {
    use super::{UniversalConfig, WfHandle, WfUniversal};
    use waitfree_model::ObjectSpec;

    /// A fresh object over `initial` with `n` handles registered in
    /// order, so `tid == index`.
    pub(super) fn fixed<S: ObjectSpec>(
        initial: S,
        n: usize,
        cfg: UniversalConfig,
    ) -> (WfUniversal<S>, Vec<WfHandle<S>>) {
        let obj = WfUniversal::with_config(initial, cfg);
        let handles = (0..n).map(|_| obj.register()).collect();
        (obj, handles)
    }

    /// [`fixed`] on the default configuration, handles only.
    pub(super) fn register_n<S: ObjectSpec>(initial: S, n: usize) -> Vec<WfHandle<S>> {
        fixed(initial, n, UniversalConfig::default()).1
    }

    pub(super) fn checkpointed(every: usize) -> UniversalConfig {
        UniversalConfig { checkpoint_every: Some(every), ..UniversalConfig::default() }
    }

    pub(super) fn capped(cap: usize) -> UniversalConfig {
        UniversalConfig { cap: Some(cap), ..UniversalConfig::default() }
    }

    /// The budget tests' configuration: two operations per registration.
    pub(super) fn budget_of_two() -> UniversalConfig {
        UniversalConfig { max_ops: 2, ..UniversalConfig::default() }
    }
}
