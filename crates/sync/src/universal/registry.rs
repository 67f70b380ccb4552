//! Membership: the announce array as a registry of handle slots.
//!
//! The paper fixes the process set `n` at creation time; a long-running
//! service does not. Following the infinite-arrival construction of
//! Bonin–Mostéfaoui–Perrin (PAPERS.md), the announce array is the
//! other instantiation of the log's segmented chain (the `chain`
//! module), in [`REGISTRY_SEGMENT`]-slot segments, each slot claimed by
//! one CAS. `WfUniversal::register` is wait-free —
//! every failed claim CAS implies a *different* concurrent registrant's
//! success, so the scan's step count is bounded by the number of
//! concurrently arriving clients. `WfHandle::retire` marks a slot
//! departed; a quiesced retired slot is reclaimed (lazily, by the next
//! registrant to scan past it), so registry memory is bounded by the
//! *peak number of concurrently active handles*, never by total
//! arrivals. A fixed process set is `n` sequential `register()` calls on
//! a fresh object (which claim slots `0..n` in order). A client that
//! crashes without retiring degrades gracefully: its at-most-one pending
//! op stays announced and helpable forever, and it costs exactly one
//! registry slot — never a wedged helping loop, because helpers skip a
//! slot with nothing pending in two loads (`Shared::pending`).
//!
//! Orderings: registry segment links are the chain's (`Release`
//! install / `Acquire` follow); `slots_hi`, the registered-slot
//! high-water, is an `AcqRel` `fetch_max` on claim / `Acquire` read, so
//! a scanner that reads `hi` can reach every slot below it through the
//! registry chain; slot `state` (free / active / retired) is `SeqCst` —
//! claim and retirement are rare membership events, kept on the
//! strongest ordering so slot hand-over inherits the departing owner's
//! announce writes. Sequence numbers continue across slot reuse — a
//! re-registered slot's first op takes `seq = announced` — so the
//! `(tid, seq)` replay dedup stays sound over churn.

use std::ptr;
use std::sync::Arc;
use waitfree_sched::atomic::{AtomicPtr, AtomicUsize, Ordering};

use waitfree_faults::failpoint;
use waitfree_model::ObjectSpec;

use super::log::Entry;
use super::{HandleStats, Shared, WfHandle, WfUniversal};

/// Handle slots per registry segment. Small, so the bounded-by-peak
/// tests can observe reuse without thousands of arrivals.
pub const REGISTRY_SEGMENT: usize = 8;

/// Registry-slot states. A slot is claimed FREE → ACTIVE by one
/// `register` CAS, marked ACTIVE → RETIRED by `retire`, and recycled
/// RETIRED → FREE by the claim scan of a later `register`, once
/// nothing is pending on it. A crashed client's slot
/// simply stays ACTIVE (or RETIRED with a pending op): helpers skip it
/// in two loads, and it costs one slot, never a wedged loop.
const SLOT_FREE: usize = 0;
const SLOT_ACTIVE: usize = 1;
const SLOT_RETIRED: usize = 2;

/// One registry slot: the dynamic-membership replacement for a fixed
/// thread index. A slot carries the announce/help handshake counters,
/// a single announce cell (latest entry wins; the displaced entry is
/// owned and eventually freed by the displacing owner), the helper-side
/// hazard pointers, and the replay frontier that governs segment
/// reclamation. Slots are recycled across registrations — the sequence
/// counter continues, the state machine resets.
pub(super) struct HandleSlot<Op> {
    /// `SLOT_FREE` / `SLOT_ACTIVE` / `SLOT_RETIRED`.
    pub(super) state: AtomicUsize,
    /// Operations announced on this slot across all of its owners.
    pub(super) announced: AtomicUsize,
    /// Operations of this slot threaded onto the log.
    pub(super) done: AtomicUsize,
    /// The latest announced entry (owned by the slot; replaced by the
    /// owner on each announce, with the predecessor handed to the
    /// owner's limbo list). Null until the slot's first announce.
    pub(super) cell: AtomicPtr<Entry<Op>>,
    /// Hazard pointer published by this slot's *owner* while it reads
    /// another slot's announce cell (`pending`): the displacing owner's
    /// limbo sweep keeps any entry a hazard covers alive.
    pub(super) entry_hazard: AtomicPtr<Entry<Op>>,
    /// Hazard on a log segment (stored as an address so the slot stays
    /// generic over `Op` alone), published while this slot's owner
    /// walks the chain from `oldest` (registration bootstrap and the
    /// decided-log diagnostics): the limbo sweep keeps a hazarded
    /// segment alive. Zero when unpinned.
    pub(super) seg_hazard: AtomicUsize,
    /// This handle's replay frontier: every position below it has been
    /// replayed into the handle's replica, so the handle will never
    /// read a log slot below it again. `usize::MAX` while unpublished,
    /// retired, or dropped — an inactive handle never pins a segment.
    pub(super) frontier: AtomicUsize,
}

impl<Op> Default for HandleSlot<Op> {
    fn default() -> Self {
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

impl<Op> HandleSlot<Op> {
    /// Stop pinning anything: the frontier goes to `usize::MAX` first,
    /// then both hazards are cleared. They are already clear in normal
    /// operation (`pending` and the walk clear them on every exit);
    /// clearing again covers a handle reused after a caught crash.
    fn unpin(&self) {
        self.frontier.store(usize::MAX, Ordering::SeqCst);
        self.seg_hazard.store(0, Ordering::SeqCst);
        self.entry_hazard.store(ptr::null_mut(), Ordering::SeqCst);
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

impl<S: ObjectSpec> Shared<S> {
    /// One past the highest slot index ever claimed.
    #[inline]
    pub(super) fn registered(&self) -> usize {
        // ordering: Acquire [pairs: universal.slots_hi] — pairs with
        // the AcqRel fetch_max in `register`'s claim, so a reader of `hi` can reach every slot
        // below `hi` through the registry chain (the claimant walked it
        // with Acquire before bumping).
        self.slots_hi.load(Ordering::Acquire)
    }

    /// The registry slot at index `t`, which must already be reachable
    /// (`t` below a value read from `slots_hi`, or below a claim this
    /// thread performed).
    #[inline]
    pub(super) fn reg_slot(&self, t: usize) -> &HandleSlot<S::Op> {
        self.reg_head.get(t)
    }

    /// Visit slots `0..hi` in index order, one range walk of the
    /// registry chain (the reclaim bound, hazard scans, and limbo
    /// sweeps all use this).
    pub(super) fn for_each_slot(&self, hi: usize, f: impl FnMut(usize, &HandleSlot<S::Op>)) {
        self.reg_head.for_range(0, hi, f);
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
    #[inline]
    pub(super) fn pending(
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
}

impl<S: ObjectSpec> WfUniversal<S> {
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
    /// `checkpoint` layer's hazard-pinned walk publishes the adopted
    /// frontier before unpinning, so reclamation can never free a
    /// segment out from under it.
    #[must_use]
    pub fn register(&self) -> WfHandle<S> {
        failpoint!("universal::register");
        let shared = &self.shared;
        let mut t = 0usize;
        let mut seg = &*shared.reg_head;
        // progress: wait-free — a claim CAS can fail only to another
        // registrant's success, and `t` then advances, so iterations are
        // bounded by slots claimed ahead of us plus the chain length.
        let slot: &HandleSlot<S::Op> = loop {
            seg = seg.find_or_grow(t, || {});
            let slot = seg.at(t);
            let claimable = match slot.state.load(Ordering::SeqCst) {
                SLOT_FREE => true,
                SLOT_RETIRED => {
                    // The one recycling path: a departed slot with
                    // nothing pending goes back in the free pool. (A retired
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
        let (anchor, state, applied, cursor) = shared.bootstrap(slot, &self.initial);
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
            counters: HandleStats::default(),
        }
    }
}

impl<S: ObjectSpec> WfHandle<S> {
    /// This handle's registry slot index (its thread identity in log
    /// entries and `Pid`s).
    #[must_use]
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Leave the object: all later invokes on this handle return
    /// [`UniversalError::Retired`](super::UniversalError::Retired), and
    /// the registry slot is marked retired. The claim scan of the next
    /// `register` to reach it recycles it once nothing is pending on it
    /// (at once, or once helpers thread the pending op), so a crash at
    /// the `universal::retire` failpoint leaves the slot as a finished
    /// retire does. The handle's replay frontier is unpinned *first*, so
    /// a retiring (or crashing-mid-retire) client never holds back
    /// segment reclamation. Idempotent.
    pub fn retire(&mut self) {
        if self.retired {
            return;
        }
        self.retired = true;
        // SAFETY: `slot` points into the registry chain owned by
        // `shared`, alive for the life of this handle.
        let slot = unsafe { &*self.slot };
        // Unpin before anything else — including before the failpoint —
        // so even a crash mid-retire stops pinning segments. Must
        // precede the RETIRED store: once the slot is reclaimable a new
        // owner may claim it, and these words are then the new owner's.
        slot.unpin();
        slot.state.store(SLOT_RETIRED, Ordering::SeqCst);
        self.shared.active.fetch_sub(1, Ordering::SeqCst);
        failpoint!("universal::retire");
        // Our frontier may have been the reclaim bound; collect what it
        // was pinning.
        self.shared.try_reclaim();
    }

    /// Whether [`Self::retire`] was called on this handle.
    #[must_use]
    pub fn is_retired(&self) -> bool {
        self.retired
    }
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
            unsafe { &*self.slot }.unpin();
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
    use crate::universal::{UniversalConfig, UniversalError};
    use waitfree_model::Pid;
    use waitfree_objects::counter::{Counter, CounterOp, CounterResp};
    use waitfree_sched::thread;

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
    fn registry_is_bounded_by_peak_active_not_total_arrivals() {
        // 100 arrivals, never more than one active at a time: the whole
        // churn runs on a single recycled slot.
        let obj = WfUniversal::with_config(Counter::new(0), UniversalConfig::default());
        for i in 0..100 {
            let mut h = obj.register();
            assert_eq!(h.tid(), 0, "sequential churn reuses slot 0");
            h.invoke(CounterOp::Add(1));
            h.retire();
            assert_eq!(obj.stats().total_arrivals, i + 1);
        }
        let stats = obj.stats();
        assert_eq!((stats.registry_slots, stats.peak_active, stats.active_handles), (1, 1, 0));
        let mut probe = obj.register();
        assert_eq!(probe.invoke(CounterOp::Get), CounterResp::Value(100));
    }

    #[test]
    fn register_grows_past_a_registry_segment() {
        let obj = WfUniversal::with_config(Counter::new(0), UniversalConfig::default());
        let mut handles: Vec<_> = (0..2 * REGISTRY_SEGMENT).map(|_| obj.register()).collect();
        let stats = obj.stats();
        assert_eq!((stats.registry_slots, stats.peak_active), (2 * REGISTRY_SEGMENT, 2 * REGISTRY_SEGMENT));
        for (i, h) in handles.iter_mut().enumerate() {
            assert_eq!(h.tid(), i);
            h.invoke(CounterOp::Add(1));
        }
        let total = handles[0].read(Counter::clone);
        assert_eq!(total, {
            let mut c = Counter::new(0);
            for t in 0..2 * REGISTRY_SEGMENT {
                c.apply(Pid(t), &CounterOp::Add(1));
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
        assert_eq!(obj.stats().active_handles, 1, "crashed client stays counted");
        let mut h = obj.register();
        assert_eq!(h.tid(), 1, "leaked slot is skipped, not reused");
        assert_eq!(h.invoke(CounterOp::Get), CounterResp::Value(10));
        assert_eq!(obj.stats().registry_slots, 2);
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
        let stats = obj.stats();
        assert!(stats.registry_slots <= 2, "churn of 2 threads needs at most 2 slots");
        assert_eq!(stats.total_arrivals, 7);
    }
}
