//! The decided sequence: §4.1's log, one position per consensus decide.
//!
//! A position is one `AtomicPtr<LogEntry>`: null means undecided, and
//! the first successful CAS from null wins (Theorem 7 compiled to one
//! hardware primitive; the CAS is the `decide` layer's). Proposals are
//! plain heap `Box`es owned by the winning position — there is *no
//! per-entry reference count*. Entry lifetime is governed wholesale,
//! per segment, by the `checkpoint` layer's checkpoint/frontier scheme,
//! so the decide/replay/collect hot path never touches reclamation
//! bookkeeping.
//!
//! The log is a linked list of [`SEGMENT_SIZE`]-position segments. A
//! thread that walks off the end allocates the next segment and
//! installs it with a CAS on the link; the loser of that race frees its
//! duplicate and follows the winner — growth is itself wait-free (one
//! CAS attempt, then proceed). The log is unbounded unless
//! [`UniversalConfig::cap`](super::UniversalConfig::cap) opts into a
//! position cap for the fault tests.
//!
//! Orderings: segment `next` links are `Release` install / `Acquire`
//! follow, so a segment's header and null slots are visible before the
//! segment is reachable; the `segments` diagnostic counter is an
//! `AcqRel` bump / `Acquire` read, so a reported count of `n` implies
//! the `n` installs it counts are visible to the reader.

use std::marker::PhantomData;
use std::ptr;
use waitfree_sched::atomic::{AtomicPtr, Ordering};

use waitfree_model::ObjectSpec;

use super::Shared;

/// Log positions per segment. 64 keeps a segment at one or two cache
/// pages of pointers and makes the growth tests cheap to trigger.
pub const SEGMENT_SIZE: usize = 64;

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
/// [`WfHandle::decided_log`](super::WfHandle::decided_log) flattens
/// batches so the Wing–Gong checker and the equivalence tests keep
/// per-op granularity.
/// A checkpoint contributes no members: replayers that reach it
/// already hold a replica equal to its image, so they skip it, while a
/// bootstrapping registrant *starts* from it.
#[derive(Debug)]
pub enum LogEntry<S: ObjectSpec> {
    /// One operation: the candidate when the collect scan finds a
    /// single pending operation.
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
    #[inline]
    pub fn members(&self) -> &[Entry<S::Op>] {
        match self {
            LogEntry::Solo(e) => std::slice::from_ref(e),
            LogEntry::Batch(m) => m,
            LogEntry::Checkpoint(_) => &[],
        }
    }
}

/// One fixed-size block of the segmented log. `base` is the global index
/// of `slots[0]`; a null slot is an undecided position. Segments are
/// reachable only through the `oldest` root and `next` links installed
/// by CAS; they are freed by checkpointed reclamation
/// (`Shared::try_reclaim`) or, for whatever remains, when the owning
/// [`Shared`] drops. A decided slot owns the `Box<LogEntry>` behind it.
pub(super) struct Segment<S: ObjectSpec> {
    pub(super) base: usize,
    pub(super) slots: Box<[AtomicPtr<LogEntry<S>>]>,
    pub(super) next: AtomicPtr<Segment<S>>,
    /// Segments logically own the boxed `LogEntry` behind each decided
    /// slot (dropped in `Drop`); the marker keeps auto-traits honest.
    _own: PhantomData<Box<LogEntry<S>>>,
}

impl<S: ObjectSpec> Segment<S> {
    pub(super) fn new(base: usize) -> Box<Self> {
        Box::new(Segment {
            base,
            slots: (0..SEGMENT_SIZE).map(|_| AtomicPtr::new(ptr::null_mut())).collect(),
            next: AtomicPtr::new(ptr::null_mut()),
            _own: PhantomData,
        })
    }

    /// One past the last position this segment covers.
    #[inline]
    pub(super) fn end(&self) -> usize {
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
    /// The segment containing position `k`, walking forward from `seg`
    /// (which must satisfy `seg.base <= k` and be protected from
    /// reclamation — every caller passes a cached pointer whose
    /// segment's `end()` exceeds the handle's published frontier, which
    /// the reclaim bound never passes) and growing the log as needed.
    ///
    /// Growth is wait-free: a thread allocates the missing segment and
    /// makes exactly one install attempt; on failure it frees its copy
    /// and follows the winner.
    #[inline]
    pub(super) fn seg_for(&self, mut seg: *const Segment<S>, k: usize) -> *const Segment<S> {
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
    #[inline]
    pub(super) fn slot(&self, seg: *const Segment<S>, k: usize) -> &AtomicPtr<LogEntry<S>> {
        // SAFETY: see `seg_for` — the caller's cached segment is
        // protected by its published frontier.
        let s = unsafe { &*seg };
        debug_assert!(s.base <= k && k < s.base + SEGMENT_SIZE);
        &s.slots[k - s.base]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universal::fixtures::capped;
    use crate::universal::{UniversalConfig, UniversalError, WfUniversal};
    use waitfree_objects::counter::{Counter, CounterOp, CounterResp};

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
        let installed = obj.stats().installed_segments;
        assert!(installed >= 3, "log grew across segments: {installed}");
    }
}
