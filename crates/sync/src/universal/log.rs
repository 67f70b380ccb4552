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
//! The log is a segmented chain (the `chain` module) of
//! [`SEGMENT_SIZE`]-position segments, grown by the one wait-free
//! install it shares with the handle registry. The log is unbounded
//! unless [`UniversalConfig::cap`](super::UniversalConfig::cap) opts
//! into a position cap for the fault tests.
//!
//! Orderings: segment links are the chain's (`Release` install /
//! `Acquire` follow); the `segments` diagnostic counter is an `AcqRel`
//! bump / `Acquire` read, so a reported count of `n` implies the `n`
//! installs it counts are visible to the reader.

use std::ptr;
use waitfree_sched::atomic::{AtomicPtr, Ordering};

use waitfree_model::ObjectSpec;

use super::chain::Seg;
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

/// One log position: null while undecided, then the owner of the
/// `Box<LogEntry>` the winning decide CAS transferred into it.
pub(super) struct LogSlot<S: ObjectSpec>(pub(super) AtomicPtr<LogEntry<S>>);

/// A log segment: the chain's block of [`SEGMENT_SIZE`] positions.
/// Segments are reachable only through the `oldest` root and `next`
/// links; they are freed by checkpointed reclamation
/// (`Shared::try_reclaim`) or, for whatever remains, when the owning
/// [`Shared`] drops.
pub(super) type LogSeg<S> = Seg<LogSlot<S>>;

impl<S: ObjectSpec> Default for LogSlot<S> {
    fn default() -> Self {
        LogSlot(AtomicPtr::new(ptr::null_mut()))
    }
}

impl<S: ObjectSpec> Drop for LogSlot<S> {
    fn drop(&mut self) {
        let p = *self.0.get_mut();
        if !p.is_null() {
            // SAFETY: a non-null slot owns the Box transferred by the
            // winning decide CAS; each segment is dropped exactly once
            // (by reclamation or by `Shared::drop`), so the entry is
            // freed exactly once.
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
    #[inline]
    pub(super) fn seg_for(&self, seg: *const LogSeg<S>, k: usize) -> *const LogSeg<S> {
        // SAFETY: the starting segment is alive (see above), and
        // everything the chain reaches from it covers higher positions
        // — also above the caller's frontier, so also outside the
        // reclaim bound while the caller holds its cache.
        let s = unsafe { &*seg };
        ptr::from_ref(s.find_or_grow(k, || {
            // ordering: AcqRel [site: universal.seg_count;
            // pairs: universal.seg_count] — the diagnostic counter
            // chains installer clocks, so an Acquire reader of the
            // count also inherits every earlier install (keeps the
            // counter meaningful off-thread; off the hot path).
            self.segments.fetch_add(1, Ordering::AcqRel);
        }))
    }

    /// The slot of global position `k` inside `seg` (which must contain
    /// `k`).
    #[inline]
    pub(super) fn slot(&self, seg: *const LogSeg<S>, k: usize) -> &AtomicPtr<LogEntry<S>> {
        // SAFETY: see `seg_for` — the caller's cached segment is
        // protected by its published frontier.
        &unsafe { &*seg }.at(k).0
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
