//! Announce → collect → decide: how an operation is threaded onto the
//! log (Figure 4-5's algorithm, with batch combining).
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
//!    position `k`, scan the registry from `k`'s *preferred slot*
//!    `k mod hi` (`hi` is the registered-slot high-water), and propose
//!    *every* currently-pending announced operation as one
//!    [`LogEntry::Batch`] (a `Solo` when only one is pending). One
//!    winning CAS threads up to `n` operations, and the losers find
//!    their op already decided instead of retrying. Starting at the
//!    preferred slot makes the batch a superset of the paper's one-op
//!    candidate, so once every position periodically prefers each slot
//!    an announced operation is threaded within `hi` positions: the
//!    wait-free bound, over peak active handles.
//!
//! The `replay` layer then applies the log up to the op's position.
//!
//! Orderings: the decide CAS stays `SeqCst` on success — it is the
//! linearization point and the paper's consensus primitive — and so do
//! `announced`/`done`, the announce/help handshake the helping bound is
//! proved against: seeing `announced > done` must imply the announce
//! cell is populated, and a batch member `(t, s)` must imply `(t, s-1)`
//! was already threaded. The announce cell and the entry hazards are
//! `SeqCst` as well: hazard-publish-then-revalidate against
//! replace-then-scan is a chain through the single total order. The
//! `hint` word, a lower bound on the first undecided position, is
//! `Release` publish / `Acquire` read: a thread that starts threading
//! at it skips the prefix below without touching those slots, so it
//! must inherit the publisher's edge to every decide there. A publish
//! Acquire-loads first and RMWs only to advance the word. The threading
//! start is clamped to the handle's own replay cursor — a safety
//! requirement: positions at or above the cursor are at or above the
//! published frontier, which the reclaim bound never passes.

use std::ptr;
use waitfree_sched::atomic::{AtomicPtr, Ordering};

use waitfree_faults::failpoint;
use waitfree_model::ObjectSpec;

use super::log::{Entry, LogEntry};
use super::registry::{RegSegment, REGISTRY_SEGMENT};
use super::{Shared, UniversalError, WfHandle};

/// Displaced announce entries an owner accumulates before sweeping its
/// limbo list (freeing every entry no helper hazard covers). Small: the
/// list holds at most this many plus the per-sweep survivors, and a
/// survivor is pinned by at most one helper's hazard at a time.
pub(super) const ENTRY_LIMBO_SWEEP: usize = 8;

impl<S: ObjectSpec> Shared<S> {
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
        // SAFETY: see `Shared::reg_slot`.
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

impl<S: ObjectSpec> WfHandle<S> {
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
    /// combining layer lowers: under contention `decides() /
    /// invokes()` drops toward 1/n.
    #[must_use]
    pub fn decides(&self) -> usize {
        self.decides
    }

    /// How many of [`Self::decides`] lost their CAS to a concurrent
    /// winner. Losing is cheap (the loser adopts the winner), but every
    /// loss is a wasted RMW on the contended slot; the benchmark reports
    /// this per completed op.
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
    pub(super) fn sweep_entry_limbo(&mut self) {
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

    /// The candidate for position `k`: scan the announce registry once,
    /// starting at `k`'s preferred slot, and gather every pending
    /// announced operation into one batch. The scan is
    /// `hi` `pending` reads (SeqCst loads plus the hazard protocol,
    /// no RMWs, nothing left published), so a thread that crashes
    /// mid-collect has perturbed nothing: every entry it gathered
    /// stays announced and helpable.
    ///
    /// Starting at the preferred slot makes the batch a superset of
    /// the paper's one-op candidate (the preferred slot's pending op),
    /// so the per-position helping guarantee the O(peak active) bound
    /// is proved against carries over unchanged.
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
            // entry anyway; replay deduplicates. Reuse the pre-built
            // Solo so a solo run allocates one box per invoke, never
            // per scan.
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
            let (candidate, is_own) = self.collect_candidate(k, hi, own, &mut own_solo);
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
    /// or a [`UniversalConfig::cap`](super::UniversalConfig::cap) is
    /// hit — the message is the
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
    /// [`UniversalConfig::cap`](super::UniversalConfig::cap) leaves no
    /// undecided position (never without one).
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

        // 3. Replay until our own entry is applied.
        let r = self.replay_own(seq);
        // 4. Completion-side hint publication: `thread_entry`'s own
        //    publish can lag our decided position when a helper
        //    threaded the op (its loop exits as soon as `done` passes
        //    `seq`), so re-publish at the replay cursor. This makes the
        //    hint ≥ one past every *completed* op's position — the
        //    invariant the log-free read path linearizes against: a
        //    `read` that starts after this return Acquire-loads a
        //    frontier covering this op. Off the contended decide path;
        //    one fetch_max per completed invoke.
        self.publish_hint(self.cursor);
        // 5. Checkpoint duty + frontier publication: decide a
        //    checkpoint if the cadence came due, advertise how far our
        //    replica has replayed, and let reclamation collect what
        //    fell behind every frontier.
        self.maybe_checkpoint();
        self.publish_frontier();
        Ok(r)
    }

    /// Advance the shared frontier hint to at least `k`.
    pub(super) fn publish_hint(&self, k: usize) {
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
        // feature reintroduces the original hint bug (published without a
        // release edge) so the happens-before checker's regression test
        // can prove it flags this class mechanically. Never enable
        // outside that test.
        #[cfg(feature = "mutant-relaxed-hint")]
        self.shared.hint.fetch_max(k, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universal::fixtures::register_n;
    use crate::universal::{UniversalConfig, WfUniversal};
    use waitfree_objects::counter::{Counter, CounterOp, CounterResp};
    use waitfree_objects::queue::{FifoQueue, QueueOp, QueueResp};
    use waitfree_sched::thread;

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
    fn threading_steps_are_counted_and_bounded_solo() {
        let mut h = WfUniversal::with_config(Counter::new(0), UniversalConfig::default()).register();
        assert_eq!(h.max_threading_steps(), 0);
        h.invoke(CounterOp::Add(1));
        // Alone, threading one op takes exactly one consensus decide.
        assert_eq!(h.last_threading_steps(), 1);
        assert_eq!(h.max_threading_steps(), 1);
        assert_eq!(h.n(), 1);
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
}
