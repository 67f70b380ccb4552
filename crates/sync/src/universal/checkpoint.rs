//! Truncation: checkpoints decided into the log, and the segments behind
//! them reclaimed — the paper's strongly-wait-free variant (§4.1 end;
//! the abstract model is `waitfree-core`'s `universal::log`).
//!
//! With [`UniversalConfig::checkpoint_every`](super::UniversalConfig::checkpoint_every)
//! set, a handle whose replay frontier has advanced `every` positions
//! past the latest checkpoint proposes a [`LogEntry::Checkpoint`]
//! carrying its replica state: one ordinary consensus decide, wait-free
//! — the loser of the checkpoint CAS just frees its image and moves on,
//! and replayers treat a checkpoint as an empty batch (their replica
//! already equals the image when they reach it). Whole segments strictly
//! behind `min(latest checkpoint, min over active handles' frontiers)`
//! are detached from the chain into the segment limbo and freed once no
//! walker's segment hazard covers them. Retired, dropped and crashed
//! handles publish `usize::MAX` (never pinning memory), and a late
//! registrant bootstraps its replica from the oldest retained
//! checkpoint — at least one is retained by construction, since the
//! reclaim bound never passes the newest one. Steady-state memory is
//! O(frontier spread), not O(total ops).
//!
//! The one walk that starts from the chain root rather than from a
//! handle's own frontier lives here too, beside the reclaimer it races:
//! [`Shared::walk_retained`] pins the root in the walker's segment
//! hazard, validates every hop against `reclaimed_upto`, and feeds each
//! decided entry to a visitor. Registration's bootstrap
//! ([`Shared::bootstrap`]) and the decided-log diagnostics are its two
//! visitors.
//!
//! Orderings: **every word of this protocol is `SeqCst`**, by design —
//! the per-slot `frontier` and `seg_hazard`, and the shared `oldest`,
//! `cp_pos`, `reclaimed_upto` and `reclaim_lock`. Reclamation
//! correctness is proved as chains through the single total order
//! (frontier-publish-then-hazard-clear vs. hazard-check-then-fresh-bound;
//! detach high-water before unlink vs. hop-then-validate — DESIGN.md §8
//! has the audit), and none of these words is on the per-decide fast
//! path, so there is nothing to relax. The walk's slot and link loads
//! are `SeqCst` as well.

use std::ptr;
use waitfree_sched::atomic::{AtomicUsize, Ordering};

use waitfree_faults::failpoint;
use waitfree_model::ObjectSpec;

use super::log::{CpImage, LogEntry, LogSeg};
use super::registry::HandleSlot;
use super::{Shared, WfHandle, WfUniversal};

/// Stores 0 into its word when dropped — by return or by unwinding. It
/// releases `Shared::reclaim_lock`, so a `failpoint!` crash out of
/// `try_reclaim` never wedges reclamation for everyone else, and it
/// clears a walker's segment hazard on every exit of
/// [`Shared::walk_retained`].
struct ZeroOnDrop<'a>(&'a AtomicUsize);

impl Drop for ZeroOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(0, Ordering::SeqCst);
    }
}

/// What [`Shared::walk_retained`] shows its visitor, in log order.
pub(super) enum Walked<'a, S: ObjectSpec> {
    /// A pass begins at this chain root, now pinned by the walker's
    /// hazard. A rewalk starts a new pass here.
    Pinned(*const LogSeg<S>),
    /// The decided entry at position `pos`, inside `seg`.
    Decided { seg: &'a LogSeg<S>, pos: usize, entry: &'a LogEntry<S> },
    /// The pass reached the first undecided position or the chain's end.
    End,
}

/// A visitor's answer. At [`Walked::End`] there is nothing left to go
/// on to, so `Next` there starts a new pass, as `Rewalk` does.
pub(super) enum Visit<T> {
    /// Go on to the next decided position.
    Next,
    /// Stop the walk; it returns this value.
    Stop(T),
    /// Start a new pass from the then-current root.
    Rewalk,
}

impl<S: ObjectSpec> Shared<S> {
    /// Whether any registered slot's segment hazard currently covers
    /// `x` (a detached segment may only be freed when none does).
    fn seg_pinned(&self, x: *mut LogSeg<S>) -> bool {
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
    fn pin_oldest(&self, slot: &HandleSlot<S::Op>) -> *const LogSeg<S> {
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

    /// Walk the retained log from the chain root to the first undecided
    /// position, showing `visit` the pinned root, then every decided
    /// entry in order, then the end of the decided prefix, until it
    /// stops the walk.
    ///
    /// The walk owns the whole hazard protocol. It pins the root in
    /// `slot`'s segment hazard, and hops to the next segment by moving
    /// the hazard there and then proving the target was still chained:
    /// detaches run oldest-first and record `reclaimed_upto` before each
    /// unlink, so a value at or below the left segment's end means the
    /// target was not detached when the hazard landed, and any later
    /// detach of it follows the hazard in the SeqCst total order — its
    /// sweep sees the hazard and keeps the segment. Otherwise the pass
    /// starts over. The hazard is cleared on every exit, and only after
    /// the visitor returned, so whatever the visitor published while
    /// pinned (a registrant's frontier) is visible to any sweep that
    /// finds the hazard gone.
    ///
    /// `visit` sees references valid only for the call: the segment may
    /// be freed once the walk moves on.
    pub(super) fn walk_retained<T>(
        &self,
        slot: &HandleSlot<S::Op>,
        mut visit: impl FnMut(Walked<'_, S>) -> Visit<T>,
    ) -> T {
        let _unpin = ZeroOnDrop(&slot.seg_hazard);
        // progress: lock-free — a new pass follows a reclaimer's detach
        // under this walk, or a checkpoint decided during it; both are
        // bounded by decided checkpoints.
        'walk: loop {
            let root = self.pin_oldest(slot);
            let (mut seg, mut i) = (root, 0);
            let mut at = Walked::Pinned(root);
            // progress: bounded — one visit per decided position from the
            // pinned root to the first undecided one.
            loop {
                let end = matches!(at, Walked::End);
                match visit(at) {
                    Visit::Stop(t) => return t,
                    Visit::Next if !end => {}
                    Visit::Next | Visit::Rewalk => continue 'walk,
                }
                // progress: bounded — at most one hop, then one slot.
                at = loop {
                    // SAFETY: the hazard covers `seg`: it is the pinned
                    // root or a hop validated below.
                    let s = unsafe { &*seg };
                    if let Some(ls) = s.slots.get(i) {
                        let raw = ls.0.load(Ordering::SeqCst);
                        if raw.is_null() {
                            break Walked::End;
                        }
                        let pos = s.base + i;
                        i += 1;
                        // SAFETY: a non-null slot owns its decided entry,
                        // and the hazard keeps its segment alive.
                        break Walked::Decided { seg: s, pos, entry: unsafe { &*raw } };
                    }
                    // ordering: SeqCst [pairs: universal.seg_install] —
                    // pairs with the chain's Release segment install.
                    let next = s.next.load(Ordering::SeqCst);
                    if next.is_null() {
                        break Walked::End;
                    }
                    // `s.end()` is read before the hazard moves: the
                    // store unpins `s`, which a sweep may then free.
                    let s_end = s.end();
                    slot.seg_hazard.store(next as usize, Ordering::SeqCst);
                    if self.reclaimed_upto.load(Ordering::SeqCst) > s_end {
                        continue 'walk;
                    }
                    (seg, i) = (next, 0);
                };
            }
        }
    }

    /// The replica a registrant on `slot` starts from: its anchor
    /// segment, state, applied watermarks and replay cursor, with the
    /// slot's frontier published so that everything from the cursor on
    /// stays retained.
    ///
    /// Without checkpointing nothing is ever reclaimed: replay starts at
    /// position 0 of the immortal base-0 segment. With checkpointing the
    /// retained log may start past position 0, so the registrant adopts
    /// the first checkpoint [`Self::walk_retained`] finds — a valid image
    /// of the whole truncated prefix. The adopted frontier is published
    /// before the image is cloned, and the adoption stands only if
    /// `reclaimed_upto` then shows no detach past the checkpoint's
    /// segment: detaches run oldest-first, so every later segment is
    /// still chained, and any sweep that could free one recomputes its
    /// bound after the store and keeps it. If the walk ends without a
    /// checkpoint the log was never truncated — provided none exists at
    /// all, which the `cp_pos` re-check certifies *after* a frontier-0
    /// store: that store precedes our `cp_pos` read, which (reading 0)
    /// precedes any checkpoint decide's `fetch_max`, which precedes any
    /// reclaimer's `cp_pos` read and then its frontier scan — so every
    /// reclaimer that could detach the root sees our 0 first. A
    /// checkpoint that appeared mid-walk (its position scanned while
    /// still null) means a rewalk, which then finds one: the decided
    /// prefix is contiguous and the newest checkpoint's segment is
    /// retained.
    pub(super) fn bootstrap(
        &self,
        slot: &HandleSlot<S::Op>,
        initial: &S,
    ) -> (*const LogSeg<S>, S, Vec<usize>, usize) {
        if self.cfg.checkpoint_every.is_none() {
            slot.frontier.store(0, Ordering::SeqCst);
            return (self.oldest.load(Ordering::SeqCst), initial.clone(), Vec::new(), 0);
        }
        let mut root = ptr::null();
        self.walk_retained(slot, |at| match at {
            Walked::Pinned(r) => {
                root = r;
                Visit::Next
            }
            Walked::Decided { seg, pos, entry: LogEntry::Checkpoint(img) } => {
                slot.frontier.store(pos, Ordering::SeqCst);
                if self.reclaimed_upto.load(Ordering::SeqCst) > seg.end() {
                    slot.frontier.store(usize::MAX, Ordering::SeqCst);
                    return Visit::Rewalk;
                }
                Visit::Stop((ptr::from_ref(seg), img.state.clone(), img.applied.clone(), pos + 1))
            }
            Walked::Decided { .. } => Visit::Next,
            Walked::End => {
                slot.frontier.store(0, Ordering::SeqCst);
                if self.cp_pos.load(Ordering::SeqCst) == 0 {
                    return Visit::Stop((root, initial.clone(), Vec::new(), 0));
                }
                slot.frontier.store(usize::MAX, Ordering::SeqCst);
                Visit::Rewalk
            }
        })
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
    pub(super) fn try_reclaim(&self) {
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
        let _guard = ZeroOnDrop(&self.reclaim_lock);
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
}

impl<S: ObjectSpec> WfUniversal<S> {
    /// Run a reclamation pass now (detach + sweep), as invokes do after
    /// deciding a checkpoint. Useful for tests and for forcing the
    /// final sweep after handles retire; a no-op without checkpointing
    /// or when another thread holds the reclaim lock.
    pub fn reclaim(&self) {
        self.shared.try_reclaim();
    }
}

impl<S: ObjectSpec> WfHandle<S> {
    /// Decide a [`LogEntry::Checkpoint`] at the handle's replay cursor
    /// if the configured cadence came due. Wait-free: one CAS attempt —
    /// on loss the position was decided by a concurrent op (or another
    /// checkpoint) and the image is simply freed, at the cost of the
    /// state's `Clone`; the cadence check re-fires on a later invoke.
    /// The proposer is fully replayed up to `cursor`, so its replica
    /// *is* the prefix image, and the image carries the `applied`
    /// watermarks so adopters dedup correctly.
    pub(super) fn maybe_checkpoint(&mut self) {
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
        if log_slot.compare_exchange(ptr::null_mut(), raw, Ordering::SeqCst, Ordering::SeqCst).is_err() {
            // Lost to a concurrent decide at this position; replay
            // will adopt it and a later invoke retries the cadence.
            // SAFETY: the CAS failed, so `raw` was never published;
            // we still own it exclusively.
            drop(unsafe { Box::from_raw(raw) });
            return;
        }
        // Our own checkpoint applies nothing: skip it.
        self.cursor = k + 1;
        self.shared.cp_pos.fetch_max(k, Ordering::SeqCst);
        self.shared.checkpoints.fetch_add(1, Ordering::SeqCst);
        self.publish_hint(k + 1);
        self.shared.try_reclaim();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universal::fixtures::checkpointed;
    use crate::universal::{UniversalConfig, SEGMENT_SIZE};
    use std::sync::Arc;
    use waitfree_model::Pid;
    use waitfree_objects::counter::{Counter, CounterOp, CounterResp};
    use waitfree_objects::queue::{FifoQueue, QueueOp};
    use waitfree_sched::thread;

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
        let stats = obj.stats();
        assert!(stats.checkpoints >= 2, "cadence fired: {}", stats.checkpoints);
        assert!(stats.reclaimed_segments >= 4, "old segments reclaimed: {}", stats.reclaimed_segments);
        assert!(stats.live_segments <= 3, "live segments bounded by frontier spread, got {}", stats.live_segments);
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
        assert!(obj.stats().reclaimed_segments >= 1, "truncation happened");
        let mut late = obj.register();
        assert!(
            late.stats().replayed > 0,
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
        while probes < 400 || (obj.stats().reclaimed_segments < 32 && probes < 1_000_000) {
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
        assert!(obj.stats().reclaimed_segments > 0, "reclamation never ran under the registrants");
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
        assert_eq!(cp.read(FifoQueue::clone), un.read(FifoQueue::clone));
        assert!(obj_cp.stats().checkpoints >= 1);
        assert!(obj_cp.stats().live_segments < obj_un.stats().live_segments);
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
        let stats = obj.stats();
        assert!(stats.checkpoints >= 1, "cadence fired under contention");
        assert!(stats.reclaimed_segments >= 1, "reclaim ran under contention");
    }

    /// Both visitors of the one hazard-pinned walk on real threads, small
    /// enough for `cargo miri test`: a writer invokes past several
    /// checkpoint cadences and a segment reclaim, then keeps invoking
    /// while a late registrant adopts a checkpoint and walks the
    /// retained log with `decided_log`.
    #[test]
    fn miri_smoke_late_registrant_walks_under_reclamation() {
        let obj = WfUniversal::with_config(Counter::new(0), checkpointed(8));
        let mut h = obj.register();
        for _ in 0..SEGMENT_SIZE + 16 {
            h.invoke(CounterOp::Add(1));
        }
        assert!(obj.stats().reclaimed_segments >= 1, "segment 0 is gone before the registrant arrives");
        let other = obj.clone();
        let late = thread::spawn(move || {
            let mut late = other.register();
            assert!(late.stats().replayed > 0, "the registrant adopted a checkpoint");
            let seen = late.read(Counter::value);
            let log = late.decided_log();
            assert!(
                log.windows(2).all(|w| w[0].0 == 0 && w[1] == (0, w[0].1 + 1)),
                "the retained log is a contiguous run of the writer's ops: {log:?}"
            );
            late.retire();
            seen
        });
        for _ in 0..SEGMENT_SIZE {
            h.invoke(CounterOp::Add(1));
        }
        let seen = late.join().unwrap();
        let total = (2 * SEGMENT_SIZE + 16) as i64;
        assert!(((SEGMENT_SIZE + 16) as i64..=total).contains(&seen), "{seen}");
        assert_eq!(h.read(Counter::value), total);
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
        let installed = obj.stats().installed_segments;
        assert!(installed >= 4, "log spanned segments: {installed}");
        assert!(Arc::strong_count(&probe) > 1, "log holds payloads");
        h.retire();
        drop(h);
        obj.reclaim();
        // Mid-life reclamation really freed memory: only the frontier
        // neighbourhood survives, and with it only a bounded number of
        // payload clones (announce cell + retained tail).
        let live = obj.stats().live_segments;
        assert!(live <= 2, "retired segments freed while object lives: {live} live");
        assert!(
            Arc::strong_count(&probe) <= 2 * SEGMENT_SIZE + 2,
            "payload refs bounded by retained tail, got {}",
            Arc::strong_count(&probe)
        );
        drop(obj);
        assert_eq!(Arc::strong_count(&probe), 1, "all log references freed");
    }
}
