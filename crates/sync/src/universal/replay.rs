//! Apply decided entries: §4.1's `eval`/`apply`, once per handle.
//!
//! Every handle holds a replica of the object and a replay cursor; an
//! invoke replays up to the position that decided its own op to compute
//! the response. Helping can thread the same entry into several
//! positions (helpers and the owner may each win with a batch containing
//! it); replay deduplicates by per-thread sequence number, the standard
//! fix. The first occurrence of `(t, s)` in log order is always in
//! per-thread sequence order: a batch can only contain `(t, s)` if its
//! collect scan observed `done[t] == s`, which happens-after the decide
//! that threaded `(t, s-1)` — and the decided prefix is contiguous, so
//! that decide sits at a lower position.
//!
//! Reads take no decide at all. §4.1 needs consensus only to order
//! *mutations*; [`WfHandle::read`] answers from the handle's own replica
//! after catching it up to an observed decided frontier — the
//! Acquire-load of the `hint` word — without announcing, allocating or
//! CASing anything, linearized at that load (DESIGN.md §11).
//!
//! A handle publishes its *replay frontier* in its registry slot after
//! every call that moved its cursor, and only then; the reclaim bound
//! never passes a published frontier, which is what keeps the handle's
//! cached segment pointers alive.
//!
//! Orderings: slot loads are `Acquire`, pairing with the release half of
//! the winner's `SeqCst` decide or checkpoint install, so the
//! `LogEntry` pointed to is fully visible.

use waitfree_sched::atomic::Ordering;

use waitfree_faults::failpoint;
use waitfree_model::{ObjectSpec, Pid};

use super::log::{LogEntry, Segment};
use super::registry::HandleSlot;
use super::{Shared, UniversalError, WfHandle};

impl<S: ObjectSpec> WfHandle<S> {
    /// Replay until this handle's own operation `seq` is applied and
    /// return its response. A batch is applied member by member in
    /// decide order; the position containing the op is finished before
    /// returning (its later members were linearized by the same decide,
    /// so applying them is plain local catch-up), keeping `cursor` a
    /// whole-position index. Checkpoint entries contribute no members:
    /// the replica already equals their image when it reaches them.
    pub(super) fn replay_own(&mut self, seq: usize) -> S::Resp {
        // progress: bounded — applies one decided position per
        // iteration; stops at this operation's own entry, which the
        // caller's threading loop guaranteed is decided.
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
                return r;
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
    pub(super) fn publish_frontier(&mut self) {
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
            // SAFETY: as in `replay_own` — the slot owns the
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
    /// catch-up replays (`refresh`, `try_read`); `replay_own` keeps its
    /// own copy because it additionally watches for the
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
    /// checker and the equivalence tests keep per-op granularity
    /// regardless of how ops were grouped into positions.
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
    /// skipped. `decided_batches().len()` vs `decided_log().len()`
    /// measures how much combining happened.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universal::fixtures::{checkpointed, fixed, register_n};
    use crate::universal::{UniversalConfig, WfUniversal};
    use waitfree_objects::counter::{Counter, CounterOp};
    use waitfree_sched::thread;

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
}
