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
//! Both catch-ups — an invoke's, up to its own op, and a read's, up to
//! the frontier it observed — loop one per-position step, the only
//! place a replica applies the log.
//!
//! A handle publishes its *replay frontier* in its registry slot after
//! every call that moved its cursor, and only then; the reclaim bound
//! never passes a published frontier, which is what keeps the handle's
//! cached segment pointers alive. The decided-log diagnostics start
//! from the retained root instead, through the `checkpoint` layer's
//! hazard-pinned walk.
//!
//! Orderings: the step's slot load is `Acquire`, pairing with the
//! release half of the winner's `SeqCst` decide or checkpoint install,
//! so the `LogEntry` pointed to is fully visible.

use waitfree_sched::atomic::Ordering;

use waitfree_faults::failpoint;
use waitfree_model::{ObjectSpec, Pid};

use super::checkpoint::{Visit, Walked};
use super::log::LogEntry;
use super::{UniversalError, WfHandle};

impl<S: ObjectSpec> WfHandle<S> {
    /// Replay the decided position at `cursor` and step past it: apply,
    /// in decide order, every member the `(tid, seq)` dedup has not seen
    /// yet, and return the response of this handle's operation `own` if
    /// it was among them. The position is applied whole — its later
    /// members were linearized by the same decide, so applying them is
    /// plain catch-up — keeping `cursor` a whole-position index.
    /// Checkpoint entries contribute no members: the replica already
    /// equals their image when it reaches them.
    ///
    /// Always inlined: left a call, `wfbench`'s `uni_counter`
    /// `read_p99_ns` read ≈ 48 % higher on a 2-vCPU host (446 → 663 ns
    /// median, ten alternating pairs), and inlining lets the read path
    /// drop the `own` branch.
    #[inline(always)]
    fn replay_step(&mut self, own: Option<usize>) -> Option<S::Resp> {
        self.replay_seg = self.shared.seg_for(self.replay_seg, self.cursor);
        // ordering: Acquire [pairs: universal.decide,
        // universal.cp_install] — pairs with the winning decide CAS and
        // with the checkpoint-image install (both SeqCst ⊇ Release), so
        // the LogEntry behind a non-null slot is fully initialized
        // before we dereference it.
        let raw = self.shared.slot(self.replay_seg, self.cursor).load(Ordering::Acquire);
        assert!(
            !raw.is_null(),
            "replay reads only decided positions: its own op's or below the hint"
        );
        // SAFETY: a non-null slot owns its decided entry, and the
        // segment cannot be reclaimed: its end() exceeds this handle's
        // published frontier (≤ cursor), which the reclaim bound never
        // passes. The borrow ends inside this call.
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
            let r = self.state.apply(Pid(m.tid), &m.op);
            if m.tid == self.tid && Some(m.seq) == own {
                resp = Some(r);
            }
            self.applied[m.tid] += 1;
        }
        resp
    }

    /// Replay until this handle's own operation `seq` is applied and
    /// return its response.
    pub(super) fn replay_own(&mut self, seq: usize) -> S::Resp {
        // progress: bounded — applies one decided position per
        // iteration; stops at this operation's own entry, which the
        // caller's threading loop guaranteed is decided.
        loop {
            if let Some(r) = self.replay_step(Some(seq)) {
                // `cursor` was already advanced past the position whose
                // decide carried our op.
                self.counters.last_decided_position = Some(self.cursor - 1);
                self.counters.invokes += 1;
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
    /// assert. `read` never proposes a checkpoint (that duty stays on
    /// mutators) and never clones the state: `f` borrows the replica in
    /// place, and `S::clone` copies out the whole object.
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
    /// time, and its slot may already belong to a new owner: it
    /// refuses, as the decided-log walks do.
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
            self.replay_step(None);
        }
        self.publish_frontier();
        Ok(f(&self.state))
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
    ///
    /// # Panics
    ///
    /// Panics with the [`UniversalError::Retired`] display if the
    /// handle is retired, as [`Self::read`] does.
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
    ///
    /// # Panics
    ///
    /// As [`Self::decided_log`].
    #[must_use]
    pub fn decided_batches(&self) -> Vec<Vec<(usize, usize)>> {
        self.walk_decided(|out, le| {
            if !matches!(le, LogEntry::Checkpoint(_)) {
                out.push(le.members().iter().map(|m| (m.tid, m.seq)).collect());
            }
        })
    }

    /// Feed the retained log's decided entries, oldest first, to `push`
    /// through the `checkpoint` layer's hazard-pinned walk on this
    /// handle's slot — a retired handle's slot may already be another
    /// owner's, so a retired handle panics.
    fn walk_decided<T>(&self, mut push: impl FnMut(&mut Vec<T>, &LogEntry<S>)) -> Vec<T> {
        assert!(!self.retired, "{}", UniversalError::Retired { tid: self.tid });
        // SAFETY: `slot` points into the registry chain owned by
        // `shared`, alive for the life of this handle.
        let slot = unsafe { &*self.slot };
        let mut out = Vec::new();
        self.shared.walk_retained(slot, |at| match at {
            Walked::Pinned(_) => {
                out.clear();
                Visit::Next
            }
            Walked::Decided { entry, .. } => {
                push(&mut out, entry);
                Visit::Next
            }
            Walked::End => Visit::Stop(std::mem::take(&mut out)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universal::fixtures::{checkpointed, fixed, register_n};
    use crate::universal::{UniversalConfig, WfUniversal};
    use waitfree_objects::counter::{Counter, CounterOp};
    use waitfree_sched::thread;

    #[test]
    fn read_converges_across_handles() {
        let mut handles = register_n(Counter::new(0), 2);
        let mut h1 = handles.pop().unwrap();
        let mut h0 = handles.pop().unwrap();
        h0.invoke(CounterOp::Add(3));
        h0.invoke(CounterOp::Add(4));
        assert_eq!(h1.read(Counter::clone), h0.read(Counter::clone), "replicas converge");
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
        let before = h1.stats();
        let log_before = h0.decided_log();
        for _ in 0..100 {
            assert_eq!(h1.read(Counter::value), 5);
        }
        // Zero log appends, zero shared-log RMWs: every invoke/decide
        // diagnostic is exactly where it was, and the decided log is
        // byte-for-byte the same.
        let after = h1.stats();
        assert_eq!(after.invokes, before.invokes, "read must not count as an invoke");
        assert_eq!(after.decides, before.decides, "read must not attempt a decide");
        assert_eq!(after.last_decided_position, before.last_decided_position);
        assert_eq!(h0.decided_log(), log_before, "read must not grow the log");
        // The next mutation lands at the same position it would have
        // without the reads.
        h0.invoke(CounterOp::Add(1));
        assert_eq!(h0.stats().last_decided_position, Some(log_before.len()));
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
    #[should_panic(expected = "handle on registry slot 0 is retired")]
    fn decided_log_on_a_retired_handle_panics_with_the_retired_display() {
        let mut h = WfUniversal::with_config(Counter::new(7), UniversalConfig::default()).register();
        h.invoke(CounterOp::Add(1));
        h.retire();
        let _ = h.decided_log();
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
        assert!(obj.stats().reclaimed_segments > 0, "truncation actually ran");
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
                        let stats = h.stats();
                        assert_eq!((stats.invokes, stats.decides), (0, 0));
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
