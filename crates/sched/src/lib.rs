//! # waitfree-sched
//!
//! Deterministic schedule exploration for the *real* atomics
//! implementations in `waitfree-sync`, in the tradition of loom and
//! shuttle: the same source that runs on hardware runs under a
//! cooperative scheduler that controls every interleaving, and the
//! histories it produces get machine-checked linearizability verdicts
//! from `waitfree-model`.
//!
//! The paper's theorems quantify over *all* interleavings; OS-thread
//! stress samples a biased sliver of them. This crate closes the gap
//! between the abstract explorer (`waitfree-explorer`, which exhausts
//! protocol automata) and hardware stress: it explores interleavings of
//! the actual implementation code.
//!
//! ## The facade
//!
//! [`atomic`] and [`thread`] mirror the std items the sync crate needs
//! (`AtomicUsize`/`AtomicU64`/`AtomicI64`/`AtomicBool`/`AtomicPtr`/
//! `Ordering`, `spawn`/`yield_now`/`JoinHandle`). Without the `sched`
//! cargo feature they are **pure re-exports of std** — zero new code,
//! zero cost; with it, every atomic op becomes a scheduling point of the
//! runtime in `runtime`. Code outside a scheduled run falls through to
//! the real operation either way.
//!
//! ## Exploration strategies
//!
//! All seed-replayable (`strategy`): uniform `RandomWalk`, PCT
//! priority scheduling (`Pct`) with configurable bug depth, bounded
//! exhaustive `Dfs` for tiny configs, plus `Script` (pin one
//! interleaving as a regression test) and `OpRandom`
//! (operation-granularity schedules for cross-implementation
//! equivalence).
//!
//! ## Verdicts
//!
//! `recorder::HistoryRecorder` logs invoke/response events from a
//! scheduled run; `lincheck::run_and_check` feeds them to
//! `waitfree_model::linearize`; `lincheck::campaign` sweeps seed
//! ranges and prints every failing schedule (strategy, seed, decision
//! trace) for bit-for-bit replay via `lincheck::replay`.
//!
//! ## Fault injection under the scheduler
//!
//! `waitfree-faults` failpoints compose with deterministic schedules:
//! an injected `Crash` unwinds the virtual thread (the run continues and
//! the crashed op is checked as pending), and an injected `Yield` calls
//! the facade's `yield_now`, which is a real schedule point inside a
//! run. `Stall` parks the backing OS thread outside the scheduler's
//! knowledge and would deadlock a one-runnable-at-a-time run — use
//! `Crash`/`Yield`/`SpinDelay` in scheduled scenarios. ([`crash`] and
//! [`rng`] live here, below the faults crate, so the faults machinery
//! can itself be built on the facade without a crate cycle.)
//!
//! ## Scope
//!
//! The scheduler *executes* interleavings of whole atomic operations
//! under sequential consistency — it does not generate weak-memory
//! reorderings (that is loom's territory). The gap is checked rather
//! than ignored: every operation's `Ordering` (and CAS failure
//! ordering/outcome) lands in the run trace in execution order, and the
//! happens-before pass in `hb` replays that trace to verify each
//! observed value is justified by the declared orderings alone, flagging
//! reads that only the SC serialization made safe.

#![warn(missing_docs)]

pub mod atomic;
pub mod crash;
pub mod rng;
pub mod thread;

#[cfg(feature = "sched")]
pub mod hb;
#[cfg(feature = "sched")]
pub mod lincheck;
#[cfg(feature = "sched")]
pub mod recorder;
#[cfg(feature = "sched")]
pub mod runtime;
#[cfg(feature = "sched")]
pub mod strategy;

#[cfg(feature = "sched")]
pub use hb::{
    check as hb_check, check_with_contract as hb_check_with_contract, Contract, HbReport,
    SiteSpec, UndeclaredEdge, Violation,
};
#[cfg(feature = "sched")]
pub use lincheck::{
    campaign, campaign_with, replay, run_and_check, run_and_check_with, CampaignReport,
    CheckedRun, Explore, FailingSchedule,
};
#[cfg(feature = "sched")]
pub use recorder::HistoryRecorder;
#[cfg(feature = "sched")]
pub use runtime::{run, AtomicOp, OpEvent, RunError, RunOptions, RunResult, TraceEvent};
#[cfg(feature = "sched")]
pub use strategy::{Choice, Dfs, DfsStrategy, OpRandom, Pct, PointKind, RandomWalk, Script, Strategy};

#[cfg(all(test, feature = "sched"))]
mod tests {
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    use crate::atomic::AtomicUsize;
    use crate::runtime::{run, RunError, RunOptions};
    use crate::strategy::{Dfs, OpRandom, Pct, RandomWalk, Script};
    use crate::thread;

    /// Two virtual threads race a non-atomic read-modify-write (facade
    /// load then store). Returns the final counter value: 2 if the
    /// increments serialized, 1 if the schedule interleaved them (the
    /// classic lost update).
    fn racy_increments(strategy: impl crate::Strategy + 'static) -> (usize, crate::RunResult) {
        let counter = Arc::new(AtomicUsize::new(0));
        let observed = Arc::new(AtomicUsize::new(0));
        let (c, o) = (Arc::clone(&counter), Arc::clone(&observed));
        let result = run(strategy, RunOptions::default(), move || {
            let js: Vec<_> = (0..2)
                .map(|_| {
                    let c = Arc::clone(&c);
                    thread::spawn(move || {
                        let v = c.load(Ordering::SeqCst);
                        c.store(v + 1, Ordering::SeqCst);
                    })
                })
                .collect();
            for j in js {
                j.join().unwrap();
            }
            let v = c.load(Ordering::SeqCst);
            o.store(v, Ordering::SeqCst);
        });
        (observed.load(Ordering::SeqCst), result)
    }

    #[test]
    fn facade_works_outside_a_run() {
        // No scheduler context: atomics and spawn fall through to std.
        let a = Arc::new(AtomicUsize::new(0));
        let a2 = Arc::clone(&a);
        let j = thread::spawn(move || a2.fetch_add(3, Ordering::SeqCst));
        j.join().unwrap();
        assert_eq!(a.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn same_seed_same_run() {
        let (v1, r1) = racy_increments(RandomWalk::new(42));
        let (v2, r2) = racy_increments(RandomWalk::new(42));
        assert_eq!(v1, v2);
        assert_eq!(r1.decisions, r2.decisions);
        assert_eq!(r1.trace, r2.trace);
        assert!(r1.error.is_none());
    }

    #[test]
    fn random_walk_finds_the_lost_update() {
        let outcomes: Vec<usize> = (0..64).map(|s| racy_increments(RandomWalk::new(s)).0).collect();
        assert!(outcomes.contains(&1), "some schedule interleaves the RMW");
        assert!(outcomes.contains(&2), "some schedule serializes the RMW");
    }

    #[test]
    fn pct_is_deterministic_and_finds_the_lost_update() {
        let (a, ra) = racy_increments(Pct::new(7, 3, 50));
        let (b, rb) = racy_increments(Pct::new(7, 3, 50));
        assert_eq!(a, b);
        assert_eq!(ra.decisions, rb.decisions);
        let outcomes: Vec<usize> =
            (0..64).map(|s| racy_increments(Pct::new(s, 3, 50)).0).collect();
        assert!(outcomes.contains(&1), "PCT hits the depth-2 lost update");
    }

    #[test]
    fn dfs_exhausts_the_toy_space_and_finds_both_outcomes() {
        let mut dfs = Dfs::new(None);
        let mut outcomes = std::collections::BTreeSet::new();
        let mut runs = 0;
        while let Some(s) = dfs.next_schedule() {
            outcomes.insert(racy_increments(s).0);
            runs += 1;
            assert!(runs < 10_000, "toy space must be small");
        }
        assert!(dfs.exhausted());
        assert_eq!(dfs.schedules(), runs);
        assert_eq!(outcomes, [1, 2].into_iter().collect(), "DFS sees every outcome");
    }

    #[test]
    fn dfs_preemption_bound_shrinks_the_space() {
        let count = |bound| {
            let mut dfs = Dfs::new(bound);
            let mut runs = 0;
            while let Some(s) = dfs.next_schedule() {
                let _ = racy_increments(s);
                runs += 1;
            }
            runs
        };
        let bounded = count(Some(1));
        let full = count(None);
        assert!(bounded < full, "bound {bounded} must cut below full {full}");
        assert!(bounded >= 1);
    }

    #[test]
    fn script_pins_one_interleaving() {
        // Empty script: fallback is run-to-completion, lowest vtid
        // first — fully sequential, so no lost update.
        let (v, r) = racy_increments(Script::new(vec![]));
        assert_eq!(v, 2);
        assert!(r.error.is_none());
    }

    #[test]
    fn op_random_never_preempts_at_atomics() {
        // Under operation-granularity schedules each spawned closure
        // (one load + one store, no voluntary yield between them) runs
        // atomically: the lost update is unreachable.
        for seed in 0..32 {
            let (v, _) = racy_increments(OpRandom::new(seed));
            assert_eq!(v, 2, "seed {seed} preempted inside an RMW");
        }
    }

    #[test]
    fn step_bound_aborts_spinning_runs() {
        let a = Arc::new(AtomicUsize::new(0));
        let result = run(RandomWalk::new(1), RunOptions { max_steps: 64 }, move || loop {
            if a.load(Ordering::SeqCst) == usize::MAX {
                break;
            }
        });
        assert_eq!(result.error, Some(RunError::StepBound { max_steps: 64 }));
    }

    #[test]
    fn injected_crash_is_contained_and_reported() {
        use crate::crash::CrashSignal;
        let result = run(RandomWalk::new(3), RunOptions::default(), || {
            let j = thread::spawn(|| {
                std::panic::panic_any(CrashSignal { site: "test::crash".into(), tid: Some(1) });
            });
            let err = j.join().expect_err("crashed thread joins as Err");
            assert!(err.is::<CrashSignal>());
        });
        assert!(result.error.is_none());
        assert_eq!(result.crashed, vec![1], "vtid 1 recorded as crashed");
    }

    #[test]
    fn genuine_panics_propagate() {
        let boom = std::panic::catch_unwind(|| {
            run(RandomWalk::new(5), RunOptions::default(), || {
                let j = thread::spawn(|| panic!("genuine bug"));
                let _ = j.join();
                // Joining does not swallow a genuine panic: the run
                // aborts and `run` re-raises from the driver below.
            });
        });
        assert!(boom.is_err(), "a genuine panic must escape run()");
    }
}
