//! The crash/stall stress harness: spawn `n` worker threads, let an
//! adversary (installed via [`failpoints`]) crash or
//! stall a subset mid-operation, and collect a classified outcome per
//! thread.
//!
//! The contract under test is the paper's wait-freedom (§3): *survivors
//! always finish in a bounded number of their own steps*, no matter which
//! subset of threads halts, and the completed operations still form a
//! linearizable history. Callers assert those properties on the returned
//! outcomes; the harness only guarantees that an injected
//! [`CrashSignal`] is told apart from a genuine test failure and that
//! stalled threads are released before joining (so a stress test can
//! never deadlock on a parked victim).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

// Harness bookkeeping (the finished counter) is instrumentation-plane:
// `diag` atomics never become schedule points, so polling for a quorum
// does not perturb a scheduled run.
use waitfree_sched::atomic::diag::{AtomicUsize, Ordering};
use waitfree_sched::thread::JoinHandle;

use crate::failpoints::{self, CrashSignal};
use waitfree_sched::rng::DetRng;

/// How one worker thread ended.
#[derive(Clone, Debug)]
pub enum Outcome<T> {
    /// The thread ran its whole closure.
    Completed(T),
    /// The thread was halted by an injected [`FaultAction::Crash`]
    /// (telling which site fired).
    ///
    /// [`FaultAction::Crash`]: crate::failpoints::FaultAction::Crash
    Crashed {
        /// The site that halted the thread.
        site: String,
    },
    /// The thread panicked for a real reason — a failed assertion inside
    /// the workload. Always a test failure.
    Panicked {
        /// The panic message, if it was a string.
        message: String,
    },
}

impl<T> Outcome<T> {
    /// The completed value, if any.
    pub fn completed(self) -> Option<T> {
        match self {
            Outcome::Completed(v) => Some(v),
            _ => None,
        }
    }

    /// Whether this thread was halted by the adversary.
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        matches!(self, Outcome::Crashed { .. })
    }
}

/// Suppress the default panic-hook backtrace for injected crashes (they
/// are expected, one per victim); real panics keep the normal hook.
/// Idempotent.
pub fn silence_crash_panics() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CrashSignal>().is_none() {
                previous(info);
            }
        }));
    });
}

/// A group of spawned worker threads.
#[derive(Debug)]
pub struct StressGroup<T> {
    handles: Vec<JoinHandle<Outcome<T>>>,
    finished: Arc<AtomicUsize>,
}

/// Spawn `n` workers running `work(tid)`, each tagged with its harness
/// tid (for per-thread failpoint filters) and wrapped in `catch_unwind`.
pub fn spawn_workers<T, F>(n: usize, work: F) -> StressGroup<T>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    silence_crash_panics();
    let work = Arc::new(work);
    let finished = Arc::new(AtomicUsize::new(0));
    let handles = (0..n)
        .map(|tid| {
            let work = Arc::clone(&work);
            let finished = Arc::clone(&finished);
            waitfree_sched::thread::spawn(move || {
                failpoints::set_tid(tid);
                let result = catch_unwind(AssertUnwindSafe(|| work(tid)));
                finished.fetch_add(1, Ordering::SeqCst);
                match result {
                    Ok(v) => Outcome::Completed(v),
                    Err(payload) => match payload.downcast_ref::<CrashSignal>() {
                        Some(signal) => Outcome::Crashed { site: signal.site.clone() },
                        None => Outcome::Panicked {
                            message: payload
                                .downcast_ref::<&str>()
                                .map(ToString::to_string)
                                .or_else(|| payload.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "non-string panic".to_string()),
                        },
                    },
                }
            })
        })
        .collect();
    StressGroup { finished, handles }
}

impl<T> StressGroup<T> {
    /// Block until at least `k` workers have finished (completed or
    /// crashed — stalled threads never count), or `timeout` elapses.
    /// Returns whether the quorum was reached. This is how a test asserts
    /// "survivors complete *while* the victims are still stalled/dead".
    #[must_use]
    pub fn await_finished(&self, k: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.finished.load(Ordering::SeqCst) < k {
            if Instant::now() >= deadline {
                return false;
            }
            waitfree_sched::thread::yield_now();
        }
        true
    }

    /// Number of workers that have finished so far.
    #[must_use]
    pub fn finished_count(&self) -> usize {
        self.finished.load(Ordering::SeqCst)
    }

    /// Release any stalled victims, join everyone, and return the
    /// per-thread outcomes (indexed by tid).
    #[must_use]
    pub fn finish(self) -> Vec<Outcome<T>> {
        failpoints::release_stalls();
        self.handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(outcome) => outcome,
                // catch_unwind already fenced the workload; a join error
                // here would be a harness bug.
                Err(_) => Outcome::Panicked { message: "worker escaped catch_unwind".into() },
            })
            .collect()
    }
}

/// One planned victim: thread `tid` suffers `kind` at `site`, on that
/// thread's `after`-th arrival (1-based).
#[derive(Clone, Debug)]
pub struct Victim {
    /// The targeted harness thread.
    pub tid: usize,
    /// The failpoint site where the fault lands.
    pub site: String,
    /// Crash (halt forever) or stall (park until released).
    pub kind: crate::failpoints::FaultAction,
    /// Fire on the victim's `after`-th passage through the site.
    pub after: u64,
}

/// Deterministically pick an adversarial subset: `victims` distinct
/// threads out of `n`, each assigned a site from `sites` and a fault kind
/// (alternating crash/stall), at a small random depth into its operation
/// stream. Reproducible from `seed`.
///
/// # Panics
///
/// Panics if `victims >= n` (someone must survive) or `sites` is empty.
#[must_use]
pub fn plan_adversary(seed: u64, n: usize, sites: &[&str], victims: usize) -> Vec<Victim> {
    assert!(victims < n, "at least one survivor is required");
    assert!(!sites.is_empty(), "no sites to target");
    let mut rng = DetRng::new(seed);
    let mut tids: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut tids);
    tids.truncate(victims);
    tids.iter()
        .enumerate()
        .map(|(i, &tid)| Victim {
            tid,
            site: sites[rng.below(sites.len())].to_string(),
            kind: if i % 2 == 0 {
                crate::failpoints::FaultAction::Crash
            } else {
                crate::failpoints::FaultAction::Stall
            },
            after: 1 + rng.below(8) as u64,
        })
        .collect()
}

/// Arm every planned victim in the failpoint registry (one-shot configs).
/// A no-op without the `failpoints` feature.
pub fn install_adversary(plan: &[Victim]) {
    for v in plan {
        failpoints::configure(
            &v.site,
            crate::failpoints::FailpointConfig {
                action: v.kind.clone(),
                fire: crate::failpoints::Fire::Nth(v.after),
                tid: Some(v.tid),
                budget: Some(1),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completed_outcomes_carry_values() {
        let group = spawn_workers(4, |tid| tid * 10);
        assert!(group.await_finished(4, Duration::from_secs(10)));
        let values: Vec<usize> =
            group.finish().into_iter().map(|o| o.completed().unwrap()).collect();
        assert_eq!(values, vec![0, 10, 20, 30]);
    }

    #[test]
    fn real_panics_are_not_mistaken_for_crashes() {
        let group = spawn_workers(2, |tid| {
            assert!(tid != 1, "thread one fails for real");
            tid
        });
        let outcomes = group.finish();
        assert!(matches!(outcomes[0], Outcome::Completed(0)));
        match &outcomes[1] {
            Outcome::Panicked { message } => assert!(message.contains("fails for real")),
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn adversary_plan_is_deterministic_and_leaves_survivors() {
        let sites = ["a", "b", "c"];
        let p1 = plan_adversary(5, 8, &sites, 5);
        let p2 = plan_adversary(5, 8, &sites, 5);
        assert_eq!(p1.len(), 5);
        for (a, b) in p1.iter().zip(&p2) {
            assert_eq!((a.tid, &a.site, a.after), (b.tid, &b.site, b.after));
        }
        let mut tids: Vec<usize> = p1.iter().map(|v| v.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 5, "victims are distinct threads");
    }

    #[cfg(feature = "failpoints")]
    #[test]
    fn injected_crash_is_classified() {
        let _guard = failpoints::exclusive();
        failpoints::clear();
        failpoints::configure(
            "harness::t",
            crate::failpoints::FailpointConfig::once_for(
                crate::failpoints::FaultAction::Crash,
                1,
                1,
            ),
        );
        let group = spawn_workers(2, |_tid| {
            failpoints::hit("harness::t");
            7usize
        });
        let outcomes = group.finish();
        assert!(matches!(outcomes[0], Outcome::Completed(7)));
        match &outcomes[1] {
            Outcome::Crashed { site } => assert_eq!(site, "harness::t"),
            other => panic!("expected Crashed, got {other:?}"),
        }
        failpoints::clear();
    }
}
