//! Randomized schedule testing for process counts beyond exhaustive reach.
//!
//! The hierarchy's level-∞ protocols (compare-and-swap, augmented queue,
//! memory-to-memory move/swap) work for *arbitrary* n; exhaustive
//! exploration is feasible only for small n. This module stress-tests
//! larger n with seeded random schedules, including random crashes —
//! complementing, not replacing, [`crate::check`].

use std::collections::BTreeSet;

use waitfree_sched::rng::DetRng;
use waitfree_model::{BranchingSpec, Pid, ProcessAutomaton, Val};

use crate::check::Violation;
use crate::config::Config;

/// Settings for randomized runs.
#[derive(Clone, Debug)]
pub struct RandomSettings {
    /// Number of runs.
    pub runs: usize,
    /// RNG seed (runs use `seed`, `seed+1`, …).
    pub seed: u64,
    /// Per-run probability (×1000) that a scheduled process crashes
    /// instead of stepping. `0` disables crashes.
    pub crash_per_mille: u32,
    /// Abort a run after this many steps (treat as wait-freedom failure).
    pub max_steps_per_run: usize,
}

impl Default for RandomSettings {
    fn default() -> Self {
        RandomSettings {
            runs: 1000,
            seed: 0xC0FFEE,
            crash_per_mille: 50,
            max_steps_per_run: 100_000,
        }
    }
}

/// Result of randomized testing.
#[derive(Clone, Debug)]
pub struct RandomReport {
    /// Runs executed.
    pub runs: usize,
    /// First violation found, if any.
    pub violation: Option<Violation>,
    /// Decision values observed across runs.
    pub decisions_seen: BTreeSet<Val>,
    /// Total steps across all runs.
    pub total_steps: u64,
    /// Longest single run (steps).
    pub max_run_steps: usize,
}

impl RandomReport {
    /// Whether all runs satisfied agreement, validity and the step bound.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.violation.is_none()
    }
}

/// Run `settings.runs` random schedules of the protocol and verify
/// agreement + validity at the end of each, and that each run terminates
/// within the step bound.
pub fn run_random<O, P>(
    protocol: &P,
    object: &O,
    n: usize,
    settings: &RandomSettings,
) -> RandomReport
where
    O: BranchingSpec,
    P: ProcessAutomaton<Op = O::Op, Resp = O::Resp>,
{
    let mut report = RandomReport {
        runs: 0,
        violation: None,
        decisions_seen: BTreeSet::new(),
        total_steps: 0,
        max_run_steps: 0,
    };

    for run in 0..settings.runs {
        let mut rng = DetRng::new(settings.seed.wrapping_add(run as u64));
        let mut cfg = Config::initial(protocol, object.clone(), n);
        let mut steps = 0usize;
        loop {
            let running: Vec<Pid> = cfg.running().collect();
            if running.is_empty() {
                break;
            }
            if steps >= settings.max_steps_per_run {
                report.violation = Some(Violation::WaitFreedom);
                return report;
            }
            let pid = running[rng.below(running.len())];
            // Never crash the last running process: a run where everyone
            // crashes is vacuous.
            if running.len() > 1 && rng.per_mille(settings.crash_per_mille) {
                cfg = cfg.crash(pid).expect("pid is running");
                continue;
            }
            let mut succs = cfg.step(protocol, pid);
            let k = rng.below(succs.len());
            cfg = succs.swap_remove(k);
            steps += 1;
        }
        // Terminal: verify agreement and validity.
        let mut first: Option<Val> = None;
        for v in cfg.decisions() {
            report.decisions_seen.insert(v);
            match first {
                None => first = Some(v),
                Some(f) if f != v => {
                    report.violation = Some(Violation::Agreement { values: (f, v) });
                    return report;
                }
                Some(_) => {}
            }
            if v < 0 || v as usize >= n || !cfg.has_moved(Pid(v as usize)) {
                report.violation = Some(Violation::Validity { value: v });
                return report;
            }
        }
        report.runs += 1;
        report.total_steps += steps as u64;
        report.max_run_steps = report.max_run_steps.max(steps);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use waitfree_model::Action;
    use waitfree_objects::rmw::{RmwFn, RmwOp, RmwRegister};

    /// Theorem 7's protocol: compare-and-swap consensus for any n.
    /// Register starts at -1; each process CASes its own id in.
    struct CasN;

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    enum St {
        Start,
        Done(Val),
    }

    impl ProcessAutomaton for CasN {
        type Op = RmwOp;
        type Resp = Val;
        type State = St;
        fn start(&self, _pid: Pid) -> St {
            St::Start
        }
        fn action(&self, pid: Pid, st: &St) -> Action<RmwOp> {
            match st {
                St::Start => Action::Invoke(RmwOp(RmwFn::CompareAndSwap(-1, pid.as_val()))),
                St::Done(v) => Action::Decide(*v),
            }
        }
        fn observe(&self, pid: Pid, _st: &St, resp: &Val) -> St {
            if *resp == -1 {
                St::Done(pid.as_val())
            } else {
                St::Done(*resp)
            }
        }
    }

    #[test]
    fn cas_consensus_randomized_eight_processes() {
        let settings = RandomSettings {
            runs: 200,
            ..RandomSettings::default()
        };
        let report = run_random(&CasN, &RmwRegister::new(-1), 8, &settings);
        assert!(report.is_ok(), "{:?}", report.violation);
        assert_eq!(report.runs, 200);
        assert!(report.decisions_seen.len() > 1, "several winners across seeds");
    }

    /// Broken: everyone decides themselves.
    struct Selfish;
    impl ProcessAutomaton for Selfish {
        type Op = RmwOp;
        type Resp = Val;
        type State = St;
        fn start(&self, _pid: Pid) -> St {
            St::Start
        }
        fn action(&self, pid: Pid, st: &St) -> Action<RmwOp> {
            match st {
                St::Start => Action::Invoke(RmwOp(RmwFn::Identity)),
                St::Done(_) => Action::Decide(pid.as_val()),
            }
        }
        fn observe(&self, _pid: Pid, _st: &St, _resp: &Val) -> St {
            St::Done(0)
        }
    }

    #[test]
    fn randomized_detects_disagreement() {
        let report = run_random(&Selfish, &RmwRegister::new(0), 4, &RandomSettings::default());
        assert!(matches!(report.violation, Some(Violation::Agreement { .. })));
    }

    /// Spins forever.
    struct Spinner;
    impl ProcessAutomaton for Spinner {
        type Op = RmwOp;
        type Resp = Val;
        type State = u8;
        fn start(&self, _pid: Pid) -> u8 {
            0
        }
        fn action(&self, _pid: Pid, _st: &u8) -> Action<RmwOp> {
            Action::Invoke(RmwOp(RmwFn::Identity))
        }
        fn observe(&self, _pid: Pid, st: &u8, _resp: &Val) -> u8 {
            *st
        }
    }

    #[test]
    fn randomized_detects_nontermination() {
        let settings = RandomSettings {
            runs: 1,
            max_steps_per_run: 100,
            ..RandomSettings::default()
        };
        let report = run_random(&Spinner, &RmwRegister::new(0), 2, &settings);
        assert_eq!(report.violation, Some(Violation::WaitFreedom));
    }

    #[test]
    fn reports_are_reproducible_by_seed() {
        let settings = RandomSettings {
            runs: 50,
            ..RandomSettings::default()
        };
        let a = run_random(&CasN, &RmwRegister::new(-1), 5, &settings);
        let b = run_random(&CasN, &RmwRegister::new(-1), 5, &settings);
        assert_eq!(a.total_steps, b.total_steps);
        assert_eq!(a.decisions_seen, b.decisions_seen);
    }
}
