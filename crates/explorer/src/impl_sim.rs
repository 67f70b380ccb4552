//! Driving front-end implementations (`{F₁ … Fₙ; R}`, the paper's §2.4) to
//! produce concurrent histories.
//!
//! An [`ImplAutomaton`] implements a
//! high-level object from a representation object. This module interleaves
//! the front-ends' low-level steps under explicit schedules and records the
//! high-level invocation/response [`History`], which can then be fed to
//! [`waitfree_model::linearize`] — exactly how the paper defines
//! implementation correctness (a concurrent system is correct iff its
//! histories are linearizable).
//!
//! [`ImplAutomaton`]: waitfree_model::ImplAutomaton

use std::collections::HashSet;

use waitfree_sched::rng::DetRng;
use waitfree_model::{BranchingSpec, History, ImplAction, ImplAutomaton, ObjectSpec, Pid};

/// The phase of one front-end within a run.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Phase<S> {
    /// Waiting for workload item `usize`, carrying the front-end's
    /// persistent state (front-ends may keep data between operations —
    /// Figure 4-5's `winner` variable, for instance — threaded through
    /// [`ImplAutomaton::finish`]).
    Idle(usize, S),
    /// Serving workload item `usize` with this front-end state.
    Busy(usize, S),
}

/// Outcome of driving an implementation through a schedule.
#[derive(Clone, Debug)]
pub struct ImplRun<O, HiOp, HiResp> {
    /// The recorded high-level history.
    pub history: History<HiOp, HiResp>,
    /// The representation object's final state.
    pub final_object: O,
    /// Low-level operations executed per process — the "number of steps"
    /// whose boundedness defines (strong) wait-freedom.
    pub lo_steps: Vec<usize>,
    /// Whether every workload operation completed.
    pub complete: bool,
}

/// Drive `automaton` over `rep`, with process `i` executing `workloads[i]`
/// in order, interleaved according to `schedule` (each entry is a pid that
/// takes one micro-step). Entries for finished processes are skipped.
///
/// # Panics
///
/// Panics if a schedule entry names a pid with no workload slot.
pub fn run_schedule<O, A>(
    automaton: &A,
    rep: O,
    workloads: &[Vec<A::HiOp>],
    schedule: &[usize],
) -> ImplRun<O, A::HiOp, A::HiResp>
where
    O: ObjectSpec,
    A: ImplAutomaton<LoOp = O::Op, LoResp = O::Resp>,
{
    let n = workloads.len();
    let mut rep = rep;
    let mut history: History<A::HiOp, A::HiResp> = History::new();
    let mut phases: Vec<Phase<A::State>> =
        Pid::all(n).map(|p| Phase::Idle(0, automaton.idle(p))).collect();
    let mut lo_steps = vec![0usize; n];

    for &p in schedule {
        assert!(p < n, "schedule names pid {p} but there are {n} workloads");
        let pid = Pid(p);
        match &phases[p] {
            Phase::Idle(k, persisted) => {
                let k = *k;
                if k >= workloads[p].len() {
                    continue; // finished: skip
                }
                let op = &workloads[p][k];
                history.invoke(pid, op.clone());
                let st = automaton.begin(pid, persisted, op);
                phases[p] = Phase::Busy(k, st);
            }
            Phase::Busy(k, st) => {
                let k = *k;
                match automaton.action(pid, st) {
                    ImplAction::Invoke(lo) => {
                        let resp = rep.apply(pid, &lo);
                        lo_steps[p] += 1;
                        let st2 = automaton.observe(pid, st, &resp);
                        phases[p] = Phase::Busy(k, st2);
                    }
                    ImplAction::Return(hi) => {
                        history.respond(pid, hi).expect("well-formed by construction");
                        let persisted = automaton.finish(pid, st);
                        phases[p] = Phase::Idle(k + 1, persisted);
                    }
                }
            }
        }
    }

    let complete = phases
        .iter()
        .enumerate()
        .all(|(p, ph)| matches!(ph, Phase::Idle(k, _) if *k >= workloads[p].len()));
    ImplRun {
        history,
        final_object: rep,
        lo_steps,
        complete,
    }
}

/// Like [`run_schedule`], but with a uniformly random schedule (seeded for
/// reproducibility) that runs until every workload completes. The
/// representation may be nondeterministic ([`BranchingSpec`]); outcomes
/// are resolved uniformly at random. `max_steps` biases the contention
/// phase: after it elapses the scheduler keeps going (fairly, still
/// randomly) until everything completes or a generous hard bound trips.
///
/// # Panics
///
/// Panics if the run does not complete within the hard step bound — a
/// wait-freedom failure of the implementation under test.
pub fn run_random<O, A>(
    automaton: &A,
    rep: O,
    workloads: &[Vec<A::HiOp>],
    seed: u64,
    max_steps: usize,
) -> ImplRun<O, A::HiOp, A::HiResp>
where
    O: BranchingSpec,
    A: ImplAutomaton<LoOp = O::Op, LoResp = O::Resp>,
{
    let n = workloads.len();
    let mut rng = DetRng::new(seed);
    let mut rep = rep;
    let mut history: History<A::HiOp, A::HiResp> = History::new();
    let mut phases: Vec<Phase<A::State>> =
        Pid::all(n).map(|p| Phase::Idle(0, automaton.idle(p))).collect();
    let mut lo_steps = vec![0usize; n];

    let total_hi: usize = workloads.iter().map(Vec::len).sum();
    let hard_bound = max_steps + (total_hi * 256).max(4096);
    let unfinished = |phases: &[Phase<A::State>]| -> Vec<usize> {
        (0..n)
            .filter(|&p| !matches!(&phases[p], Phase::Idle(k, _) if *k >= workloads[p].len()))
            .collect()
    };

    for step in 0..hard_bound {
        let candidates = unfinished(&phases);
        if candidates.is_empty() {
            break;
        }
        let p = candidates[rng.below(candidates.len())];
        let pid = Pid(p);
        match &phases[p] {
            Phase::Idle(k, persisted) => {
                let op = &workloads[p][*k];
                history.invoke(pid, op.clone());
                let st = automaton.begin(pid, persisted, op);
                phases[p] = Phase::Busy(*k, st);
            }
            Phase::Busy(k, st) => match automaton.action(pid, st) {
                ImplAction::Invoke(lo) => {
                    let mut outcomes = rep.apply_all(pid, &lo);
                    let pick = rng.below(outcomes.len());
                    let (rep2, resp) = outcomes.swap_remove(pick);
                    rep = rep2;
                    lo_steps[p] += 1;
                    let st2 = automaton.observe(pid, st, &resp);
                    phases[p] = Phase::Busy(*k, st2);
                }
                ImplAction::Return(hi) => {
                    history.respond(pid, hi).expect("well-formed by construction");
                    let persisted = automaton.finish(pid, st);
                    phases[p] = Phase::Idle(*k + 1, persisted);
                }
            },
        }
        let _ = step;
    }

    let complete = unfinished(&phases).is_empty();
    assert!(complete, "implementation did not complete within {hard_bound} steps");
    ImplRun {
        history,
        final_object: rep,
        lo_steps,
        complete,
    }
}

/// Fault model for [`run_random_crashing`]: halt failures only, the
/// paper's model (§1) and the mirror of the exhaustive checker's
/// [`crate::check::CheckSettings::crashes`] branching — a crashed process
/// simply takes no further steps; it is never Byzantine.
#[derive(Clone, Debug)]
pub struct CrashSettings {
    /// RNG seed (schedule, branching outcomes, and crash draws).
    pub seed: u64,
    /// Per-step probability (‰) that the scheduled process crashes
    /// instead of stepping.
    pub crash_per_mille: u32,
    /// Cap on the number of processes allowed to crash in one run.
    pub max_crashes: usize,
    /// Contention-phase step budget, as in [`run_random`].
    pub max_steps: usize,
}

impl Default for CrashSettings {
    fn default() -> Self {
        CrashSettings { seed: 0, crash_per_mille: 25, max_crashes: 1, max_steps: 0 }
    }
}

/// A [`run_random`] result plus which processes were crashed.
#[derive(Clone, Debug)]
pub struct CrashingRun<O, HiOp, HiResp> {
    /// The run. `complete` here means every *surviving* process finished
    /// its workload; crashed processes may leave a pending (invoked,
    /// never responded) high-level operation in the history — linearize
    /// such histories with `PendingPolicy::MayTakeEffect`.
    pub run: ImplRun<O, HiOp, HiResp>,
    /// Pids crashed during the run, in crash order.
    pub crashed: Vec<usize>,
}

/// Like [`run_random`], but each scheduled step may instead permanently
/// halt the chosen process (with probability
/// [`CrashSettings::crash_per_mille`], at most
/// [`CrashSettings::max_crashes`] times). Survivors are driven until
/// their workloads complete: the run doubles as a wait-freedom check
/// under halt failures, since a front-end that waits on a crashed peer
/// never completes.
///
/// # Panics
///
/// Panics if the surviving processes do not complete within the hard
/// step bound — a wait-freedom failure of the implementation under test.
pub fn run_random_crashing<O, A>(
    automaton: &A,
    rep: O,
    workloads: &[Vec<A::HiOp>],
    settings: &CrashSettings,
) -> CrashingRun<O, A::HiOp, A::HiResp>
where
    O: BranchingSpec,
    A: ImplAutomaton<LoOp = O::Op, LoResp = O::Resp>,
{
    let n = workloads.len();
    let mut rng = DetRng::new(settings.seed);
    let mut rep = rep;
    let mut history: History<A::HiOp, A::HiResp> = History::new();
    let mut phases: Vec<Phase<A::State>> =
        Pid::all(n).map(|p| Phase::Idle(0, automaton.idle(p))).collect();
    let mut lo_steps = vec![0usize; n];
    let mut crashed: Vec<usize> = Vec::new();
    let mut halted = vec![false; n];

    let total_hi: usize = workloads.iter().map(Vec::len).sum();
    let hard_bound = settings.max_steps + (total_hi * 256).max(4096);
    let runnable = |phases: &[Phase<A::State>], halted: &[bool]| -> Vec<usize> {
        (0..n)
            .filter(|&p| {
                !halted[p]
                    && !matches!(&phases[p], Phase::Idle(k, _) if *k >= workloads[p].len())
            })
            .collect()
    };

    for _ in 0..hard_bound {
        let candidates = runnable(&phases, &halted);
        if candidates.is_empty() {
            break;
        }
        let p = candidates[rng.below(candidates.len())];
        if crashed.len() < settings.max_crashes && rng.per_mille(settings.crash_per_mille) {
            // Halt failure: p takes no further steps, ever. If it was
            // mid-operation the invocation stays pending in the history.
            halted[p] = true;
            crashed.push(p);
            continue;
        }
        let pid = Pid(p);
        match &phases[p] {
            Phase::Idle(k, persisted) => {
                let op = &workloads[p][*k];
                history.invoke(pid, op.clone());
                let st = automaton.begin(pid, persisted, op);
                phases[p] = Phase::Busy(*k, st);
            }
            Phase::Busy(k, st) => match automaton.action(pid, st) {
                ImplAction::Invoke(lo) => {
                    let mut outcomes = rep.apply_all(pid, &lo);
                    let pick = rng.below(outcomes.len());
                    let (rep2, resp) = outcomes.swap_remove(pick);
                    rep = rep2;
                    lo_steps[p] += 1;
                    let st2 = automaton.observe(pid, st, &resp);
                    phases[p] = Phase::Busy(*k, st2);
                }
                ImplAction::Return(hi) => {
                    history.respond(pid, hi).expect("well-formed by construction");
                    let persisted = automaton.finish(pid, st);
                    phases[p] = Phase::Idle(*k + 1, persisted);
                }
            },
        }
    }

    let complete = runnable(&phases, &halted).is_empty();
    assert!(
        complete,
        "survivors did not complete within {hard_bound} steps (crashed: {crashed:?})"
    );
    CrashingRun {
        run: ImplRun { history, final_object: rep, lo_steps, complete },
        crashed,
    }
}

/// Exhaustively enumerate the distinct complete histories the
/// implementation can produce for the given workloads, up to `max_runs`
/// explored schedules (depth-first). Suitable only for tiny workloads.
pub fn all_histories<O, A>(
    automaton: &A,
    rep: &O,
    workloads: &[Vec<A::HiOp>],
    max_runs: usize,
) -> Vec<History<A::HiOp, A::HiResp>>
where
    O: BranchingSpec,
    A: ImplAutomaton<LoOp = O::Op, LoResp = O::Resp>,
{
    let n = workloads.len();
    let mut seen: HashSet<History<A::HiOp, A::HiResp>> = HashSet::new();
    let mut runs = 0usize;

    // DFS over schedules, represented by the prefix so far.
    #[allow(clippy::type_complexity, clippy::too_many_arguments)]
    fn dfs<O, A>(
        automaton: &A,
        workloads: &[Vec<A::HiOp>],
        rep: O,
        phases: Vec<Phase<A::State>>,
        history: History<A::HiOp, A::HiResp>,
        seen: &mut HashSet<History<A::HiOp, A::HiResp>>,
        runs: &mut usize,
        max_runs: usize,
    ) where
        O: BranchingSpec,
        A: ImplAutomaton<LoOp = O::Op, LoResp = O::Resp>,
    {
        if *runs >= max_runs {
            return;
        }
        let n = workloads.len();
        let mut progressed = false;
        for p in 0..n {
            let pid = Pid(p);
            match &phases[p] {
                Phase::Idle(k, persisted) => {
                    if *k >= workloads[p].len() {
                        continue;
                    }
                    progressed = true;
                    let op = &workloads[p][*k];
                    let mut h2 = history.clone();
                    h2.invoke(pid, op.clone());
                    let st = automaton.begin(pid, persisted, op);
                    let mut ph2 = phases.clone();
                    ph2[p] = Phase::Busy(*k, st);
                    dfs(automaton, workloads, rep.clone(), ph2, h2, seen, runs, max_runs);
                }
                Phase::Busy(k, st) => {
                    progressed = true;
                    match automaton.action(pid, st) {
                        ImplAction::Invoke(lo) => {
                            for (rep2, resp) in rep.apply_all(pid, &lo) {
                                let st2 = automaton.observe(pid, st, &resp);
                                let mut ph2 = phases.clone();
                                ph2[p] = Phase::Busy(*k, st2);
                                dfs(
                                    automaton,
                                    workloads,
                                    rep2,
                                    ph2,
                                    history.clone(),
                                    seen,
                                    runs,
                                    max_runs,
                                );
                            }
                        }
                        ImplAction::Return(hi) => {
                            let mut h2 = history.clone();
                            h2.respond(pid, hi).expect("well-formed by construction");
                            let mut ph2 = phases.clone();
                            ph2[p] = Phase::Idle(*k + 1, automaton.finish(pid, st));
                            dfs(
                                automaton,
                                workloads,
                                rep.clone(),
                                ph2,
                                h2,
                                seen,
                                runs,
                                max_runs,
                            );
                        }
                    }
                }
            }
        }
        if !progressed {
            *runs += 1;
            seen.insert(history);
        }
    }

    dfs(
        automaton,
        workloads,
        rep.clone(),
        Pid::all(n).map(|p| Phase::Idle(0, automaton.idle(p))).collect(),
        History::new(),
        &mut seen,
        &mut runs,
        max_runs,
    );
    seen.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use waitfree_model::{linearize, PendingPolicy};
    use waitfree_objects::register::{BankOp, RegResp, RegisterBank, RegOp, RwRegister};

    /// A trivial "implementation": a high-level register implemented by a
    /// single low-level register, one lo-op per hi-op.
    struct PassThrough;

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    enum FeState {
        Ready(RegOp),
        Responding(RegResp),
        Idle,
    }

    impl ImplAutomaton for PassThrough {
        type HiOp = RegOp;
        type HiResp = RegResp;
        type LoOp = BankOp;
        type LoResp = RegResp;
        type State = FeState;

        fn idle(&self, _pid: Pid) -> FeState {
            FeState::Idle
        }

        fn begin(&self, _pid: Pid, _st: &FeState, op: &RegOp) -> FeState {
            FeState::Ready(op.clone())
        }

        fn action(&self, _pid: Pid, st: &FeState) -> ImplAction<BankOp, RegResp> {
            match st {
                FeState::Ready(RegOp::Read) => ImplAction::Invoke(BankOp::Read(0)),
                FeState::Ready(RegOp::Write(v)) => ImplAction::Invoke(BankOp::Write(0, *v)),
                FeState::Responding(r) => ImplAction::Return(r.clone()),
                FeState::Idle => unreachable!("idle front-end has no action"),
            }
        }

        fn observe(&self, _pid: Pid, _st: &FeState, resp: &RegResp) -> FeState {
            FeState::Responding(resp.clone())
        }
    }

    #[test]
    fn schedule_runs_to_completion_and_linearizes() {
        let workloads = vec![vec![RegOp::Write(3)], vec![RegOp::Read]];
        // Round-robin schedule long enough to finish everything.
        let schedule: Vec<usize> = (0..20).map(|i| i % 2).collect();
        let run = run_schedule(&PassThrough, RegisterBank::new(1, 0), &workloads, &schedule);
        assert!(run.complete);
        assert_eq!(run.lo_steps, vec![1, 1]);
        let report = linearize(&run.history, &RwRegister::new(0), PendingPolicy::MayTakeEffect);
        assert!(report.outcome.is_ok());
    }

    #[test]
    fn incomplete_schedule_reports_incomplete() {
        let workloads = vec![vec![RegOp::Write(3)]];
        let run = run_schedule(&PassThrough, RegisterBank::new(1, 0), &workloads, &[0]);
        assert!(!run.complete);
    }

    #[test]
    fn random_runs_complete() {
        let workloads = vec![
            vec![RegOp::Write(1), RegOp::Read],
            vec![RegOp::Write(2), RegOp::Read],
        ];
        for seed in 0..10 {
            let run = run_random(&PassThrough, RegisterBank::new(1, 0), &workloads, seed, 100);
            assert!(run.complete);
            let report =
                linearize(&run.history, &RwRegister::new(0), PendingPolicy::MayTakeEffect);
            assert!(report.outcome.is_ok(), "seed {seed}: {:?}", run.history);
        }
    }

    #[test]
    fn crashing_runs_leave_linearizable_histories_with_pending_ops() {
        let workloads = vec![
            vec![RegOp::Write(1), RegOp::Read],
            vec![RegOp::Write(2), RegOp::Read],
            vec![RegOp::Read, RegOp::Write(3)],
        ];
        let mut saw_crash = false;
        let mut saw_pending = false;
        for seed in 0..60 {
            let settings =
                CrashSettings { seed, crash_per_mille: 120, max_crashes: 2, max_steps: 100 };
            let out =
                run_random_crashing(&PassThrough, RegisterBank::new(1, 0), &workloads, &settings);
            assert!(out.run.complete, "survivors always complete");
            saw_crash |= !out.crashed.is_empty();
            saw_pending |= out.run.history.ops().iter().any(|op| op.resp.is_none());
            let report =
                linearize(&out.run.history, &RwRegister::new(0), PendingPolicy::MayTakeEffect);
            assert!(report.outcome.is_ok(), "seed {seed}: {:?}", out.run.history);
        }
        assert!(saw_crash, "the crash rate must actually bite across 60 seeds");
        assert!(saw_pending, "some crash must land mid-operation");
    }

    #[test]
    fn crashing_runner_is_deterministic_per_seed() {
        let workloads = vec![vec![RegOp::Write(1), RegOp::Read], vec![RegOp::Read]];
        let settings =
            CrashSettings { seed: 42, crash_per_mille: 200, max_crashes: 1, max_steps: 50 };
        let a = run_random_crashing(&PassThrough, RegisterBank::new(1, 0), &workloads, &settings);
        let b = run_random_crashing(&PassThrough, RegisterBank::new(1, 0), &workloads, &settings);
        assert_eq!(a.crashed, b.crashed);
        assert_eq!(format!("{:?}", a.run.history), format!("{:?}", b.run.history));
    }

    #[test]
    fn zero_crash_rate_behaves_like_run_random() {
        let workloads = vec![vec![RegOp::Write(1), RegOp::Read], vec![RegOp::Read]];
        let settings =
            CrashSettings { seed: 7, crash_per_mille: 0, max_crashes: 3, max_steps: 50 };
        let out =
            run_random_crashing(&PassThrough, RegisterBank::new(1, 0), &workloads, &settings);
        assert!(out.crashed.is_empty());
        assert!(out.run.complete);
        assert!(out.run.history.ops().iter().all(|op| op.resp.is_some()));
    }

    #[test]
    fn exhaustive_histories_all_linearizable() {
        let workloads = vec![vec![RegOp::Write(1)], vec![RegOp::Read]];
        let histories = all_histories(&PassThrough, &RegisterBank::new(1, 0), &workloads, 10_000);
        assert!(!histories.is_empty());
        for h in &histories {
            let report = linearize(h, &RwRegister::new(0), PendingPolicy::MayTakeEffect);
            assert!(report.outcome.is_ok(), "{h:?}");
        }
    }

    #[test]
    fn exhaustive_histories_distinguish_orders() {
        // Write(1) || Read can yield Read(0) or Read(1) depending on the
        // interleaving — both histories must appear.
        let workloads = vec![vec![RegOp::Write(1)], vec![RegOp::Read]];
        let histories = all_histories(&PassThrough, &RegisterBank::new(1, 0), &workloads, 10_000);
        let mut read_values = std::collections::BTreeSet::new();
        for h in &histories {
            for op in h.ops() {
                if op.op == RegOp::Read {
                    if let Some(RegResp::Read(v)) = op.resp {
                        read_values.insert(v);
                    }
                }
            }
        }
        assert_eq!(read_values, std::collections::BTreeSet::from([0, 1]));
    }
}

/// Outcome of [`verify_implementation`].
#[derive(Clone, Debug)]
pub struct ImplVerification {
    /// Distinct complete histories explored exhaustively.
    pub exhaustive_histories: usize,
    /// Randomized runs executed on top of the exhaustive pass.
    pub random_runs: usize,
    /// The first non-linearizable history found, if any.
    pub counterexample: Option<String>,
}

impl ImplVerification {
    /// Whether every explored history linearized.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.counterexample.is_none()
    }
}

/// One-call implementation check: drive `automaton` over `rep` with the
/// given workloads, exhaustively (bounded by `max_runs`) and then with
/// `random_runs` seeded random schedules, and verify every produced
/// history is linearizable against the sequential `spec` — the paper's
/// §2.4 correctness condition for implementations, packaged.
pub fn verify_implementation<O, A, S>(
    automaton: &A,
    rep: &O,
    spec: &S,
    workloads: &[Vec<A::HiOp>],
    max_runs: usize,
    random_runs: u64,
) -> ImplVerification
where
    O: BranchingSpec,
    A: ImplAutomaton<LoOp = O::Op, LoResp = O::Resp>,
    S: waitfree_model::ObjectSpec<Op = A::HiOp, Resp = A::HiResp>,
{
    use waitfree_model::{linearize, PendingPolicy};

    let mut verification = ImplVerification {
        exhaustive_histories: 0,
        random_runs: 0,
        counterexample: None,
    };
    for h in all_histories(automaton, rep, workloads, max_runs) {
        verification.exhaustive_histories += 1;
        if !linearize(&h, spec, PendingPolicy::MayTakeEffect).outcome.is_ok() {
            verification.counterexample = Some(format!("{h:?}"));
            return verification;
        }
    }
    let total_hi: usize = workloads.iter().map(Vec::len).sum();
    for seed in 0..random_runs {
        verification.random_runs += 1;
        let run = run_random(automaton, rep.clone(), workloads, seed, total_hi * 64);
        if !linearize(&run.history, spec, PendingPolicy::MayTakeEffect).outcome.is_ok() {
            verification.counterexample = Some(format!("seed {seed}: {:?}", run.history));
            return verification;
        }
    }
    verification
}

#[cfg(test)]
mod verify_tests {
    use super::*;
    use waitfree_objects::register::{BankOp, RegisterBank, RegOp, RegResp, RwRegister};

    /// Pass-through front-end (each hi-op is one lo-op).
    struct PassThrough;

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    enum St {
        Idle,
        Ready(RegOp),
        Responding(RegResp),
    }

    impl ImplAutomaton for PassThrough {
        type HiOp = RegOp;
        type HiResp = RegResp;
        type LoOp = BankOp;
        type LoResp = RegResp;
        type State = St;
        fn idle(&self, _pid: Pid) -> St {
            St::Idle
        }
        fn begin(&self, _pid: Pid, _st: &St, op: &RegOp) -> St {
            St::Ready(op.clone())
        }
        fn action(&self, _pid: Pid, st: &St) -> ImplAction<BankOp, RegResp> {
            match st {
                St::Idle => unreachable!(),
                St::Ready(RegOp::Read) => ImplAction::Invoke(BankOp::Read(0)),
                St::Ready(RegOp::Write(v)) => ImplAction::Invoke(BankOp::Write(0, *v)),
                St::Responding(r) => ImplAction::Return(r.clone()),
            }
        }
        fn observe(&self, _pid: Pid, _st: &St, resp: &RegResp) -> St {
            St::Responding(resp.clone())
        }
    }

    #[test]
    fn correct_implementation_verifies() {
        let v = verify_implementation(
            &PassThrough,
            &RegisterBank::new(1, 0),
            &RwRegister::new(0),
            &[vec![RegOp::Write(1), RegOp::Read], vec![RegOp::Read]],
            100_000,
            20,
        );
        assert!(v.is_ok(), "{v:?}");
        assert!(v.exhaustive_histories > 1);
        assert_eq!(v.random_runs, 20);
    }

    /// A broken front-end: reads return a constant instead of the
    /// register contents.
    struct LyingReader;

    impl ImplAutomaton for LyingReader {
        type HiOp = RegOp;
        type HiResp = RegResp;
        type LoOp = BankOp;
        type LoResp = RegResp;
        type State = St;
        fn idle(&self, _pid: Pid) -> St {
            St::Idle
        }
        fn begin(&self, _pid: Pid, _st: &St, op: &RegOp) -> St {
            St::Ready(op.clone())
        }
        fn action(&self, _pid: Pid, st: &St) -> ImplAction<BankOp, RegResp> {
            match st {
                St::Idle => unreachable!(),
                St::Ready(RegOp::Read) => ImplAction::Invoke(BankOp::Read(0)),
                St::Ready(RegOp::Write(v)) => ImplAction::Invoke(BankOp::Write(0, *v)),
                St::Responding(r) => ImplAction::Return(r.clone()),
            }
        }
        fn observe(&self, _pid: Pid, st: &St, resp: &RegResp) -> St {
            match (st, resp) {
                (St::Ready(RegOp::Read), _) => St::Responding(RegResp::Read(99)),
                (_, r) => St::Responding(r.clone()),
            }
        }
    }

    #[test]
    fn broken_implementation_is_caught_with_counterexample() {
        let v = verify_implementation(
            &LyingReader,
            &RegisterBank::new(1, 0),
            &RwRegister::new(0),
            &[vec![RegOp::Write(1)], vec![RegOp::Read]],
            100_000,
            0,
        );
        assert!(!v.is_ok());
        assert!(v.counterexample.unwrap().contains("99"));
    }
}
