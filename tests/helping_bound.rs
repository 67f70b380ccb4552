//! The O(n) helping bound of §4's universal construction, measured on
//! real threads: no operation's threading loop runs more than ~2n
//! consensus decides, because every log position periodically prefers
//! each thread's announced operation.
//!
//! The bound argument: when an operation is announced the log frontier
//! sits at some position F; within the next n positions one position's
//! preferred thread is the announcer, and whoever decides that position
//! proposes the announced entry. The announcer's own loop starts at most
//! n positions behind F (the shared hint lags each running thread by less
//! than n positions — it is republished every n-th iteration and once
//! after the loop), so it iterates at most ~2n times. We assert
//! `max_threading_steps <= 2n + 8`, slack for the startup positions.
//!
//! Every universal-object configuration is measured (see
//! `common::Leg`): neither the hoisted hint publication nor checkpoint
//! positions may loosen the bound. Batch combining must also *tighten*
//! the amortized picture: one winning decide threads every pending
//! announced op, so under full contention total decides per completed
//! op drop from ~1 toward 1/n — the `combining` module below asserts
//! that drop under an injected yield storm.

mod common;

use waitfree::sched::thread;

use common::{Leg, CHECKPOINT_EVERY};
use waitfree::objects::counter::CounterOp;

fn contention_round(p: Leg) {
    let n = 4;
    let per = 400;
    let handles = p.counters(n);
    let joins: Vec<_> = handles
        .into_iter()
        .map(|mut h| {
            thread::spawn(move || {
                for _ in 0..per {
                    h.invoke(CounterOp::Add(1));
                }
                (h.tid(), h.stats().max_threading_steps)
            })
        })
        .collect();
    for j in joins {
        let (tid, max_steps) = j.join().unwrap();
        assert!(
            max_steps <= 2 * n + 8,
            "[{}] thread {tid}: {max_steps} threading steps exceeds the O(n) bound (n = {n})",
            p.name
        );
    }
}

#[test]
fn helping_bounds_threading_steps_under_contention() {
    contention_round(Leg::batched());
}

/// The helping bound survives checkpointed truncation, with explicit
/// slack for the checkpoint positions themselves: a threading loop that
/// spans k positions may additionally cross every checkpoint decided in
/// that window (at most one per cadence, plus one race), and checkpoint
/// entries carry no one's op — they are pure extra iterations. The
/// bound stays O(n): the cadence contributes a constant factor
/// (1 + 1/every), not a new dependence on history length.
#[test]
fn helping_bound_survives_checkpointing_with_cadence_slack() {
    let n = 4;
    let per = 400;
    let base = 2 * n + 8;
    let bound = base + base / CHECKPOINT_EVERY + 2;
    let handles = Leg::checkpointed().counters(n);
    let joins: Vec<_> = handles
        .into_iter()
        .map(|mut h| {
            thread::spawn(move || {
                for _ in 0..per {
                    h.invoke(CounterOp::Add(1));
                }
                (h.tid(), h.stats().max_threading_steps)
            })
        })
        .collect();
    for j in joins {
        let (tid, max_steps) = j.join().unwrap();
        assert!(
            max_steps <= bound,
            "[checkpointed] thread {tid}: {max_steps} threading steps exceeds \
             the cadence-adjusted O(n) bound {bound} (n = {n})"
        );
    }
}

/// The bound restated for dynamic membership: the `n` in `2n + 8` is the
/// registry high-water — peak *active* handles — not total arrivals.
/// After 64 generations of sequential churn the registry still holds one
/// slot, so a 4-way contention round that follows must obey the bound
/// with `hi = 4`, as if the 64 departed clients never existed.
#[test]
fn helping_bound_is_over_active_handles_not_arrivals() {
    use waitfree::objects::counter::Counter;
    use waitfree::sync::universal::{UniversalConfig, WfUniversal};

    let obj = WfUniversal::with_config(Counter::new(0), UniversalConfig::default());
    for _ in 0..64 {
        let mut h = obj.register();
        h.invoke(CounterOp::Add(1));
        h.retire();
    }
    assert_eq!(obj.stats().registry_slots, 1, "sequential churn reuses one slot");

    let n = 4;
    let per = 200;
    let joins: Vec<_> = (0..n)
        .map(|_| obj.register())
        .map(|mut h| {
            thread::spawn(move || {
                for _ in 0..per {
                    h.invoke(CounterOp::Add(1));
                }
                (h.tid(), h.stats().max_threading_steps)
            })
        })
        .collect();
    let hi = obj.stats().registry_slots;
    assert_eq!(hi, n, "four concurrent registrants need four slots");
    for j in joins {
        let (tid, max_steps) = j.join().unwrap();
        assert!(
            max_steps <= 2 * hi + 8,
            "slot {tid}: {max_steps} threading steps exceeds the restated \
             O(active) bound (hi = {hi}, arrivals = {})",
            obj.stats().total_arrivals
        );
    }
}

/// The same bound with an adversarially stalled thread: helping means a
/// parked peer costs the survivors *nothing* in their own step count —
/// that is exactly what separates wait-free from lock-free.
#[cfg(feature = "failpoints")]
mod stall {
    use super::*;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;
    use waitfree::faults::failpoints::{self, FailpointConfig, FaultAction, Fire};
    use waitfree::faults::harness::spawn_workers;
    use waitfree::objects::counter::Counter;
    use waitfree::sync::universal::WfHandle;

    fn stall_round(p: Leg) {
        failpoints::clear();

        const N: usize = 4;
        const PER: usize = 100;
        failpoints::configure(
            "universal::announced",
            FailpointConfig {
                action: FaultAction::Stall,
                fire: Fire::Nth(5),
                tid: Some(1),
                budget: Some(1),
            },
        );

        let handles: Arc<Vec<Mutex<Option<WfHandle<Counter>>>>> =
            Arc::new(p.counters(N).into_iter().map(|h| Mutex::new(Some(h))).collect());
        let group = {
            let handles = Arc::clone(&handles);
            spawn_workers(N, move |tid| {
                let mut h = handles[tid].lock().unwrap().take().unwrap();
                for _ in 0..PER {
                    h.invoke(CounterOp::Add(1));
                }
                h.stats().max_threading_steps
            })
        };

        // Survivors finish with the victim still parked mid-operation.
        assert!(group.await_finished(N - 1, Duration::from_secs(60)), "[{}]", p.name);
        for (tid, outcome) in group.finish().into_iter().enumerate() {
            let max_steps = outcome.completed().expect("all threads complete after release");
            assert!(
                max_steps <= 2 * N + 8,
                "[{}] thread {tid}: {max_steps} threading steps exceeds the O(n) bound (n = {N})",
                p.name
            );
        }
        failpoints::clear();
    }

    #[test]
    fn helping_bound_survives_an_injected_stall() {
        let _guard = failpoints::exclusive();
        stall_round(Leg::batched());
    }
}

/// The combining layer's amortized claim, measured: under full
/// contention (every thread parked mid-invoke by a yield storm right
/// after announcing, so pending backlogs always exist), batch decides
/// drop the total consensus-decide count per completed op from ~1
/// toward 1/n, where one decide per op would consume at least one
/// position per op. The worst case stays within the same 2n + 8 bound
/// as ever — the combining scan starts at each position's preferred
/// thread, so per-position helping is a superset of the paper's one-op
/// candidate rule.
#[cfg(feature = "failpoints")]
mod combining {
    use std::sync::{Arc, Mutex};
    use std::time::Duration;
    use waitfree::faults::failpoints::{self, FailpointConfig, FaultAction, Fire};
    use waitfree::faults::harness::spawn_workers;
    use waitfree::objects::counter::{Counter, CounterOp};
    use waitfree::sync::universal::WfHandle;

    use super::Leg;

    const N: usize = 4;
    const PER: usize = 200;

    /// Aggregated hot-path measurements of one storm round.
    struct StormStats {
        decides: usize,
        cas_failures: usize,
        invokes: usize,
        positions: usize,
        ops: usize,
        worst: usize,
    }

    /// Run `N × PER` fetch-and-adds under an every-announce yield storm
    /// (plus, when `race_cas`, a yield between candidate collection and
    /// the decide CAS, so lost decide races happen even on one core).
    fn yield_storm_round(handles: Vec<WfHandle<Counter>>, race_cas: bool) -> StormStats {
        failpoints::clear();
        // Parking each thread right after it announces maximizes the
        // window in which its op is pending: the scheduler runs someone
        // else, whose next decide sees a backlog.
        failpoints::configure(
            "universal::announced",
            FailpointConfig {
                action: FaultAction::Yield,
                fire: Fire::Always,
                tid: None,
                budget: None,
            },
        );
        if race_cas {
            failpoints::configure(
                "universal::cas",
                FailpointConfig {
                    action: FaultAction::Yield,
                    fire: Fire::Always,
                    tid: None,
                    budget: None,
                },
            );
        }

        let handles: Arc<Vec<Mutex<Option<WfHandle<Counter>>>>> =
            Arc::new(handles.into_iter().map(|h| Mutex::new(Some(h))).collect());
        let group = {
            let handles = Arc::clone(&handles);
            spawn_workers(N, move |tid| {
                let mut h = handles[tid].lock().unwrap().take().unwrap();
                for _ in 0..PER {
                    h.invoke(CounterOp::FetchAndAdd(1));
                }
                h
            })
        };
        assert!(group.await_finished(N, Duration::from_secs(120)), "storm round hung");
        let finished: Vec<WfHandle<Counter>> = group
            .finish()
            .into_iter()
            .map(|o| o.completed().expect("no faults injected beyond yields"))
            .collect();
        failpoints::clear();

        StormStats {
            decides: finished.iter().map(|h| h.stats().decides).sum(),
            cas_failures: finished.iter().map(|h| h.stats().cas_failures).sum(),
            invokes: finished.iter().map(|h| h.stats().invokes).sum(),
            positions: finished[0].decided_batches().len(),
            ops: finished[0].decided_log().len(),
            worst: finished.iter().map(|h| h.stats().max_threading_steps).max().unwrap(),
        }
    }

    #[test]
    fn combining_amortizes_decides_under_full_contention() {
        let _guard = failpoints::exclusive();

        let b = yield_storm_round(Leg::batched().counters(N), false);
        assert_eq!(b.invokes, N * PER);

        // The measured numbers EXPERIMENTS.md quotes (run with
        // `--nocapture` to see them).
        let rate = b.decides as f64 / b.invokes as f64;
        println!(
            "storm n={N} per={PER}: decides/op {rate:.3} ({} positions, {} CAS failures)",
            b.positions, b.cas_failures,
        );

        // The worst case must not loosen: the O(n) bound.
        assert!(b.worst <= 2 * N + 8, "worst case {} exceeds 2n+8", b.worst);

        // Combining genuinely happened — strictly fewer positions than
        // ops, where one decide per op needs at least one position per
        // op — and the amortized decide count per completed op is O(1)
        // with a constant under 1. The storm keeps backlogs non-empty,
        // so in practice positions land well below half the op count;
        // the asserted bounds are loose enough to be scheduler-proof.
        assert!(
            b.positions < b.ops,
            "yield storm produced no multi-op batch ({} positions, {} ops)",
            b.positions,
            b.ops
        );
        assert!(
            b.positions < N * PER,
            "combining consumed {} positions for {} ops",
            b.positions,
            N * PER
        );
        assert!(rate < 1.0, "decides/invoke {rate:.3} not amortized below one decide per op");
        // CAS failures are printed, not bounded: an announce-only
        // storm controls how many ops a decide carries, not who loses
        // which race — on two or more cores that is scheduler noise.
    }

    /// The announce-only storm never loses a CAS on a single core (each
    /// decide runs to completion between yields), so this round also
    /// parks every thread *between* collecting its candidate and the
    /// decide CAS: whoever yields there can resume to find the position
    /// already taken. Lost decide races become observable, and
    /// combining — deciding once per batch instead of once per op —
    /// must lose fewer of them than there are ops.
    #[test]
    fn combining_loses_fewer_cas_races_than_ops_under_a_decide_race_storm() {
        let _guard = failpoints::exclusive();

        let b = yield_storm_round(Leg::batched().counters(N), true);
        assert_eq!(b.invokes, N * PER);
        println!(
            "race storm n={N} per={PER}: {} CAS failures over {} decides ({} positions)",
            b.cas_failures, b.decides, b.positions,
        );

        // The O(n) bound holds with adversarial yields at both sites.
        assert!(b.worst <= 2 * N + 8, "worst case {} exceeds 2n+8", b.worst);

        // Combining still collapses positions under this storm too, and
        // a lost race costs less than one per completed op.
        assert!(
            b.positions < N * PER,
            "combining consumed {} positions for {} ops",
            b.positions,
            N * PER
        );
        assert!(
            b.cas_failures < N * PER,
            "{} CAS races lost for {} ops",
            b.cas_failures,
            N * PER
        );
    }
}
