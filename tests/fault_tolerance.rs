//! Fault-injection stress tests (feature `failpoints`): wait-freedom
//! under crashes and stalls on real hardware atomics.
//!
//! The paper's wait-freedom guarantee (§3) is *per process*: every
//! process completes each operation in a bounded number of its own
//! steps, "regardless of the execution speeds of the other processes" —
//! including speed zero (crash) and arbitrarily slow (stall). These
//! tests make that operational: an adversary halts or parks a chosen
//! subset of threads at linearization-relevant failpoint sites inside
//! the universal construction, and we assert that
//!
//! 1. the survivors complete all their operations *while the victims
//!    are still dead or parked*,
//! 2. no completed operation spent more than O(n) consensus steps
//!    threading itself (the helping bound), and
//! 3. the observed history — crashed threads' announced-but-unfinished
//!    operations included as pending invocations — is accepted by
//!    [`waitfree::model::linearize`] under `PendingPolicy::MayTakeEffect`.
//!
//! Every scenario runs against **all** universal-object configurations
//! (see `common::Leg`): batch-combining decides with and without
//! checkpointed log truncation live (segments reclaimed mid-storm) —
//! truncation may not cost any fault-tolerance property. A
//! crash-during-combine scenario kills a thread at `universal::collect`,
//! mid-scan with other threads' pending entries already gathered: every
//! collected op must stay helpable (`MayTakeEffect` per batch member).
//! The checkpointed path gets two deterministic storms of its own: a
//! proposer killed at `universal::checkpoint` (nothing published,
//! cadence retryable) and a reclaimer killed at `universal::reclaim`
//! (lock released by its RAII guard, nothing freed or leaked), each
//! with exact-count postconditions.
//!
//! The sharded store (`waitfree-store`) gets its own storms at the
//! `store::route`/`store::multi`/`store::snapshot` sites: single-key
//! bump storms with exact final counts (no op lost, none duplicated),
//! a multi-key op crashed between every pair of per-shard steps and
//! driven to completion by a conflicting helper (with snapshots taken
//! mid-stall proving all-or-nothing visibility), a snapshot
//! initiator killed mid-marker-sweep (later snapshots unaffected), and
//! a reader killed at `universal::read` mid-log-free-read (zero log
//! growth, zero announced orphans — the read path leaves no trace).
//!
//! Run with `cargo test --features failpoints --test fault_tolerance`.
#![cfg(feature = "failpoints")]

mod common;

use waitfree::sched::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use waitfree::sched::thread;
use std::time::Duration;

use common::Leg;
use waitfree::faults::failpoints::{self, FailpointConfig, FaultAction, Fire};
use waitfree::faults::harness::{install_adversary, plan_adversary, spawn_workers, Outcome};
use waitfree::model::{linearize, History, PendingPolicy, Pid};
use waitfree::objects::counter::{Counter, CounterOp, CounterResp};
use waitfree::sync::universal::{UniversalConfig, UniversalError, WfHandle, WfUniversal, SEGMENT_SIZE};

/// Sites the adversary may target: announce published, mid-collect
/// (a victim planned there crashes while building a batch), pre-CAS,
/// post-CAS, and mid-replay (the victim's op is already decided).
const SITES: &[&str] = &[
    "universal::announced",
    "universal::collect",
    "universal::cas",
    "universal::decided",
    "universal::replay",
];

/// One timeline event: an operation's invocation or its response.
#[derive(Clone, Debug)]
enum Ev {
    Inv(usize),
    Resp(usize, CounterResp),
}

/// Replay stamped events into a [`History`]. Invocation stamps are taken
/// before entering `invoke` and response stamps after it returns, so each
/// recorded interval contains the real one; this can only widen overlap,
/// never invent precedence, keeping the linearizability verdict sound.
fn build_history(mut events: Vec<(u64, Ev)>) -> History<CounterOp, CounterResp> {
    events.sort_by_key(|(stamp, _)| *stamp);
    let mut h = History::new();
    for (_, ev) in events {
        match ev {
            Ev::Inv(tid) => h.invoke(Pid(tid), CounterOp::FetchAndAdd(1)),
            Ev::Resp(tid, resp) => {
                h.respond(Pid(tid), resp).expect("response follows its invocation");
            }
        }
    }
    h
}

/// The full adversarial scenario, per seed and per configuration:
/// 6 threads hammer one wait-free counter; 2 of them are crashed/stalled
/// mid-operation.
fn adversarial_round(p: Leg, seed: u64) {
    const N: usize = 6;
    const VICTIMS: usize = 2;
    const OPS: usize = 8;

    let plan = plan_adversary(seed, N, SITES, VICTIMS);
    let stalled: Vec<usize> = plan
        .iter()
        .filter(|v| matches!(v.kind, FaultAction::Stall))
        .map(|v| v.tid)
        .collect();
    let crashed: Vec<usize> = plan
        .iter()
        .filter(|v| matches!(v.kind, FaultAction::Crash))
        .map(|v| v.tid)
        .collect();
    failpoints::set_seed(seed);
    install_adversary(&plan);

    let handles: Arc<Vec<Mutex<Option<WfHandle<Counter>>>>> =
        Arc::new(p.counters(N).into_iter().map(|h| Mutex::new(Some(h))).collect());
    let clock = Arc::new(AtomicU64::new(0));
    let events: Arc<Mutex<Vec<(u64, Ev)>>> = Arc::new(Mutex::new(Vec::new()));

    let group = {
        let handles = Arc::clone(&handles);
        let clock = Arc::clone(&clock);
        let events = Arc::clone(&events);
        spawn_workers(N, move |tid| {
            let mut h = handles[tid].lock().unwrap().take().expect("one handle per tid");
            let mut responses = Vec::with_capacity(OPS);
            for _ in 0..OPS {
                let stamp = clock.fetch_add(1, Ordering::SeqCst);
                events.lock().unwrap().push((stamp, Ev::Inv(tid)));
                let resp = h.invoke(CounterOp::FetchAndAdd(1));
                let stamp = clock.fetch_add(1, Ordering::SeqCst);
                events.lock().unwrap().push((stamp, Ev::Resp(tid, resp.clone())));
                responses.push(resp);
            }
            (responses, h.stats().max_threading_steps)
        })
    };

    // (1) Survivors and crash victims terminate while stall victims are
    // still parked: wait-freedom does not wait for the slow.
    assert!(
        group.await_finished(N - stalled.len(), Duration::from_secs(60)),
        "[{}] seed {seed}: survivors did not complete while victims were down",
        p.name
    );

    let outcomes = group.finish();
    for (tid, outcome) in outcomes.iter().enumerate() {
        match outcome {
            Outcome::Completed((responses, max_steps)) => {
                assert!(
                    !crashed.contains(&tid),
                    "[{}] seed {seed}: crash victim {tid} completed all ops",
                    p.name
                );
                assert_eq!(responses.len(), OPS);
                // (2) The helping bound: O(n) own consensus steps per op.
                assert!(
                    *max_steps <= 2 * N + 8,
                    "[{}] seed {seed}: thread {tid} took {max_steps} threading steps (n = {N})",
                    p.name
                );
            }
            Outcome::Crashed { site } => {
                assert!(
                    crashed.contains(&tid),
                    "[{}] seed {seed}: unplanned crash of thread {tid} at {site}",
                    p.name
                );
                assert!(
                    SITES.contains(&site.as_str()),
                    "[{}] seed {seed}: foreign site {site}",
                    p.name
                );
            }
            Outcome::Panicked { message } => {
                panic!("[{}] seed {seed}: thread {tid} genuinely panicked: {message}", p.name)
            }
        }
    }

    // (3) The recorded history — pending invocations of the crashed
    // included — linearizes against the sequential counter.
    let events = Arc::try_unwrap(events).expect("all workers joined").into_inner().unwrap();
    let history = build_history(events);
    let pending = history.ops().iter().filter(|op| op.resp.is_none()).count();
    assert!(
        pending <= VICTIMS,
        "[{}] seed {seed}: at most one pending op per victim",
        p.name
    );
    let report = linearize(&history, &Counter::new(0), PendingPolicy::MayTakeEffect);
    assert!(
        report.outcome.is_ok(),
        "[{}] seed {seed}: non-linearizable history with {pending} pending ops: {history:?}",
        p.name
    );
}

#[test]
fn survivors_complete_and_history_linearizes_under_adversary() {
    let _guard = failpoints::exclusive();
    for seed in [1, 2, 3, 4, 5] {
        failpoints::clear();
        adversarial_round(Leg::batched(), seed);
        failpoints::clear();
        adversarial_round(Leg::checkpointed(), seed);
    }
    failpoints::clear();
}

fn stalled_thread_scenario(p: Leg) {
    failpoints::clear();

    const N: usize = 3;
    const OPS: usize = 6;
    failpoints::configure(
        "universal::cas",
        FailpointConfig {
            action: FaultAction::Stall,
            fire: Fire::Nth(2),
            tid: Some(0),
            budget: Some(1),
        },
    );

    let handles: Arc<Vec<Mutex<Option<WfHandle<Counter>>>>> =
        Arc::new(p.counters(N).into_iter().map(|h| Mutex::new(Some(h))).collect());
    let group = {
        let handles = Arc::clone(&handles);
        spawn_workers(N, move |tid| {
            let mut h = handles[tid].lock().unwrap().take().unwrap();
            let mut responses = Vec::new();
            for _ in 0..OPS {
                responses.push(h.invoke(CounterOp::FetchAndAdd(1)));
            }
            responses
        })
    };

    // The two unstalled threads finish; thread 0 ends up parked at the
    // site (it may still be on its way there when the survivors finish,
    // hence the bounded wait rather than an instant assert).
    assert!(group.await_finished(N - 1, Duration::from_secs(60)), "[{}]", p.name);
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while failpoints::stalled_count() != 1 {
        assert!(std::time::Instant::now() < deadline, "[{}] victim never parked", p.name);
        thread::yield_now();
    }
    assert_eq!(
        group.finished_count(),
        N - 1,
        "[{}] the parked victim never counts as finished",
        p.name
    );

    // finish() releases the stall; the victim completes its remaining ops.
    let outcomes = group.finish();
    let mut all: Vec<i64> = outcomes
        .into_iter()
        .flat_map(|o| o.completed().expect("stall is transparent after release"))
        .map(|r| match r {
            CounterResp::Value(v) => v,
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    all.sort_unstable();
    let expect: Vec<i64> = (0..(N * OPS) as i64).collect();
    assert_eq!(all, expect, "[{}] every fetch-and-add ticket taken exactly once", p.name);
    failpoints::clear();
}

#[test]
fn stalled_thread_is_observable_parked_then_resumes() {
    let _guard = failpoints::exclusive();
    stalled_thread_scenario(Leg::batched());
    stalled_thread_scenario(Leg::checkpointed());
}

fn log_exhaustion_scenario(p: Leg) {
    failpoints::clear();

    const N: usize = 3;
    // Log cap far smaller than the op budget: exhaustion is guaranteed.
    const CAPACITY: usize = 24;
    failpoints::configure(
        "universal::decided",
        FailpointConfig {
            action: FaultAction::Crash,
            fire: Fire::Nth(3),
            tid: Some(2),
            budget: Some(1),
        },
    );

    let handles: Arc<Vec<Mutex<Option<WfHandle<Counter>>>>> = Arc::new(
        p.capped(CAPACITY).counters(N).into_iter().map(|h| Mutex::new(Some(h))).collect(),
    );
    let group = {
        let handles = Arc::clone(&handles);
        spawn_workers(N, move |tid| {
            let mut h = handles[tid].lock().unwrap().take().unwrap();
            let mut ok = 0usize;
            loop {
                match h.try_invoke(CounterOp::FetchAndAdd(1)) {
                    Ok(_) => ok += 1,
                    Err(e @ UniversalError::LogFull { .. }) => return (ok, e),
                    Err(other) => panic!("unexpected error: {other}"),
                }
            }
        })
    };

    // Everyone terminates: the exhausted log surfaces as an error value,
    // not a deadlock or abort, even though thread 2 died mid-operation.
    assert!(group.await_finished(N - 1, Duration::from_secs(60)), "[{}]", p.name);
    let outcomes = group.finish();
    let mut total_ok = 0usize;
    for (tid, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Outcome::Completed((ok, UniversalError::LogFull { capacity, .. })) => {
                assert_eq!(capacity, CAPACITY, "[{}]", p.name);
                total_ok += ok;
            }
            Outcome::Crashed { site } => {
                assert_eq!(tid, 2, "[{}] only the planned victim crashes", p.name);
                assert_eq!(site, "universal::decided", "[{}]", p.name);
            }
            other => panic!("[{}] thread {tid}: unexpected outcome {other:?}", p.name),
        }
    }
    // Each log position carries at most one op per thread, so completed
    // ops are bounded by positions.
    assert!(
        total_ok <= CAPACITY * N,
        "[{}] {total_ok} ops cannot fit in {CAPACITY} positions of ≤ {N} ops",
        p.name
    );
    assert!(total_ok > 0, "[{}] some ops completed before exhaustion", p.name);
    failpoints::clear();
}

#[test]
fn log_exhaustion_is_a_typed_error_even_with_a_crashed_peer() {
    let _guard = failpoints::exclusive();
    // No checkpointed leg: a capped log never truncates, and
    // `with_config` rejects the pair.
    log_exhaustion_scenario(Leg::batched());
}

/// A handle reused after a *caught* crash mid-invoke (its op announced
/// but not yet threaded) must recover the orphan on a capped object
/// exactly as on an unbounded one, as long as the log actually has
/// room: the cap bounds log positions, it is not a one-way recovery
/// fuse. Regression — this used to return `LogFull { position: cap,
/// capacity: cap }` with the log half-empty.
#[test]
fn caught_crash_on_capped_log_with_room_recovers_the_orphan() {
    let _guard = failpoints::exclusive();
    failpoints::clear();

    let cfg = UniversalConfig { cap: Some(4), ..UniversalConfig::default() };
    let mut h = WfUniversal::with_config(Counter::new(0), cfg).register();
    assert_eq!(h.invoke(CounterOp::FetchAndAdd(1)), CounterResp::Value(0));

    // Die right after the announce-slot publication: the op (seq 1) is
    // announced, helpable, and unthreaded.
    failpoints::configure(
        "universal::announced",
        FailpointConfig {
            action: FaultAction::Crash,
            fire: Fire::Nth(1),
            tid: None,
            budget: Some(1),
        },
    );
    let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        h.invoke(CounterOp::FetchAndAdd(1))
    }));
    assert!(crashed.is_err(), "the planned crash fires inside the invoke");
    failpoints::clear();

    // The next invoke finishes the orphan first, then its own op: both
    // increments take effect, in order, inside the cap of 4.
    assert_eq!(h.invoke(CounterOp::FetchAndAdd(1)), CounterResp::Value(2));
    assert_eq!(h.invoke(CounterOp::Get), CounterResp::Value(3));
    // And the cap still binds: position 4 does not exist.
    match h.try_invoke(CounterOp::FetchAndAdd(1)) {
        Err(UniversalError::LogFull { position, capacity }) => {
            assert_eq!(position, 4);
            assert_eq!(capacity, 4);
        }
        other => panic!("expected LogFull at the real cap, got {other:?}"),
    }
}

/// Crash during the collect scan: a thread killed at
/// `universal::collect` dies *while building a batch* — after announcing
/// its own op, holding copies of whatever pending entries its scan
/// already gathered. The scan writes nothing shared, so the crash must leave
/// every one of those ops announced and helpable: the survivors (kept
/// mid-invoke often enough by a yield storm that real multi-op batches
/// form) complete everything, and the history with the victim's
/// announced-but-unfinished op linearizes under `MayTakeEffect`.
#[test]
fn crash_during_combine_leaves_collected_ops_helpable() {
    let _guard = failpoints::exclusive();
    failpoints::clear();

    const N: usize = 4;
    const OPS: usize = 6;
    const VICTIM: usize = 1;

    // Every thread yields between collecting and deciding: threads sit
    // mid-decide with announced ops, so pending backlogs build up and
    // collect scans genuinely gather other threads' entries.
    failpoints::configure(
        "universal::cas",
        FailpointConfig { action: FaultAction::Yield, fire: Fire::Always, tid: None, budget: None },
    );
    // The victim dies at its first collect — mid-combine, with its
    // current op already announced. (First, not a later one: every
    // threading-loop iteration starts with a collect, so the victim
    // cannot complete an op without passing the site, making the crash
    // deterministic.)
    failpoints::configure(
        "universal::collect",
        FailpointConfig {
            action: FaultAction::Crash,
            fire: Fire::Nth(1),
            tid: Some(VICTIM),
            budget: Some(1),
        },
    );

    let handles: Arc<Vec<Mutex<Option<WfHandle<Counter>>>>> = Arc::new(
        Leg::batched().counters(N).into_iter().map(|h| Mutex::new(Some(h))).collect(),
    );
    let clock = Arc::new(AtomicU64::new(0));
    let events: Arc<Mutex<Vec<(u64, Ev)>>> = Arc::new(Mutex::new(Vec::new()));

    let group = {
        let handles = Arc::clone(&handles);
        let clock = Arc::clone(&clock);
        let events = Arc::clone(&events);
        spawn_workers(N, move |tid| {
            let mut h = handles[tid].lock().unwrap().take().expect("one handle per tid");
            for _ in 0..OPS {
                let stamp = clock.fetch_add(1, Ordering::SeqCst);
                events.lock().unwrap().push((stamp, Ev::Inv(tid)));
                let resp = h.invoke(CounterOp::FetchAndAdd(1));
                let stamp = clock.fetch_add(1, Ordering::SeqCst);
                events.lock().unwrap().push((stamp, Ev::Resp(tid, resp)));
            }
            h
        })
    };

    assert!(
        group.await_finished(N - 1, Duration::from_secs(60)),
        "survivors did not complete past the mid-combine crash"
    );
    let outcomes = group.finish();
    let mut survivor_handle = None;
    for (tid, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Outcome::Completed(h) => {
                assert_ne!(tid, VICTIM, "the victim cannot have completed all ops");
                assert!(
                    h.stats().max_threading_steps <= 2 * N + 8,
                    "thread {tid} exceeded the helping bound mid-crash"
                );
                survivor_handle = Some(h);
            }
            Outcome::Crashed { site } => {
                assert_eq!(tid, VICTIM, "only the planned victim crashes");
                assert_eq!(site, "universal::collect", "crash site is the combine scan");
            }
            Outcome::Panicked { message } => panic!("thread {tid} panicked: {message}"),
        }
    }

    // Per-batch-member accounting. The victim completed some ops
    // (responses recorded), then crashed with exactly one more
    // announced: that one is MayTakeEffect — helpers may have threaded
    // it into a batch or not — so the final counter value is the
    // completed count plus at most one.
    let events = Arc::try_unwrap(events).expect("all workers joined").into_inner().unwrap();
    let victim_completed = events
        .iter()
        .filter(|(_, ev)| matches!(ev, Ev::Resp(tid, _) if *tid == VICTIM))
        .count();
    let completed_total = (N - 1) * OPS + victim_completed;
    let mut survivor = survivor_handle.expect("N-1 survivors");
    let final_value = match survivor.invoke(CounterOp::Get) {
        CounterResp::Value(v) => v as usize,
        other => panic!("unexpected {other:?}"),
    };
    assert!(
        final_value == completed_total || final_value == completed_total + 1,
        "final counter {final_value} vs {completed_total} completed ops \
         (+ at most one pending victim op)"
    );

    // And the stamped history — the victim's announced-but-unfinished
    // op as a pending invocation — linearizes with MayTakeEffect.
    let history = build_history(events);
    let pending = history.ops().iter().filter(|op| op.resp.is_none()).count();
    assert_eq!(pending, 1, "exactly the victim's mid-combine op is pending");
    let report = linearize(&history, &Counter::new(0), PendingPolicy::MayTakeEffect);
    assert!(
        report.outcome.is_ok(),
        "non-linearizable history after mid-combine crash: {history:?}"
    );
    failpoints::clear();
}

/// Crash-during-checkpoint: the checkpoint proposer dies at
/// `universal::checkpoint` — after its op was threaded and applied, but
/// before the checkpoint image was built or proposed. A checkpoint
/// publishes nothing before its CAS, so the exact-count postconditions
/// are: the victim's op took effect (it was decided before the cadence
/// check runs), *zero* checkpoints exist after the crash, and the
/// cadence simply re-fires on the next surviving handle's op — which
/// then checkpoints successfully.
#[test]
fn crash_during_checkpoint_leaves_cadence_retryable() {
    let _guard = failpoints::exclusive();
    failpoints::clear();

    const EVERY: usize = 4;
    let obj = WfUniversal::with_config(
        Counter::new(0),
        UniversalConfig { checkpoint_every: Some(EVERY), ..UniversalConfig::default() },
    );

    // Three ops from the main handle: cursor stays below the cadence,
    // so the site is never hit here and the victim's hit is the first.
    let mut h0 = obj.register();
    for _ in 0..EVERY - 1 {
        h0.invoke(CounterOp::Add(1));
    }
    assert_eq!(obj.stats().checkpoints, 0, "cadence not yet due");

    failpoints::configure(
        "universal::checkpoint",
        FailpointConfig {
            action: FaultAction::Crash,
            fire: Fire::Nth(1),
            tid: None,
            budget: Some(1),
        },
    );

    // The victim's single op is position EVERY-1; after applying it the
    // victim's cursor reaches EVERY, the cadence fires, and the crash
    // lands deterministically at its first checkpoint attempt.
    let victim_obj = obj.clone();
    let group = spawn_workers(1, move |_tid| {
        let mut h = victim_obj.register();
        h.invoke(CounterOp::FetchAndAdd(1));
        unreachable!("the victim dies inside its first invoke");
    });
    let outcomes = group.finish();
    match &outcomes[0] {
        Outcome::Crashed { site } => assert_eq!(site, "universal::checkpoint"),
        other => panic!("expected a planned crash, got {other:?}"),
    }

    // Exact counts: the op itself committed (4 increments total), no
    // checkpoint was decided, nothing was reclaimed.
    let stats = obj.stats();
    assert_eq!(stats.checkpoints, 0, "a pre-CAS crash publishes no checkpoint");
    assert_eq!(stats.reclaimed_segments, 0);
    assert_eq!(stats.active_handles, 2, "the crashed client stays counted");

    // The cadence is still armed: the next op on a surviving handle
    // replays past position EVERY and checkpoints (the budgeted
    // failpoint is spent, so it passes through).
    match h0.invoke(CounterOp::Get) {
        CounterResp::Value(v) => assert_eq!(v, EVERY as i64, "victim's op took effect"),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(obj.stats().checkpoints, 1, "a survivor retried the checkpoint");
    failpoints::clear();
}

/// Crash-during-reclaim: the reclaimer dies at `universal::reclaim` —
/// after winning the reclaim try-lock, before detaching anything. The
/// crash must unwind through the lock's RAII guard (leaving reclamation
/// available, not wedged) and must not free or leak any segment: the
/// exact counts are one decided checkpoint, zero reclaimed segments —
/// and a later handle's reclaim pass truncates normally.
#[test]
fn crash_during_reclaim_releases_the_lock_and_frees_nothing() {
    let _guard = failpoints::exclusive();
    failpoints::clear();

    const EVERY: usize = 16;
    let obj = WfUniversal::with_config(
        Counter::new(0),
        UniversalConfig { checkpoint_every: Some(EVERY), ..UniversalConfig::default() },
    );

    failpoints::configure(
        "universal::reclaim",
        FailpointConfig {
            action: FaultAction::Crash,
            fire: Fire::Nth(1),
            tid: None,
            budget: Some(1),
        },
    );

    // The victim runs alone until its own checkpoint wins; the winning
    // path calls the reclaimer, whose first firing crashes. (Its handle
    // drop also reaches the site, but the budget is already spent.)
    let victim_obj = obj.clone();
    let group = spawn_workers(1, move |_tid| {
        let mut h = victim_obj.register();
        for _ in 0..2 * EVERY {
            h.invoke(CounterOp::Add(1));
        }
        unreachable!("the victim dies at its first winning checkpoint");
    });
    let outcomes = group.finish();
    match &outcomes[0] {
        Outcome::Crashed { site } => assert_eq!(site, "universal::reclaim"),
        other => panic!("expected a planned crash, got {other:?}"),
    }

    // Exact counts: the checkpoint that triggered reclamation was
    // already decided; the reclaimer freed nothing before dying.
    let stats = obj.stats();
    assert_eq!(stats.checkpoints, 1, "the triggering checkpoint committed");
    assert_eq!(stats.reclaimed_segments, 0, "a pre-detach crash frees nothing");

    // The victim's ops all committed: exactly EVERY increments (the
    // checkpoint-winning op included) — the rest of its loop never ran.
    let mut probe = obj.register();
    match probe.invoke(CounterOp::Get) {
        CounterResp::Value(v) => assert_eq!(v, EVERY as i64),
        other => panic!("unexpected {other:?}"),
    }

    // The lock was released by the guard: drive the probe far enough
    // that segments fall behind every frontier, and reclamation runs.
    for _ in 0..4 * SEGMENT_SIZE {
        probe.invoke(CounterOp::Add(1));
    }
    let reclaimed = obj.stats().reclaimed_segments;
    assert!(reclaimed >= 1, "reclamation still available after the crash: {reclaimed} reclaimed");
    match probe.invoke(CounterOp::Get) {
        CounterResp::Value(v) => assert_eq!(v, (EVERY + 4 * SEGMENT_SIZE) as i64),
        other => panic!("unexpected {other:?}"),
    }
    failpoints::clear();
}

// ---------------------------------------------------------------------------
// Sharded-store storms (`waitfree-store`): the `store::route`,
// `store::multi` and `store::snapshot` sites, with exact-count
// postconditions — no lost or duplicated single-key ops, crashed
// multi-key ops completed by helpers on every involved shard, and
// snapshots never observing a torn multi-op.
// ---------------------------------------------------------------------------

use waitfree::faults::failpoints::CrashSignal;
use waitfree::store::{Bump, ShardState, ShardedStore, StoreConfig};

fn store4() -> ShardedStore<u64, i64, Bump> {
    ShardedStore::new(&StoreConfig { shards: 4, ..StoreConfig::default() })
}

/// One key per shard, `keys[s]` routed to shard `s`.
fn keys_per_shard(store: &ShardedStore<u64, i64, Bump>) -> Vec<u64> {
    let mut keys = vec![u64::MAX; store.shards()];
    let mut found = 0;
    for k in 0u64.. {
        let s = store.shard_of(&k);
        if keys[s] == u64::MAX {
            keys[s] = k;
            found += 1;
            if found == store.shards() {
                break;
            }
        }
    }
    keys
}

/// N workers each bump a private key OPS times; a seed-chosen victim is
/// crashed at its `kth` hit of `site`. Because the keys are private,
/// every key's final value is an exact function of how far its owner
/// got: `done` completed bumps plus `orphan_effect` for the victim's
/// in-flight op (0 when the crash lands before the invoke at
/// `store::route`, 1 when it lands after the announce at
/// `universal::announced` — helpers then thread the orphan exactly
/// once; watermark dedup makes a duplicate impossible).
fn single_key_storm(seed: u64, site: &str, orphan_effect: i64) {
    const N: usize = 5;
    const OPS: usize = 12;
    let victim = (seed as usize) % N;
    let kth = 1 + (seed as usize * 7) % OPS;
    failpoints::configure(
        site,
        FailpointConfig::once_for(FaultAction::Crash, victim, kth as u64),
    );

    let store = store4();
    let done: Arc<Vec<AtomicU64>> = Arc::new((0..N).map(|_| AtomicU64::new(0)).collect());
    let group = {
        let store = store.clone();
        let done = Arc::clone(&done);
        spawn_workers(N, move |tid| {
            let mut h = store.handle();
            for _ in 0..OPS {
                h.fetch_update(tid as u64, Bump(1));
                done[tid].fetch_add(1, Ordering::SeqCst);
            }
        })
    };
    let outcomes = group.finish();
    for (tid, outcome) in outcomes.iter().enumerate() {
        match outcome {
            Outcome::Completed(()) => {
                assert_ne!(tid, victim, "seed {seed}: the victim completed all ops");
            }
            Outcome::Crashed { site: s } => {
                assert_eq!(tid, victim, "seed {seed}: unplanned crash of {tid} at {s}");
                assert_eq!(s, site);
            }
            Outcome::Panicked { message } => {
                panic!("seed {seed}: thread {tid} genuinely panicked: {message}")
            }
        }
    }
    failpoints::clear();

    // Flush: one no-op bump per key threads any announced orphan on its
    // shard (batch combining collects every pending announced op), so
    // the final values are deterministic exact counts.
    let mut h = store.handle();
    for w in 0..N {
        h.fetch_update(w as u64, Bump(0));
    }
    for w in 0..N {
        let completed = done[w].load(Ordering::SeqCst) as i64;
        let expected = completed + if w == victim { orphan_effect } else { 0 };
        if w != victim {
            assert_eq!(completed, OPS as i64, "seed {seed}: survivor {w} fell short");
        } else {
            assert_eq!(completed, (kth - 1) as i64, "seed {seed}: victim progress");
        }
        assert_eq!(
            h.get(&(w as u64)),
            Some(expected),
            "seed {seed}: key {w} lost or duplicated a bump (completed {completed})"
        );
    }
}

#[test]
fn store_single_key_ops_survive_crash_storms_exactly() {
    let _guard = failpoints::exclusive();
    // Crash before routing: the in-flight op never reached any log.
    for seed in [11, 12, 13, 14] {
        failpoints::clear();
        single_key_storm(seed, "store::route", 0);
    }
    // Crash after announcing: the in-flight op is an orphan that
    // helpers must apply exactly once.
    for seed in [21, 22, 23, 24] {
        failpoints::clear();
        single_key_storm(seed, "universal::announced", 1);
    }
    failpoints::clear();
}

/// A 4-shard multi_put crashed at its `nth` hit of `store::multi`
/// (hits 1..=4 are the ascending prepares, 5..=8 the ascending
/// resolves). Postconditions, exact in all cases:
///
/// * a snapshot taken while the multi is stalled is never torn —
///   all-or-nothing depending on whether any shard holds the commit;
/// * a conflicting single-key `put` helps the multi to completion from
///   the replicated descriptor, then applies itself — every involved
///   shard ends with the multi's write (the helper's own put layered
///   on top of its target key).
///
/// With `reuse` the crash is *caught* and the victim's handle goes on
/// to its next multi-op before anyone helps — a write to a second key
/// of shard 3, which conflicts with nothing and, for `nth <= 4`, lands
/// on a shard the orphan never reached. The handle must first drive
/// its orphan to the end: per-originator tombstones are sound only if
/// `(o, s)` is finished everywhere before `(o, s + 1)` exists (were it
/// not, shard 3 would answer the orphan's later helpers `Stale` and
/// shard 0's lock would never be released). The postconditions are the
/// same exact values, plus at most one tombstone per originator.
fn crashed_multi_round(nth: u64, reuse: bool) {
    let store = store4();
    let keys = keys_per_shard(&store);
    let mut h = store.handle();
    for (s, &k) in keys.iter().enumerate() {
        h.put(k, s as i64);
    }

    failpoints::configure(
        "store::multi",
        FailpointConfig::once_for(FaultAction::Crash, 0, nth),
    );
    let group = {
        let store = store.clone();
        let keys = keys.clone();
        spawn_workers(1, move |_tid| {
            let mut hv = store.handle();
            let writes = keys.iter().map(|&k| (k, Some(100)));
            if reuse {
                let crash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hv.multi_put(writes)));
                assert!(
                    crash.is_err_and(|p| p.downcast_ref::<CrashSignal>().is_some_and(|c| c.site == "store::multi")),
                    "nth {nth}: the victim dies mid-multi"
                );
                return hv;
            }
            hv.multi_put(writes);
            unreachable!("nth {nth}: the victim dies mid-multi");
        })
    };
    let mut victim = match group.finish().pop() {
        Some(Outcome::Crashed { site }) if !reuse => {
            assert_eq!(site, "store::multi");
            None
        }
        Some(Outcome::Completed(hv)) if reuse => Some(hv),
        _ => panic!("nth {nth}: expected a planned crash (caught: {reuse})"),
    };
    failpoints::clear();

    // Hit `nth` fired *before* its step, so prepares are decided on
    // shards `0..nth-1` (capped at all 4) and resolves on shards
    // `0..nth-5`; the multi is commit-visible somewhere iff nth >= 6. nth == 1 is the
    // degenerate case: nothing decided anywhere, and the descriptor
    // died with the victim — the multi never happened.
    let committed_somewhere = nth >= 6;

    // (1) Snapshot atomicity while the multi is stalled: committed on
    // some shard (a resolve decided) => visible on all involved shards
    // via torn-multi repair; committed nowhere => visible on none.
    let snap = h.snapshot();
    let visible: Vec<bool> =
        keys.iter().map(|k| snap.map.get(k) == Some(&100)).collect();
    if committed_somewhere {
        assert!(
            visible.iter().all(|&v| v),
            "nth {nth}: committed multi torn in a snapshot: {visible:?}"
        );
    } else {
        assert!(
            visible.iter().all(|&v| !v),
            "nth {nth}: uncommitted multi leaked into a snapshot: {visible:?}"
        );
    }

    // (1b) Reuse: the victim's next multi-op completes the orphan
    // first, so (2) below finds the multi whole and no lock to help past.
    if let Some(hv) = &mut victim {
        let fresh = (0u64..).find(|k| store.shard_of(k) == 3 && *k != keys[3]).expect("shard 3 owns many keys");
        hv.multi_put([(fresh, Some(555))]);
        assert_eq!(h.get(&fresh), Some(555));
        for (s, &k) in keys.iter().enumerate() {
            assert_eq!(h.get(&k), Some(100), "nth {nth}: the orphan did not reach shard {s}");
        }
    }

    // (2) Helping: a put on a key that is still locked — shard 0's
    // while resolution hasn't begun there (nth <= 5; its prepare was
    // hit 1), shard 3's once early resolves have already freed the low
    // shards (6 <= nth <= 8; its own resolve would have been hit 8) —
    // completes the stalled multi from the replicated descriptor, then
    // applies. multi_put has no expectations, so the helped verdict is
    // commit: the observed prev is exactly the multi's write.
    let c = if committed_somewhere { 3 } else { 0 };
    let prev = h.put(keys[c], 777);
    if nth == 1 {
        assert_eq!(prev, Some(0), "nth 1: no multi state existed to see");
    } else {
        assert_eq!(prev, Some(100), "nth {nth}: helper saw a partial multi");
    }
    let expected_at = |s: usize| {
        if s == c {
            777
        } else if nth == 1 {
            s as i64
        } else {
            100
        }
    };
    for (s, &k) in keys.iter().enumerate() {
        assert_eq!(h.get(&k), Some(expected_at(s)), "nth {nth}: shard {s} torn");
    }

    // (3) All locks were released by the resolution: a fresh multi over
    // the same keys commits without help.
    assert!(h.multi_cas(
        keys.iter().enumerate().map(|(s, &k)| (k, Some(expected_at(s)))),
        keys.iter().map(|&k| (k, Some(-1))),
    ));
    let snap = h.snapshot();
    assert!(keys.iter().all(|k| snap.map.get(k) == Some(&-1)));

    // (4) Reuse only: two originators cost each shard at most two
    // tombstones.
    if victim.is_some() {
        for s in 0..store.shards() {
            let mut probe = store.shard(s).register();
            let stats = probe.read(ShardState::stats);
            assert!(stats.tombstones <= 2, "nth {nth}: shard {s} tombstones");
        }
    }
}

#[test]
fn store_crashed_multi_op_is_helped_and_never_torn() {
    let _guard = failpoints::exclusive();
    for nth in 1..=8 {
        failpoints::clear();
        crashed_multi_round(nth, false);
    }
    failpoints::clear();
}

#[test]
fn store_handle_reused_after_a_caught_crash_finishes_its_orphan_first() {
    let _guard = failpoints::exclusive();
    for nth in 2..=8 {
        failpoints::clear();
        crashed_multi_round(nth, true);
    }
    failpoints::clear();
}

/// A reader crashed at `universal::read` — after the frontier load,
/// before the catch-up replay — must perturb *nothing*: the log-free
/// read path announces no entry, appends no log position, and performs
/// no shared-log RMW, so a reader dying mid-read is invisible to every
/// other handle. Exact postconditions, per crash point (the `nth` read
/// of a 4-key sweep, one key per shard, via single `get`s and via one
/// `multi_get`):
///
/// * every shard's decided log is byte-for-byte what the writes alone
///   produced — zero growth, zero reordering;
/// * no announced orphan is left for helpers to thread: a later no-op
///   bump per shard decides exactly **one** new member there (batch
///   combining would collect a leftover orphan into that decide, so a
///   count of one proves the slot was never published);
/// * all values are intact.
#[test]
fn store_crashed_reader_perturbs_nothing() {
    let _guard = failpoints::exclusive();
    failpoints::clear();

    let store = store4();
    let keys = keys_per_shard(&store);
    let mut h = store.handle();
    for (s, &k) in keys.iter().enumerate() {
        h.put(k, 10 * s as i64);
    }
    // Byte-exact decided prefix per shard before any reader runs.
    let before: Vec<Vec<(usize, usize)>> =
        (0..store.shards()).map(|s| h.shard_handle(s).decided_log()).collect();

    // Crash a reader at each of its four read linearization points, on
    // both read surfaces: `get` per key, and one batched `multi_get`
    // (which performs one frontier read per shard group, ascending).
    for nth in 1..=4u64 {
        for batched in [false, true] {
            failpoints::clear();
            failpoints::configure(
                "universal::read",
                FailpointConfig::once_for(FaultAction::Crash, 0, nth),
            );
            let group = {
                let store = store.clone();
                let keys = keys.clone();
                spawn_workers(1, move |_tid| {
                    let mut hv = store.handle();
                    if batched {
                        let _ = hv.multi_get(&keys);
                    } else {
                        for &k in &keys {
                            let _ = hv.get(&k);
                        }
                    }
                    unreachable!("nth {nth}: the reader dies mid-read");
                })
            };
            let outcomes = group.finish();
            match &outcomes[0] {
                Outcome::Crashed { site } => assert_eq!(site, "universal::read"),
                other => panic!("nth {nth} batched {batched}: expected a crash, got {other:?}"),
            }
            // Zero log growth on every shard, byte for byte.
            for (s, want) in before.iter().enumerate() {
                assert_eq!(
                    &h.shard_handle(s).decided_log(),
                    want,
                    "nth {nth} batched {batched}: a crashed reader grew shard {s}'s log"
                );
            }
        }
    }
    failpoints::clear();

    // No announced orphans anywhere: one no-op bump per shard decides
    // exactly one new member there (an orphan would ride along in the
    // same batch and show up as a second member).
    for &k in &keys {
        h.fetch_update(k, Bump(0));
    }
    for (s, want) in before.iter().enumerate() {
        assert_eq!(
            h.shard_handle(s).decided_log().len(),
            want.len() + 1,
            "shard {s}: a crashed reader left an announced orphan behind"
        );
    }
    // Values intact.
    for (s, &k) in keys.iter().enumerate() {
        assert_eq!(h.get(&k), Some(10 * s as i64), "shard {s}");
    }
}

/// A snapshot initiator crashed at `store::snapshot` mid-marker-sweep
/// (markers decided on a strict prefix of the shards) must cost
/// nothing: the store keeps serving, and every later snapshot is
/// complete and consistent — the abandoned epoch's unclaimed early
/// captures are inert.
#[test]
fn store_crash_mid_snapshot_is_harmless() {
    let _guard = failpoints::exclusive();
    failpoints::clear();

    let store = store4();
    let keys = keys_per_shard(&store);
    let mut h = store.handle();
    for (s, &k) in keys.iter().enumerate() {
        h.put(k, s as i64);
    }

    // Crash before the third marker: epoch 1 is marked on shards 0 and
    // 1, open forever on shards 2 and 3.
    failpoints::configure(
        "store::snapshot",
        FailpointConfig::once_for(FaultAction::Crash, 0, 3),
    );
    let group = {
        let store = store.clone();
        spawn_workers(1, move |_tid| {
            let mut hv = store.handle();
            let _ = hv.snapshot();
            unreachable!("the victim dies mid-snapshot");
        })
    };
    let outcomes = group.finish();
    match &outcomes[0] {
        Outcome::Crashed { site } => assert_eq!(site, "store::snapshot"),
        other => panic!("expected a planned crash, got {other:?}"),
    }
    failpoints::clear();

    // The store serves reads and writes on every shard (writes stamped
    // with the abandoned epoch trigger early captures on shards 2/3 —
    // bounded leftovers, nothing more).
    for &k in &keys {
        h.fetch_update(k, Bump(10));
    }
    // Later snapshots complete and are exact.
    let snap = h.snapshot();
    assert_eq!(snap.epoch, 2);
    for (s, &k) in keys.iter().enumerate() {
        assert_eq!(snap.map.get(&k), Some(&(s as i64 + 10)), "shard {s}");
    }
    let snap2 = h.snapshot();
    assert_eq!(snap2.epoch, 3);
    assert_eq!(snap2.map, snap.map);
}
