//! Integration: the fetch-and-cons/universal implementations (simulated
//! and hardware) agree with each other and with the sequential
//! specification.

use waitfree::core::universal::consensus_cons::{verify_history, ConsensusFetchAndCons};
use waitfree::core::universal::log::{LogFrontEnd, LogItem, LogUniversal};
use waitfree::core::universal::swap_cons::SwapFetchAndCons;
use waitfree::explorer::impl_sim::{run_random, run_schedule};
use waitfree::model::{linearize, ObjectSpec, PendingPolicy, Pid, Val};
use waitfree::objects::list::ConsList;
use waitfree::objects::queue::{FifoQueue, QueueOp};
use waitfree::sync::universal::{UniversalConfig, WfUniversal};

mod common;
use common::register_n;

/// Sequential fetch-and-cons spec over plain values.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
struct FacSpec(Vec<Val>);

impl ObjectSpec for FacSpec {
    type Op = Val;
    type Resp = Vec<Val>;
    fn apply(&mut self, _pid: Pid, x: &Val) -> Vec<Val> {
        let old = self.0.clone();
        self.0.insert(0, *x);
        old
    }
}

#[test]
fn swap_cons_and_consensus_cons_agree_sequentially() {
    // Drive both fetch-and-cons implementations through the same strictly
    // sequential workload; their responses must coincide with the spec.
    let items: Vec<Val> = vec![5, 9, 2, 7];

    // Reference.
    let mut spec = FacSpec::default();
    let expected: Vec<Vec<Val>> = items.iter().map(|x| spec.apply(Pid(0), x)).collect();

    // Swap-based (one process, sequential).
    let (fe, arena) = SwapFetchAndCons::setup(1, items.len());
    let run = run_schedule(&fe, arena, std::slice::from_ref(&items), &vec![0usize; 400]);
    assert!(run.complete);
    let got: Vec<Vec<Val>> = run
        .history
        .ops()
        .iter()
        .map(|o| o.resp.clone().expect("complete"))
        .collect();
    assert_eq!(got, expected, "swap-based fetch-and-cons");

    // Consensus-based (one process, sequential); items carry (owner, seq,
    // payload) tags, so project the payloads.
    let (fe, rep) = ConsensusFetchAndCons::setup(1);
    let run = run_schedule(&fe, rep, std::slice::from_ref(&items), &vec![0usize; 800]);
    assert!(run.complete);
    let got: Vec<Vec<Val>> = run
        .history
        .ops()
        .iter()
        .map(|o| {
            o.resp
                .clone()
                .expect("complete")
                .into_iter()
                .map(|it| it.payload)
                .collect()
        })
        .collect();
    assert_eq!(got, expected, "consensus-based fetch-and-cons");
}

#[test]
fn simulated_and_hardware_universal_queue_agree() {
    // The same mixed workload through (a) the §4.1 log construction in
    // the simulator and (b) the hardware universal object, single
    // threaded — byte-for-byte identical responses.
    let script = [
        QueueOp::Enq(4),
        QueueOp::Enq(5),
        QueueOp::Deq,
        QueueOp::Deq,
        QueueOp::Deq,
        QueueOp::Enq(6),
        QueueOp::Deq,
    ];

    let mut sim = LogUniversal::new(FifoQueue::new(), true);
    let mut hw = WfUniversal::with_config(FifoQueue::new(), UniversalConfig::default()).register();
    let mut spec = FifoQueue::new();
    for op in &script {
        let expected = spec.apply(Pid(0), op);
        assert_eq!(sim.invoke(Pid(0), op.clone()), expected, "{op:?}");
        assert_eq!(hw.invoke(op.clone()), expected, "{op:?}");
    }
}

#[test]
fn log_front_end_and_consensus_cons_both_linearize_concurrently() {
    // Concurrent runs of both universal paths, checked by their
    // respective criteria.
    let fe = LogFrontEnd { initial: FifoQueue::new() };
    let workloads = vec![
        vec![QueueOp::Enq(1), QueueOp::Deq],
        vec![QueueOp::Enq(2), QueueOp::Deq],
        vec![QueueOp::Enq(3), QueueOp::Deq],
    ];
    for seed in 0..50 {
        let run = run_random(&fe, ConsList::<LogItem<QueueOp>>::new(), &workloads, seed, 300);
        let report = linearize(&run.history, &FifoQueue::new(), PendingPolicy::MayTakeEffect);
        assert!(report.outcome.is_ok(), "log front-end, seed {seed}");
    }

    let (fe, rep) = ConsensusFetchAndCons::setup(3);
    let workloads: Vec<Vec<Val>> = (0..3).map(|p| vec![p * 10, p * 10 + 1]).collect();
    for seed in 0..50 {
        let run = run_random(&fe, rep.clone(), &workloads, seed, 500);
        assert!(verify_history(&run.history), "consensus cons, seed {seed}");
    }
}

/// Satellite of the `sched` tier: under operation-level schedules, the
/// universal object's responses must be exactly what the sequential
/// specification computes from its flattened decided log, seed for
/// seed, and two configurations must agree under *identical*
/// schedules. [`OpRandom`](waitfree::sched::OpRandom) never preempts at
/// an atomic point and consumes no randomness there, so its decision
/// sequence depends only on the operation structure
/// (spawn/yield/block/exit), which every configuration shares — the
/// schedules are comparable even though the hot paths execute different
/// numbers of atomic instructions. (`decided_log` flattens batch
/// entries, so the comparison is shape-independent by construction.)
#[cfg(feature = "sched")]
mod sched_equivalence {
    use std::sync::{Arc, Mutex};

    use super::register_n;
    use waitfree::model::{ObjectSpec, Pid};
    use waitfree::objects::counter::{Counter, CounterOp, CounterResp};
    use waitfree::sched::thread as vthread;
    use waitfree::sched::{run, OpRandom, RunOptions};
    use waitfree::sync::universal::{UniversalConfig, WfHandle};

    const THREADS: usize = 2;
    const OPS: usize = 3;

    /// Per-tid responses plus the decided log of one scheduled run.
    type Out = (Vec<(usize, Vec<CounterResp>)>, Vec<(usize, usize)>);

    /// Thread `tid`'s `i`-th operation (its sequence number `i` on a
    /// fresh slot): distinct deltas, so a response pins the exact prefix
    /// it was applied after.
    fn op_of(tid: usize, i: usize) -> CounterOp {
        CounterOp::FetchAndAdd((100 * tid + i + 1) as i64)
    }

    /// One scheduled run on a fresh `cfg` object: every handle's thread
    /// interleaves `OPS` fetch-and-adds (with a yield after each, the
    /// operation-level schedule points). Returns per-tid responses and
    /// the decided log.
    fn drive(cfg: UniversalConfig, seed: u64) -> Out {
        let handles: Vec<WfHandle<Counter>> = register_n(Counter::new(0), THREADS, cfg).1;
        let out: Arc<Mutex<Option<Out>>> = Arc::new(Mutex::new(None));
        let sink = Arc::clone(&out);
        let res = run(OpRandom::new(seed), RunOptions::default(), move || {
            let workers: Vec<_> = handles
                .into_iter()
                .map(|mut h| {
                    vthread::spawn(move || {
                        let tid = h.tid();
                        let resps: Vec<CounterResp> = (0..OPS)
                            .map(|i| {
                                let r = h.invoke(op_of(tid, i));
                                vthread::yield_now();
                                r
                            })
                            .collect();
                        (tid, resps, h)
                    })
                })
                .collect();
            let mut results = Vec::new();
            let mut log = None;
            for w in workers {
                let (tid, resps, h) = w.join().unwrap();
                log = Some(h.decided_log());
                results.push((tid, resps));
            }
            results.sort_by_key(|(tid, _)| *tid);
            *sink.lock().unwrap() = Some((results, log.expect("at least one worker")));
        });
        assert!(res.error.is_none(), "{:?}", res.error);
        let r = out.lock().unwrap().take().unwrap();
        r
    }

    /// The per-tid responses the sequential specification gives when the
    /// flattened decided `log` is replayed through `Counter::apply`.
    fn spec_responses(log: &[(usize, usize)]) -> Vec<(usize, Vec<CounterResp>)> {
        let mut spec = Counter::new(0);
        let mut out: Vec<(usize, Vec<CounterResp>)> =
            (0..THREADS).map(|tid| (tid, Vec::new())).collect();
        for &(tid, seq) in log {
            assert_eq!(seq, out[tid].1.len(), "thread {tid}'s ops decided out of program order");
            out[tid].1.push(spec.apply(Pid(tid), &op_of(tid, seq)));
        }
        out
    }

    #[test]
    fn batched_responses_are_the_spec_replay_of_the_decided_log() {
        for seed in 0..64 {
            let (resps, log) = drive(UniversalConfig::default(), seed);
            assert_eq!(log.len(), THREADS * OPS, "all ops decided at seed {seed}");
            assert_eq!(
                spec_responses(&log),
                resps,
                "responses are not the sequential spec's at seed {seed}"
            );
        }
    }

    /// Checkpointed-vs-unbounded equivalence under identical schedules:
    /// an aggressive cadence (a checkpoint attempt every 2 positions)
    /// interleaves checkpoint decides among the op decides, but the
    /// responses must match the unbounded object's seed for seed, and
    /// the flattened decided log — checkpoints contribute no members —
    /// must carry the same ops in the same order. (At this scale no
    /// segment falls behind the reclaim bound, so the retained prefix
    /// is the whole log and the comparison is exact; truncation of
    /// *state* is exercised, truncation of *memory* is covered by
    /// `tests/log_growth.rs` and the soak test.)
    #[test]
    fn checkpointed_and_unbounded_agree_under_identical_schedules() {
        for seed in 0..64 {
            let unbounded = drive(UniversalConfig::default(), seed);
            let cp = drive(
                UniversalConfig { checkpoint_every: Some(2), ..UniversalConfig::default() },
                seed,
            );
            assert_eq!(cp.0, unbounded.0, "checkpointed responses diverged at seed {seed}");
            assert_eq!(cp.1, unbounded.1, "checkpointed op order diverged at seed {seed}");
        }
    }
}

#[test]
fn dynamic_registration_is_equivalent_to_static_creation() {
    // The same script through one registration that lives for the whole
    // script and through a churn of registrations (a fresh one every two
    // operations, each retiring behind itself, each granted a budget of
    // exactly its two operations): responses must agree op for op, so
    // slot reuse is invisible to the sequential semantics.
    let script = [
        QueueOp::Enq(4),
        QueueOp::Enq(5),
        QueueOp::Deq,
        QueueOp::Deq,
        QueueOp::Deq,
        QueueOp::Enq(6),
        QueueOp::Enq(7),
        QueueOp::Deq,
    ];
    let mut stat = WfUniversal::with_config(FifoQueue::new(), UniversalConfig::default()).register();
    let dynamic = WfUniversal::with_config(
        FifoQueue::new(),
        UniversalConfig { max_ops: 2, ..UniversalConfig::default() },
    );
    for chunk in script.chunks(2) {
        let mut h = dynamic.register();
        for op in chunk {
            assert_eq!(h.invoke(op.clone()), stat.invoke(op.clone()), "{op:?}");
        }
        h.retire();
    }
    let stats = dynamic.stats();
    assert_eq!((stats.registry_slots, stats.total_arrivals), (1, script.len() / 2));
}

#[test]
fn checkpointed_churn_is_equivalent_to_unbounded() {
    // Registrant churn across *real* truncation: each short-lived handle
    // adopts the newest checkpoint (the origin segments are gone by
    // mid-run) and must still observe exactly the state an unbounded
    // object accumulates from the same script.
    use waitfree::objects::counter::{Counter, CounterOp};
    use waitfree::sync::universal::SEGMENT_SIZE;

    let total = 6 * SEGMENT_SIZE;
    let chunk = SEGMENT_SIZE / 2;
    let cp = WfUniversal::with_config(
        Counter::new(0),
        UniversalConfig { checkpoint_every: Some(SEGMENT_SIZE / 2), ..UniversalConfig::default() },
    );
    let un = WfUniversal::with_config(Counter::new(0), UniversalConfig::default());
    for start in (0..total).step_by(chunk) {
        let mut hc = cp.register();
        let mut hu = un.register();
        for i in start..start + chunk {
            assert_eq!(
                hc.invoke(CounterOp::FetchAndAdd(1)),
                hu.invoke(CounterOp::FetchAndAdd(1)),
                "op {i}"
            );
        }
        hc.retire();
        hu.retire();
    }
    let (cp, un) = (cp.stats(), un.stats());
    assert!(
        cp.reclaimed_segments >= 3,
        "churn script truncated for real: {} segments reclaimed",
        cp.reclaimed_segments
    );
    assert!(
        cp.live_segments < un.live_segments,
        "checkpointed object retains less than unbounded ({} vs {})",
        cp.live_segments,
        un.live_segments
    );
}

#[test]
fn hardware_universal_object_survives_thread_churn() {
    // Handles dropped early (threads "crash" after a few ops): the
    // remaining threads keep completing operations.
    let threads = 4;
    let per = 200;
    let (obj, handles) = register_n(FifoQueue::new(), threads, UniversalConfig::default());
    let joins: Vec<_> = handles
        .into_iter()
        .map(|mut h| {
            waitfree::sched::thread::spawn(move || {
                let quit_early = h.tid() % 2 == 0;
                let ops = if quit_early { 3 } else { per };
                for i in 0..ops {
                    h.invoke(QueueOp::Enq(i as Val));
                }
                // Early-quitters just return: an undetected halt.
            })
        })
        .collect();
    for j in joins {
        j.join().unwrap();
    }
    // A late registrant's perspective: every completed enqueue is there
    // and the object is still fully operational.
    let mut check = obj.register();
    assert_eq!(check.read(FifoQueue::len), threads / 2 * (3 + per));
    check.invoke(QueueOp::Enq(1));
    assert!(matches!(
        check.invoke(QueueOp::Deq),
        waitfree::objects::queue::QueueResp::Item(_)
    ));
}

// ---------------------------------------------------------------------------
// Sharded-store equivalence (`waitfree-store`): partitioning the key
// space over N consensus logs must be invisible to sequential
// semantics — a 4-shard store, a 1-shard store ("single log"), and the
// flat-map reference model must agree response for response.
// ---------------------------------------------------------------------------

#[test]
fn sharded_store_matches_flat_map_reference_sequentially() {
    use waitfree::model::{ObjectSpec, Pid};
    use waitfree::store::{
        Bump, ShardedStore, StoreConfig, StoreModel, StoreOp, StoreResp,
    };

    let mut model: StoreModel<u64, i64, Bump> = StoreModel::new();
    let mut stores: Vec<_> = [1usize, 2, 4, 8]
        .iter()
        .map(|&shards| {
            let st: ShardedStore<u64, i64, Bump> =
                ShardedStore::new(&StoreConfig { shards, ..StoreConfig::default() });
            let h = st.handle();
            (shards, st, h)
        })
        .collect();

    let script: Vec<StoreOp<u64, i64, Bump>> = vec![
        StoreOp::Put(1, 10),
        StoreOp::Put(2, 20),
        StoreOp::Get(1),
        StoreOp::Cas { key: 2, expect: Some(20), new: Some(21) },
        StoreOp::Cas { key: 2, expect: Some(20), new: Some(99) },
        StoreOp::Update(3, Bump(7)),
        StoreOp::MultiPut([(4, Some(40)), (5, Some(50)), (1, None)].into_iter().collect()),
        StoreOp::Snapshot,
        StoreOp::MultiCas {
            expects: [(4, Some(40)), (5, Some(50))].into_iter().collect(),
            writes: [(4, Some(41)), (6, Some(60))].into_iter().collect(),
        },
        StoreOp::MultiCas {
            expects: [(4, Some(40))].into_iter().collect(),
            writes: [(4, Some(-1))].into_iter().collect(),
        },
        StoreOp::Remove(2),
        StoreOp::Update(3, Bump(-7)),
        StoreOp::Snapshot,
    ];

    for (i, op) in script.iter().enumerate() {
        let expected = model.apply(Pid(0), op);
        for (shards, _st, h) in &mut stores {
            let got = match op.clone() {
                StoreOp::Get(k) => {
                    // The three read surfaces must coincide sequentially:
                    // log-free `get`, the decided-read witness, and the
                    // batched form.
                    let local = h.get(&k);
                    assert_eq!(h.get_decided(&k), local, "step {i}: decided get diverged");
                    assert_eq!(h.multi_get(&[k]), vec![local], "step {i}: multi_get diverged");
                    StoreResp::Value(local)
                }
                StoreOp::Put(k, v) => StoreResp::Prev(h.put(k, v)),
                StoreOp::Remove(k) => StoreResp::Prev(h.remove(&k)),
                StoreOp::Cas { key, expect, new } => {
                    let (ok, prev) = h.cas(key, expect, new);
                    StoreResp::Cas { ok, prev }
                }
                StoreOp::Update(k, m) => StoreResp::Prev(h.fetch_update(k, m)),
                StoreOp::MultiPut(writes) => {
                    h.multi_put(writes);
                    StoreResp::Done(true)
                }
                StoreOp::MultiCas { expects, writes } => {
                    StoreResp::Done(h.multi_cas(expects, writes))
                }
                StoreOp::Snapshot => StoreResp::Snap(h.snapshot().map),
            };
            assert_eq!(got, expected, "step {i} ({op:?}) diverged at {shards} shard(s)");
        }
    }
}

/// Sharded(4) vs single-log(1) under *identical op-granularity
/// schedules* (`OpRandom` preempts at explicit schedule points, never
/// inside an op): the partition must not change any logical response
/// or any snapshot, seed for seed.
#[cfg(feature = "sched")]
mod store_equivalence {
    use std::collections::BTreeMap;
    use std::sync::{Arc, Mutex};

    use waitfree::sched::thread as vthread;
    use waitfree::sched::{run, OpRandom, RunOptions};
    use waitfree::store::{Bump, ShardedStore, StoreConfig};

    /// Version-free logical outcome of one store op.
    #[derive(Clone, PartialEq, Eq, Debug)]
    enum R {
        Prev(Option<i64>),
        Cas(bool, Option<i64>),
        Done(bool),
        Snap(BTreeMap<u64, i64>),
    }

    type Out = Vec<(usize, Vec<R>)>;

    fn drive(shards: usize, seed: u64) -> Out {
        let out: Arc<Mutex<Option<Out>>> = Arc::new(Mutex::new(None));
        let sink = Arc::clone(&out);
        let res = run(OpRandom::new(seed), RunOptions::default(), move || {
            let store: ShardedStore<u64, i64, Bump> = ShardedStore::new(&StoreConfig {
                shards,
                ops_per_handle: 64,
                ..StoreConfig::default()
            });
            let workers: Vec<_> = (0..2usize)
                .map(|t| {
                    let store = store.clone();
                    vthread::spawn(move || {
                        let mut h = store.handle();
                        let mut resps = Vec::new();
                        let step = |r: R| {
                            vthread::yield_now();
                            r
                        };
                        if t == 0 {
                            resps.push(step(R::Prev(h.put(1, 10))));
                            resps.push(step(R::Done({
                                h.multi_put([(1, Some(11)), (4, Some(44))]);
                                true
                            })));
                            resps.push(step(R::Prev(h.fetch_update(2, Bump(5)))));
                            resps.push(step(R::Snap(h.snapshot().map)));
                            resps.push(step(R::Prev(h.get(&4))));
                        } else {
                            let (ok, prev) = h.cas(2, None, Some(20));
                            resps.push(step(R::Cas(ok, prev)));
                            resps.push(step(R::Done(h.multi_cas(
                                [(1, Some(10))],
                                [(2, Some(22)), (5, Some(55))],
                            ))));
                            resps.push(step(R::Prev(h.remove(&4))));
                            resps.push(step(R::Snap(h.snapshot().map)));
                        }
                        (t, resps)
                    })
                })
                .collect();
            let mut results: Out = workers.into_iter().map(|w| w.join().unwrap()).collect();
            results.sort_by_key(|(t, _)| *t);
            *sink.lock().unwrap() = Some(results);
        });
        assert!(res.error.is_none(), "shards {shards} seed {seed}: {:?}", res.error);
        let r = out.lock().unwrap().take().unwrap();
        r
    }

    #[test]
    fn sharded_and_single_log_agree_under_identical_schedules() {
        for seed in 0..64 {
            let sharded = drive(4, seed);
            let single = drive(1, seed);
            assert_eq!(sharded, single, "logical outcomes diverged at seed {seed}");
        }
    }

    /// One scheduled run of a read-heavy mixed workload whose reads go
    /// through either the log-free replica path (`get`/`multi_get`) or
    /// the decided-read witness (`get_decided`), selected by `local`.
    /// Both variants perform the same operations between the same yield
    /// points (the paired reads share a single schedule step), so
    /// `OpRandom` — which never preempts inside an op — produces the
    /// identical op-granularity interleaving for both.
    fn drive_reads(local: bool, seed: u64) -> Out {
        let out: Arc<Mutex<Option<Out>>> = Arc::new(Mutex::new(None));
        let sink = Arc::clone(&out);
        let res = run(OpRandom::new(seed), RunOptions::default(), move || {
            let store: ShardedStore<u64, i64, Bump> = ShardedStore::new(&StoreConfig {
                shards: 4,
                ops_per_handle: 64,
                ..StoreConfig::default()
            });
            let workers: Vec<_> = (0..2usize)
                .map(|t| {
                    let store = store.clone();
                    vthread::spawn(move || {
                        let mut h = store.handle();
                        let mut resps = Vec::new();
                        let step = |r: R| {
                            vthread::yield_now();
                            r
                        };
                        if t == 0 {
                            resps.push(step(R::Prev(h.put(1, 10))));
                            resps.push(step(R::Done({
                                h.multi_put([(1, Some(11)), (4, Some(44))]);
                                true
                            })));
                            // Paired read: one schedule step for both
                            // keys on either path, so the yield
                            // structure is identical across variants.
                            let (a, b) = if local {
                                let vs = h.multi_get(&[1, 4]);
                                (vs[0], vs[1])
                            } else {
                                (h.get_decided(&1), h.get_decided(&4))
                            };
                            resps.push(R::Prev(a));
                            resps.push(step(R::Prev(b)));
                            resps.push(step(R::Prev(h.fetch_update(2, Bump(5)))));
                        } else {
                            let (ok, prev) = h.cas(2, None, Some(20));
                            resps.push(step(R::Cas(ok, prev)));
                            let r1 = if local { h.get(&1) } else { h.get_decided(&1) };
                            resps.push(step(R::Prev(r1)));
                            resps.push(step(R::Done(h.multi_cas(
                                [(1, Some(10))],
                                [(2, Some(22)), (5, Some(55))],
                            ))));
                            let r2 = if local { h.get(&2) } else { h.get_decided(&2) };
                            resps.push(step(R::Prev(r2)));
                            resps.push(step(R::Snap(h.snapshot().map)));
                        }
                        (t, resps)
                    })
                })
                .collect();
            let mut results: Out = workers.into_iter().map(|w| w.join().unwrap()).collect();
            results.sort_by_key(|(t, _)| *t);
            *sink.lock().unwrap() = Some(results);
        });
        assert!(res.error.is_none(), "local {local} seed {seed}: {:?}", res.error);
        let r = out.lock().unwrap().take().unwrap();
        r
    }

    /// Satellite of the log-free read path (DESIGN §11): under
    /// *identical* op-granularity schedules, a local read must return
    /// exactly what a decided read returns — not merely a linearizable
    /// value. At op granularity every completed prior op has published
    /// its frontier hint by the time a read starts, so a local read
    /// that lags (e.g. a missing completion-side `publish_hint`) would
    /// return a stale value here and diverge from the decided witness,
    /// seed for seed.
    #[test]
    fn local_and_decided_reads_agree_under_identical_schedules() {
        for seed in 0..64 {
            let local = drive_reads(true, seed);
            let decided = drive_reads(false, seed);
            assert_eq!(local, decided, "read paths diverged at seed {seed}");
        }
    }
}
