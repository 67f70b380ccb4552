//! Deterministic schedule exploration over the real `waitfree-sync`
//! implementations (feature `sched`), with machine-checked
//! linearizability verdicts — the workspace's middle validation tier
//! (DESIGN.md, "Three validation tiers").
//!
//! * Seed campaigns: ≥ 1000 random-walk and ≥ 1000 PCT schedules per
//!   object over the universal construction (plain, checkpointed,
//!   churning, growing), the typed wrappers riding it, the Herlihy–Wing
//!   FAA queue and the lock-free baselines, every history checked
//!   against its sequential specification.
//! * A deliberately broken consensus object (the decide CAS downgraded
//!   to a load followed by a store) whose agreement violation must be
//!   caught, printed as a replayable failing schedule, and reproduced
//!   bit-for-bit from its seed.
//! * Bounded exhaustive DFS over tiny configurations.
//! * The PR 2 hint-ordering bug pinned as a fixed scripted schedule.
//! * Composition with `waitfree-faults` failpoints (feature
//!   `failpoints` on top): injected crashes leave pending operations
//!   that still linearize under `MayTakeEffect`, and injected yields
//!   become deterministic schedule points.

#![cfg(feature = "sched")]

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, OnceLock};

use waitfree::model::{ObjectSpec, Pid};
use waitfree::objects::assignment::{AssignBank, AssignOp};
use waitfree::objects::consensus_obj::{ConsensusObj, DecideOp};
use waitfree::objects::counter::{Counter, CounterOp, CounterResp};
use waitfree::objects::memory::{MemOp, MemoryBank};
use waitfree::objects::queue::{FifoQueue, QueueOp, QueueResp};
use waitfree::objects::register::{RegOp, RegResp, RwRegister};
use waitfree::objects::stack::{Stack, StackOp, StackResp};
use waitfree::sched::atomic::{AtomicI64, Ordering};
use waitfree::sched::thread as vthread;
use waitfree::sched::{
    campaign, campaign_with, replay, run, run_and_check, run_and_check_with, AtomicOp, Choice,
    Contract, Dfs, Explore, HistoryRecorder, PointKind, RunOptions, Script, SiteSpec, Strategy,
};
use waitfree::store::{Bump, ShardedStore, StoreConfig, StoreModel, StoreOp, StoreResp};
use waitfree::sync::consensus::{ConsensusCell, UsizeConsensus};
use waitfree::sync::faa_queue::FaaQueue;
use waitfree::sync::lockfree::{MsQueue, TreiberStack};
use waitfree::sync::universal::{UniversalConfig, WfUniversal, SEGMENT_SIZE};
use waitfree::sync::wrappers::{WfCounter, WfQueue, WfRegister, WfStack};

use common::{register_n, CloneCounted};

/// Checkpointed truncation at cadence `every`.
fn checkpointed(every: usize) -> UniversalConfig {
    UniversalConfig { checkpoint_every: Some(every), ..UniversalConfig::default() }
}

/// Seeds per strategy family in the campaign tests (acceptance floor:
/// ≥ 1000 random-walk and ≥ 1000 PCT schedules per object).
const SEEDS: u64 = 1000;

fn explores() -> [Explore; 2] {
    [
        Explore::RandomWalk,
        Explore::Pct { depth: 3, est_steps: 400 },
    ]
}

/// The workspace ordering contract — the same site table and pair
/// graph `wf-lint --contract-json` emits, extracted once from the
/// checked-out sources so the dynamic cross-validation below always
/// judges against the contract that matches the code under test.
///
/// Mutant-gated statements are included exactly when the corresponding
/// feature is compiled in, so under `mutant-unpaired-acquire` the
/// executing (mis-labeled) `hint` load resolves to *its* declaration,
/// not the shipped twin's.
fn ordering_contract() -> &'static Contract {
    static CONTRACT: OnceLock<Contract> = OnceLock::new();
    CONTRACT.get_or_init(|| {
        let files = common::workspace_sources();
        let include_mutants = cfg!(any(
            feature = "mutant-unpaired-acquire",
            feature = "mutant-relaxed-hint"
        ));
        let result = waitfree_analyze::contract::extract_contract(&files, include_mutants);
        if !include_mutants {
            // The shipped pair graph must be clean; the mutant builds
            // deliberately dangle (pinned by tests/contract.rs).
            assert!(result.findings.is_empty(), "{:?}", result.findings);
        }
        Contract {
            sites: result
                .contract
                .sites
                .into_iter()
                .map(|s| SiteSpec {
                    label: s.label,
                    file: s.file,
                    start: s.start,
                    end: s.end,
                    pairs: s.pairs,
                })
                .collect(),
            files: result.contract.files,
        }
    })
}

/// Sweep both strategy families over `body` and require every explored
/// schedule to produce a linearizable history *and* a trace whose
/// observed synchronization edges all fall inside the declared
/// ordering contract. Returns the `(release label, acquire site)`
/// pairs the sweep exercised, for the coverage assertion below.
fn sweep_exercising<S, F>(name: &str, initial: &S, mut body: F) -> BTreeSet<(String, String)>
where
    S: ObjectSpec,
    F: FnMut(HistoryRecorder<S>),
{
    let contract = ordering_contract();
    let opts = RunOptions::default();
    let mut exercised = BTreeSet::new();
    for explore in explores() {
        let report =
            campaign_with(initial, &explore, 0..SEEDS, &opts, Some(contract), &mut body);
        assert_eq!(report.runs, SEEDS as usize);
        assert!(
            report.all_linearizable(),
            "{name} under {explore:?}: {} failing schedule(s), first:\n{}",
            report.failures.len(),
            report.failures[0],
        );
        exercised.extend(report.exercised);
    }
    exercised
}

/// [`sweep_exercising`] when the caller only wants the verdicts.
fn sweep<S, F>(name: &str, initial: &S, body: F)
where
    S: ObjectSpec,
    F: FnMut(HistoryRecorder<S>),
{
    let _ = sweep_exercising(name, initial, body);
}

// ---------------------------------------------------------------------
// Campaign workloads: two virtual threads, a handful of operations.
// ---------------------------------------------------------------------

/// Two handles on one fresh `cfg` counter, two fetch-and-adds each.
fn counter_body(cfg: UniversalConfig, rec: HistoryRecorder<Counter>) {
    let handles = register_n(Counter::new(0), 2, cfg).1;
    let workers: Vec<_> = handles
        .into_iter()
        .map(|mut h| {
            let rec = rec.clone();
            vthread::spawn(move || {
                let pid = Pid(h.tid());
                for i in 0..2 {
                    let op = CounterOp::FetchAndAdd((10 * h.tid() + i + 1) as i64);
                    rec.record(pid, op.clone(), || h.invoke(op.clone()));
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
}

fn universal_counter_body(rec: HistoryRecorder<Counter>) {
    counter_body(UniversalConfig::default(), rec);
}

// The typed wrappers (`waitfree::sync::wrappers`) ride
// `UniversalConfig::default()`, so these campaigns double as coverage
// for every object class the paper's universality theorem promises.

fn wf_queue_body(rec: HistoryRecorder<FifoQueue>) {
    let queue = WfQueue::new(UniversalConfig::default());
    let handles = [queue.register(), queue.register()];
    let workers: Vec<_> = handles
        .into_iter()
        .enumerate()
        .map(|(t, mut h)| {
            let rec = rec.clone();
            vthread::spawn(move || {
                let pid = Pid(t);
                if t == 0 {
                    for v in [1i64, 2] {
                        rec.record(pid, QueueOp::Enq(v), || {
                            h.enq(v);
                            QueueResp::Ack
                        });
                    }
                } else {
                    for _ in 0..3 {
                        rec.record(pid, QueueOp::Deq, || match h.deq() {
                            Some(v) => QueueResp::Item(v),
                            None => QueueResp::Empty,
                        });
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
}

fn wf_stack_body(rec: HistoryRecorder<Stack>) {
    let stack = WfStack::new(UniversalConfig::default());
    let handles = [stack.register(), stack.register()];
    let workers: Vec<_> = handles
        .into_iter()
        .enumerate()
        .map(|(t, mut h)| {
            let rec = rec.clone();
            vthread::spawn(move || {
                let pid = Pid(t);
                if t == 0 {
                    for v in [1i64, 2] {
                        rec.record(pid, StackOp::Push(v), || {
                            h.push(v);
                            StackResp::Ack
                        });
                    }
                } else {
                    for _ in 0..3 {
                        rec.record(pid, StackOp::Pop, || match h.pop() {
                            Some(v) => StackResp::Item(v),
                            None => StackResp::Empty,
                        });
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
}

fn wf_counter_body(rec: HistoryRecorder<Counter>) {
    let counter = WfCounter::new(UniversalConfig::default());
    let handles = [counter.register(), counter.register()];
    let workers: Vec<_> = handles
        .into_iter()
        .enumerate()
        .map(|(t, mut h)| {
            let rec = rec.clone();
            vthread::spawn(move || {
                let pid = Pid(t);
                for i in 0..2 {
                    let delta = (10 * t + i + 1) as i64;
                    rec.record(pid, CounterOp::FetchAndAdd(delta), || {
                        CounterResp::Value(h.fetch_add(delta))
                    });
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
}

fn wf_register_body(rec: HistoryRecorder<RwRegister>) {
    let reg = WfRegister::new(0, UniversalConfig::default());
    let handles = [reg.register(), reg.register()];
    let workers: Vec<_> = handles
        .into_iter()
        .enumerate()
        .map(|(t, mut h)| {
            let rec = rec.clone();
            vthread::spawn(move || {
                let pid = Pid(t);
                if t == 0 {
                    for v in [7i64, 8] {
                        rec.record(pid, RegOp::Write(v), || {
                            h.write(v);
                            RegResp::Written
                        });
                    }
                } else {
                    for _ in 0..2 {
                        rec.record(pid, RegOp::Read, || RegResp::Read(h.read()));
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
}

// The §3.5/§3.6 hierarchy objects, universalized: `Move`/`Swap` and
// atomic n-register assignment return nothing, so linearizability of
// their histories leans entirely on the *reads* observing a state
// consistent with some atomic ordering of the silent mutations — the
// ROADMAP carry-over gap this file closes.

fn memory_bank_body(rec: HistoryRecorder<MemoryBank>) {
    let handles = register_n(MemoryBank::from_values(vec![1, 2, 3]), 2, UniversalConfig::default()).1;
    let workers: Vec<_> = handles
        .into_iter()
        .map(|mut h| {
            let rec = rec.clone();
            vthread::spawn(move || {
                let pid = Pid(h.tid());
                let script: Vec<MemOp> = if h.tid() == 0 {
                    vec![MemOp::Move { src: 0, dst: 1 }, MemOp::Read(1)]
                } else {
                    vec![MemOp::Swap { a: 1, b: 2 }, MemOp::Read(2)]
                };
                for op in script {
                    rec.record(pid, op.clone(), || h.invoke(op.clone()));
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
}

fn assign_bank_body(rec: HistoryRecorder<AssignBank>) {
    let handles = register_n(AssignBank::new(3, 2, -1), 2, UniversalConfig::default()).1;
    let workers: Vec<_> = handles
        .into_iter()
        .map(|mut h| {
            let rec = rec.clone();
            vthread::spawn(move || {
                let pid = Pid(h.tid());
                let script: Vec<AssignOp> = if h.tid() == 0 {
                    vec![AssignOp::Assign(vec![(0, 5), (2, 7)]), AssignOp::Read(2)]
                } else {
                    vec![AssignOp::Assign(vec![(1, 6), (2, 9)]), AssignOp::Read(0)]
                };
                for op in script {
                    rec.record(pid, op.clone(), || h.invoke(op.clone()));
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
}

// Dynamic membership under the scheduler: each virtual thread is a
// *sequence* of clients — register, operate, retire, respawn — so the
// explored interleavings cover slot claim races, recycled-slot replay,
// and helpers scanning mid-retirement slots. The recording Pid is the
// worker index, not the (reused) registry slot.

fn universal_churn_body(rec: HistoryRecorder<Counter>) {
    let obj = WfUniversal::with_config(Counter::new(0), UniversalConfig::default());
    let workers: Vec<_> = (0..2)
        .map(|t| {
            let (obj, rec) = (obj.clone(), rec.clone());
            vthread::spawn(move || {
                let pid = Pid(t);
                for gen in 0..2 {
                    let mut h = obj.register();
                    let op = CounterOp::FetchAndAdd((100 * t + 10 * gen + 1) as i64);
                    rec.record(pid, op.clone(), || h.invoke(op.clone()));
                    h.retire();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
}

fn faa_queue_body(rec: HistoryRecorder<FifoQueue>) {
    let q = Arc::new(FaaQueue::new(8));
    let producer = {
        let (q, rec) = (Arc::clone(&q), rec.clone());
        vthread::spawn(move || {
            for v in [1i64, 2] {
                rec.record(Pid(0), QueueOp::Enq(v), || {
                    q.enq(v);
                    QueueResp::Ack
                });
            }
        })
    };
    let consumer = {
        let (q, rec) = (Arc::clone(&q), rec.clone());
        vthread::spawn(move || {
            for _ in 0..3 {
                rec.record(Pid(1), QueueOp::Deq, || match q.try_deq() {
                    Some(v) => QueueResp::Item(v),
                    None => QueueResp::Empty,
                });
            }
        })
    };
    producer.join().unwrap();
    consumer.join().unwrap();
}

fn treiber_stack_body(rec: HistoryRecorder<Stack>) {
    let s = Arc::new(TreiberStack::new());
    let pusher = {
        let (s, rec) = (Arc::clone(&s), rec.clone());
        vthread::spawn(move || {
            for v in [1i64, 2] {
                rec.record(Pid(0), StackOp::Push(v), || {
                    s.push(v);
                    StackResp::Ack
                });
            }
        })
    };
    let popper = {
        let (s, rec) = (Arc::clone(&s), rec.clone());
        vthread::spawn(move || {
            for _ in 0..3 {
                rec.record(Pid(1), StackOp::Pop, || match s.pop() {
                    Some(v) => StackResp::Item(v),
                    None => StackResp::Empty,
                });
            }
        })
    };
    pusher.join().unwrap();
    popper.join().unwrap();
}

fn ms_queue_body(rec: HistoryRecorder<FifoQueue>) {
    let q = Arc::new(MsQueue::new());
    let producer = {
        let (q, rec) = (Arc::clone(&q), rec.clone());
        vthread::spawn(move || {
            for v in [1i64, 2] {
                rec.record(Pid(0), QueueOp::Enq(v), || {
                    q.enq(v);
                    QueueResp::Ack
                });
            }
        })
    };
    let consumer = {
        let (q, rec) = (Arc::clone(&q), rec.clone());
        vthread::spawn(move || {
            for _ in 0..3 {
                rec.record(Pid(1), QueueOp::Deq, || match q.deq() {
                    Some(v) => QueueResp::Item(v),
                    None => QueueResp::Empty,
                });
            }
        })
    };
    producer.join().unwrap();
    consumer.join().unwrap();
}

/// Log growth past `SEGMENT_SIZE` (64) plus every read-side API: two
/// workers run 65 ops each, so even if every decide batches both
/// clients' ops the log passes position 64, one of them installs the
/// second log segment, and the other's replay walk, `try_read` and
/// `read` catch-ups and `decided_log` traversal all acquire from that
/// install; the main thread's `Debug` format and the segment accessor
/// (read on a worker's clone too, so `universal.seg_count` is acquired
/// off the installing thread) exercise the observer loads. Built for
/// the coverage test below — the short campaign bodies never fill a
/// segment.
fn universal_log_growth_body(rec: HistoryRecorder<Counter>) {
    let obj = WfUniversal::with_config(Counter::new(0), UniversalConfig::default());
    let workers: Vec<_> = (0..2)
        .map(|t| {
            let (obj, rec) = (obj.clone(), rec.clone());
            vthread::spawn(move || {
                let mut h = obj.register();
                let pid = Pid(t);
                for _ in 0..65 {
                    let op = CounterOp::FetchAndAdd(1);
                    rec.record(pid, op.clone(), || h.invoke(op.clone()));
                }
                // Unrecorded reads: invisible to the linearizability
                // checker, but their Acquire loads land in the trace
                // and must all resolve inside the ordering contract.
                let _ = h.try_read(|s| s.value());
                if t == 0 {
                    let _ = h.read(Counter::clone);
                } else {
                    let _ = h.decided_log();
                    let _ = obj.stats();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let _ = format!("{obj:?}");
    let _ = obj.stats();
}

/// Same-role contention on the lock-free baselines: two pushers and
/// two poppers (with `is_empty` probes) on one stack, so push reads
/// push, pop reads pop, and racing retires read each other — the
/// edges a single-producer/single-consumer body can never exercise
/// cross-thread.
fn treiber_contention_body(rec: HistoryRecorder<Stack>) {
    let s = Arc::new(TreiberStack::new());
    let workers: Vec<_> = (0..4)
        .map(|t| {
            let (s, rec) = (Arc::clone(&s), rec.clone());
            vthread::spawn(move || {
                let pid = Pid(t);
                let _ = s.is_empty();
                for i in 0..2 {
                    if t < 2 {
                        let v = (10 * t + i) as i64;
                        rec.record(pid, StackOp::Push(v), || {
                            s.push(v);
                            StackResp::Ack
                        });
                    } else {
                        rec.record(pid, StackOp::Pop, || match s.pop() {
                            Some(v) => StackResp::Item(v),
                            None => StackResp::Empty,
                        });
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
}

/// Same-role contention on the Michael–Scott queue: two enqueuers and
/// two dequeuers, so an enqueuer's tail/next loads read the *other*
/// enqueuer's link and swing CASes, and a dequeuer's loads read the
/// other dequeuer's help-swing — including every lagging-tail repair
/// pair.
fn ms_queue_contention_body(rec: HistoryRecorder<FifoQueue>) {
    let q = Arc::new(MsQueue::new());
    let workers: Vec<_> = (0..4)
        .map(|t| {
            let (q, rec) = (Arc::clone(&q), rec.clone());
            vthread::spawn(move || {
                let pid = Pid(t);
                for i in 0..2 {
                    if t < 2 {
                        let v = (10 * t + i) as i64;
                        rec.record(pid, QueueOp::Enq(v), || {
                            q.enq(v);
                            QueueResp::Ack
                        });
                    } else {
                        rec.record(pid, QueueOp::Deq, || match q.deq() {
                            Some(v) => QueueResp::Item(v),
                            None => QueueResp::Empty,
                        });
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
}

/// Checkpoint images on the read side: an aggressive checkpoint
/// cadence plus `try_read`, `read` and `decided_log` traversals, so
/// those walks acquire from a checkpoint-install CAS decided by the
/// *other* thread (the plain checkpointed body never replays through
/// a foreign checkpoint via the read-only APIs).
fn checkpointed_reader_body(rec: HistoryRecorder<Counter>) {
    let obj = WfUniversal::with_config(Counter::new(0), checkpointed(2));
    let workers: Vec<_> = (0..2)
        .map(|t| {
            let (obj, rec) = (obj.clone(), rec.clone());
            vthread::spawn(move || {
                let pid = Pid(t);
                let mut h = obj.register();
                for _ in 0..3 {
                    let op = CounterOp::FetchAndAdd(1);
                    rec.record(pid, op.clone(), || h.invoke(op.clone()));
                }
                let _ = h.try_read(|s| s.value());
                if t == 0 {
                    let _ = h.read(Counter::clone);
                } else {
                    let _ = h.decided_log();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
}

/// Registry growth past `REGISTRY_SEGMENT` (8): two workers register
/// five handles each and keep them live, so slot indices reach 9 and
/// one worker installs the second registry segment while the other's
/// slot walks (`reg_slot`, `for_each_slot`, `pending_range`) acquire
/// from the install — and when both cross the boundary concurrently,
/// the loser's install CAS acquires the winner's; the collect scan
/// walks every registered slot.
fn universal_registry_growth_body(rec: HistoryRecorder<Counter>) {
    let obj = WfUniversal::with_config(Counter::new(0), UniversalConfig::default());
    let workers: Vec<_> = (0..2)
        .map(|t| {
            let (obj, rec) = (obj.clone(), rec.clone());
            vthread::spawn(move || {
                let pid = Pid(t);
                let mut handles = Vec::new();
                for _ in 0..5 {
                    let mut h = obj.register();
                    let op = CounterOp::FetchAndAdd(1);
                    rec.record(pid, op.clone(), || h.invoke(op.clone()));
                    handles.push(h); // stays live: indices keep growing
                }
                // One more op with all ten slots live, so the collect
                // scan walks the full grown registry.
                let h = handles.last_mut().unwrap();
                let op = CounterOp::FetchAndAdd(1);
                rec.record(pid, op.clone(), || h.invoke(op.clone()));
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
}

#[test]
fn universal_counter_campaigns_linearize() {
    sweep("WfUniversal<Counter>", &Counter::new(0), universal_counter_body);
}

/// Checkpointed truncation under churn: an aggressive cadence (a
/// checkpoint attempt every 2 positions) runs inside every explored
/// schedule, interleaving checkpoint CASes, frontier publishes and
/// reclaim passes among the op decides — and late registrants bootstrap
/// from whatever checkpoint the schedule happened to decide. Every
/// schedule must still linearize.
fn checkpointed_universal_counter_body(rec: HistoryRecorder<Counter>) {
    let obj = WfUniversal::with_config(Counter::new(0), checkpointed(2));
    let workers: Vec<_> = (0..2)
        .map(|t| {
            let (obj, rec) = (obj.clone(), rec.clone());
            vthread::spawn(move || {
                let pid = Pid(t);
                for gen in 0..2 {
                    let mut h = obj.register();
                    let op = CounterOp::FetchAndAdd((100 * t + 10 * gen + 1) as i64);
                    rec.record(pid, op.clone(), || h.invoke(op.clone()));
                    h.retire();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
}

#[test]
fn checkpointed_universal_campaigns_linearize() {
    sweep(
        "WfUniversal<Counter> (checkpointed churn)",
        &Counter::new(0),
        checkpointed_universal_counter_body,
    );
}

/// Two handles race three fetch-and-adds each at checkpoint cadence 2
/// (as [`checkpointed_universal_counter_body`]), so some schedules have
/// a handle propose a checkpoint at a position the other's op decides
/// first; then a late registrant bootstraps across whatever claims the
/// schedule left. Sends `(clones, checkpoints)` for the run to `sink`.
fn lost_checkpoint_race_body(rec: HistoryRecorder<CloneCounted>, sink: &Mutex<Vec<(usize, usize)>>) {
    let initial = CloneCounted::new(0);
    let tally = Arc::clone(&initial.tally);
    let (obj, handles) = register_n(initial, 2, checkpointed(2));
    let workers: Vec<_> = handles
        .into_iter()
        .map(|mut h| {
            let rec = rec.clone();
            vthread::spawn(move || {
                let pid = Pid(h.tid());
                for i in 0..3 {
                    let op = CounterOp::FetchAndAdd((10 * h.tid() + i + 1) as i64);
                    rec.record(pid, op.clone(), || h.invoke(op.clone()));
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let mut late = obj.register();
    assert_eq!(late.read(|s| s.counter.value()), 1 + 2 + 3 + 11 + 12 + 13);
    let clones = tally.load(Ordering::SeqCst);
    sink.lock().unwrap().push((clones, obj.stats().checkpoints));
}

/// A lost checkpoint race builds no image: the claim is decided before
/// the state is cloned, so on every schedule the state is cloned once
/// per filled checkpoint and once per registration's bootstrap (two
/// workers and the late registrant) — never for a proposer whose claim
/// lost its position.
#[test]
fn a_lost_checkpoint_race_clones_no_image() {
    let runs = Mutex::new(Vec::new());
    sweep("WfUniversal<CloneCounted> (lost checkpoint race)", &CloneCounted::new(0), |rec| {
        lost_checkpoint_race_body(rec, &runs)
    });
    let runs = runs.into_inner().unwrap();
    assert_eq!(runs.len(), 2 * SEEDS as usize);
    for (i, &(clones, checkpoints)) in runs.iter().enumerate() {
        assert_eq!(clones, checkpoints + 3, "run {i}: clones beyond checkpoints + bootstraps");
    }
    assert!(runs.iter().any(|&(_, cps)| cps > 0), "no schedule checkpointed at all");
}

#[test]
fn wf_queue_wrapper_campaigns_linearize() {
    sweep("WfQueueHandle", &FifoQueue::new(), wf_queue_body);
}

#[test]
fn wf_stack_wrapper_campaigns_linearize() {
    sweep("WfStackHandle", &Stack::new(), wf_stack_body);
}

#[test]
fn wf_counter_wrapper_campaigns_linearize() {
    sweep("WfCounterHandle", &Counter::new(0), wf_counter_body);
}

#[test]
fn wf_register_wrapper_campaigns_linearize() {
    sweep("WfRegisterHandle", &RwRegister::new(0), wf_register_body);
}

#[test]
fn memory_bank_campaigns_linearize() {
    sweep(
        "WfUniversal<MemoryBank>",
        &MemoryBank::from_values(vec![1, 2, 3]),
        memory_bank_body,
    );
}

#[test]
fn assign_bank_campaigns_linearize() {
    sweep(
        "WfUniversal<AssignBank>",
        &AssignBank::new(3, 2, -1),
        assign_bank_body,
    );
}

#[test]
fn universal_churn_campaigns_linearize() {
    sweep(
        "WfUniversal<Counter> (churn)",
        &Counter::new(0),
        universal_churn_body,
    );
}

/// The combining layer is not dead code under the schedule explorer:
/// some random-walk interleaving parks one thread between announce and
/// decide long enough for the other's collect scan to pick both ops up,
/// and the decided log then shows strictly fewer positions than
/// operations. (Every schedule must also flatten to a log that carries
/// all four operations exactly once here — no contention, no crashes.)
#[test]
fn some_schedule_forms_a_multi_op_batch() {
    let mut witnessed = false;
    for seed in 0..SEEDS {
        let out: Arc<Mutex<Option<(usize, usize)>>> = Arc::new(Mutex::new(None));
        let sink = Arc::clone(&out);
        let res = run(
            waitfree::sched::RandomWalk::new(seed),
            RunOptions::default(),
            move || {
                let handles = register_n(Counter::new(0), 2, UniversalConfig::default()).1;
                let workers: Vec<_> = handles
                    .into_iter()
                    .map(|mut h| {
                        vthread::spawn(move || {
                            for i in 0..2 {
                                h.invoke(CounterOp::FetchAndAdd((10 * h.tid() + i + 1) as i64));
                            }
                            h
                        })
                    })
                    .collect();
                let hs: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
                *sink.lock().unwrap() =
                    Some((hs[0].decided_batches().len(), hs[0].decided_log().len()));
            },
        );
        assert!(res.error.is_none(), "seed {seed}: {:?}", res.error);
        let (positions, ops) = out.lock().unwrap().take().unwrap();
        assert_eq!(ops, 4, "seed {seed}: flattened log carries every op once");
        assert!(positions <= ops);
        if positions < ops {
            witnessed = true;
            break;
        }
    }
    assert!(
        witnessed,
        "no random-walk schedule in {SEEDS} seeds ever combined two ops into one decide"
    );
}

#[test]
fn faa_queue_campaigns_linearize() {
    sweep("FaaQueue", &FifoQueue::new(), faa_queue_body);
}

#[test]
fn treiber_stack_campaigns_linearize() {
    sweep("TreiberStack", &Stack::new(), treiber_stack_body);
}

#[test]
fn ms_queue_campaigns_linearize() {
    sweep("MsQueue", &FifoQueue::new(), ms_queue_body);
}

/// Coverage closes the static↔dynamic loop: every `(release site,
/// acquire site)` pair the contract declares in `crates/sync` must be
/// *observed* as a real synchronization edge by the 1000-seed
/// campaigns — a declared pair no schedule can exercise is either dead
/// annotation or a workload gap, and both deserve a failing test. The
/// growth bodies exist exactly for this: segment and registry installs
/// never fire in the short bodies (the log-growth body also reaches a
/// third segment in some schedules, so two installers chain through
/// `universal.seg_count`).
#[test]
fn declared_sync_pairs_are_exercised_by_campaigns() {
    let contract = ordering_contract();
    let mut exercised = BTreeSet::new();
    exercised.extend(sweep_exercising(
        "WfUniversal<Counter>",
        &Counter::new(0),
        universal_counter_body,
    ));
    exercised.extend(sweep_exercising(
        "WfUniversal<Counter> (churn)",
        &Counter::new(0),
        universal_churn_body,
    ));
    exercised.extend(sweep_exercising(
        "WfUniversal<Counter> (checkpointed churn)",
        &Counter::new(0),
        checkpointed_universal_counter_body,
    ));
    exercised.extend(sweep_exercising(
        "WfUniversal<Counter> (log growth)",
        &Counter::new(0),
        universal_log_growth_body,
    ));
    exercised.extend(sweep_exercising(
        "WfUniversal<Counter> (registry growth)",
        &Counter::new(0),
        universal_registry_growth_body,
    ));
    exercised.extend(sweep_exercising(
        "WfUniversal<Counter> (checkpointed readers)",
        &Counter::new(0),
        checkpointed_reader_body,
    ));
    exercised.extend(sweep_exercising(
        "TreiberStack",
        &Stack::new(),
        treiber_stack_body,
    ));
    exercised.extend(sweep_exercising(
        "TreiberStack (contention)",
        &Stack::new(),
        treiber_contention_body,
    ));
    exercised.extend(sweep_exercising("MsQueue", &FifoQueue::new(), ms_queue_body));
    exercised.extend(sweep_exercising(
        "MsQueue (contention)",
        &FifoQueue::new(),
        ms_queue_contention_body,
    ));

    let missing: Vec<String> = contract
        .declared_pairs()
        .into_iter()
        .filter(|(rel, acq)| {
            let in_sync = |id: &str| id.starts_with("crates/sync/") || !id.contains('/');
            in_sync(rel) && in_sync(acq)
        })
        .filter(|(rel, acq)| !exercised.contains(&(rel.clone(), acq.clone())))
        .map(|(rel, acq)| format!("{rel} -> {acq}"))
        .collect();
    assert!(
        missing.is_empty(),
        "{} declared pair(s) never exercised by any campaign:\n{}",
        missing.len(),
        missing.join("\n")
    );
}

// ---------------------------------------------------------------------
// The broken object: decide by load-then-store instead of CAS.
// ---------------------------------------------------------------------

const UNDECIDED: i64 = i64::MIN;

/// Deliberately broken consensus: Theorem 7's protocol with the
/// compare-and-swap torn into a load followed by a store. Two proposers
/// can both observe `UNDECIDED` and both believe they won — exactly the
/// lost-update race the single CAS exists to close.
#[derive(Debug)]
struct BrokenConsensus {
    cell: AtomicI64,
}

impl BrokenConsensus {
    fn new() -> Self {
        BrokenConsensus { cell: AtomicI64::new(UNDECIDED) }
    }

    fn decide(&self, v: i64) -> i64 {
        let cur = self.cell.load(Ordering::SeqCst);
        if cur != UNDECIDED {
            return cur;
        }
        // A schedule point sits between the load above and this store:
        // the scheduler can interleave the other proposer's whole decide
        // here, and the checker must notice the disagreement.
        self.cell.store(v, Ordering::SeqCst);
        v
    }
}

fn broken_consensus_body(rec: HistoryRecorder<ConsensusObj>) {
    let c = Arc::new(BrokenConsensus::new());
    let workers: Vec<_> = (0..2)
        .map(|t| {
            let (c, rec) = (Arc::clone(&c), rec.clone());
            vthread::spawn(move || {
                let v = (t as i64 + 1) * 11;
                rec.record(Pid(t), DecideOp(v), || c.decide(v));
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
}

#[test]
fn broken_consensus_is_caught_and_replayable() {
    let opts = RunOptions::default();
    let report = campaign(
        &ConsensusObj::new(),
        &Explore::RandomWalk,
        0..SEEDS,
        &opts,
        broken_consensus_body,
    );
    assert!(
        !report.all_linearizable(),
        "the load+store consensus must yield non-linearizable histories"
    );
    let failure = &report.failures[0];
    // The campaign already printed it to stderr; print the replay target
    // here too so the failing seed is visible in the test output.
    println!("caught:\n{failure}");

    // Replaying the seed reproduces the exact decision trace and verdict.
    let again = replay(
        &ConsensusObj::new(),
        &Explore::RandomWalk,
        failure.seed,
        opts,
        broken_consensus_body,
    );
    assert!(!again.is_ok(), "replay of seed {} must fail again", failure.seed);
    assert_eq!(
        again.run.decisions, failure.decisions,
        "replay reproduces the decision trace bit for bit"
    );
}

// ---------------------------------------------------------------------
// Bounded exhaustive DFS over tiny configurations.
// ---------------------------------------------------------------------

/// A one-shot consensus object under exploration, as
/// `decide(pid, proposal) -> winner`.
type Decide = Arc<dyn Fn(usize, usize) -> usize + Send + Sync>;

/// Theorem 7 on one hardware word: the proposal itself is CASed in.
fn usize_consensus(_threads: usize) -> Decide {
    let c = UsizeConsensus::new();
    Arc::new(move |_pid, v| c.decide(v))
}

/// Theorem 7 over values: announce in a per-process slot, race on the
/// slot index, read the winner's slot back.
fn consensus_cell(threads: usize) -> Decide {
    let c = ConsensusCell::<usize>::new(threads);
    Arc::new(move |pid, v| c.decide(pid, v))
}

/// Drive one consensus race on a fresh `make(threads)` object (`threads`
/// proposers, proposer `t` proposes `t + 1`) under `strategy`; returns
/// every proposer's returned winner.
fn consensus_race(
    make: fn(usize) -> Decide,
    strategy: waitfree::sched::DfsStrategy,
    threads: usize,
) -> (Vec<usize>, waitfree::sched::RunResult) {
    let results: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let inner = Arc::clone(&results);
    let res = run(strategy, RunOptions::default(), move || {
        let c = make(threads);
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let (c, out) = (Arc::clone(&c), Arc::clone(&inner));
                vthread::spawn(move || {
                    let w = c(t, t + 1);
                    out.lock().unwrap().push(w);
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
    });
    let got = results.lock().unwrap().clone();
    (got, res)
}

#[test]
fn dfs_exhausts_two_thread_consensus() {
    let objects: [fn(usize) -> Decide; 2] = [usize_consensus, consensus_cell];
    for make in objects {
        let mut dfs = Dfs::new(None);
        while let Some(strategy) = dfs.next_schedule() {
            assert!(
                dfs.schedules() <= 10_000,
                "two-thread consensus schedule space blew the cap (ROADMAP: DFS state caps)"
            );
            let (got, res) = consensus_race(make, strategy, 2);
            assert!(res.error.is_none(), "{:?}", res.error);
            assert_eq!(got.len(), 2);
            assert!(got.windows(2).all(|w| w[0] == w[1]), "agreement: {got:?}");
            assert!((1..=2).contains(&got[0]), "validity: {got:?}");
        }
        assert!(dfs.exhausted());
        assert!(
            dfs.schedules() > 1,
            "exhaustive search must explore more than one interleaving"
        );
    }
}

#[test]
fn bounded_dfs_three_thread_consensus_agrees() {
    // Three proposers with a preemption bound of 1; the voluntary
    // (spawn/block/exit) points still branch fully, so cap the sweep —
    // lifting the cap is tracked as a ROADMAP open item.
    const CAP: usize = 5000;
    let mut dfs = Dfs::new(Some(1));
    while let Some(strategy) = dfs.next_schedule() {
        let (got, res) = consensus_race(usize_consensus, strategy, 3);
        assert!(res.error.is_none(), "{:?}", res.error);
        assert_eq!(got.len(), 3);
        assert!(got.windows(2).all(|w| w[0] == w[1]), "agreement: {got:?}");
        assert!((1..=3).contains(&got[0]), "validity: {got:?}");
        if dfs.schedules() >= CAP {
            break;
        }
    }
    assert!(dfs.schedules() > 1);
}

fn universal_one_op_body(rec: HistoryRecorder<Counter>) {
    let handles = register_n(Counter::new(0), 2, UniversalConfig::default()).1;
    let workers: Vec<_> = handles
        .into_iter()
        .map(|mut h| {
            let rec = rec.clone();
            vthread::spawn(move || {
                let pid = Pid(h.tid());
                let op = CounterOp::FetchAndAdd(1 + h.tid() as i64);
                rec.record(pid, op.clone(), || h.invoke(op.clone()));
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
}

#[test]
fn bounded_dfs_universal_single_ops_linearize() {
    // One operation per thread through the pointer-CAS universal object,
    // every schedule with at most one atomic-point preemption. The
    // universal hot path has many atomic steps, so cap the sweep
    // (ROADMAP open item: DFS state caps / partial-order reduction).
    const CAP: usize = 4000;
    let mut dfs = Dfs::new(Some(1));
    let mut runs = 0usize;
    while let Some(strategy) = dfs.next_schedule() {
        runs += 1;
        let checked = run_and_check(
            &Counter::new(0),
            strategy,
            RunOptions::default(),
            universal_one_op_body,
        );
        assert!(
            checked.is_ok(),
            "bounded-DFS schedule {runs} failed; decisions: {:?}",
            checked.run.decisions
        );
        if runs >= CAP {
            break;
        }
    }
    assert!(runs > 1);
}

// ---------------------------------------------------------------------
// The PR 2 hint-ordering bug as a pinned deterministic schedule.
// ---------------------------------------------------------------------

/// PR 2 fixed the log-tail *hint*: it is published with
/// `fetch_max(Release)` and read with `Acquire`, so a thread that starts
/// cold and jumps over the decided prefix is guaranteed to see the entry
/// contents its hint implies. With the original `Relaxed` orderings this
/// exact schedule — one thread completes three operations, then a second
/// thread runs its first operation from a cold start — is the
/// interleaving in which the jumper could act on a hint without the
/// matching entries. The scripted schedule pins the interleaving; the
/// assertions pin both the behavior (responses, decided log) and the
/// orderings in the recorded instruction trace.
/// Run the pinned publisher/jumper script and return the raw run plus
/// the observed responses and decided log. Shared by the shipped-path
/// test and the `mutant-relaxed-hint` regression below, so both judge
/// the *same* interleaving.
fn run_hint_schedule() -> (
    waitfree::sched::RunResult,
    Vec<CounterResp>,
    CounterResp,
    Vec<(usize, usize)>,
) {
    type Out = (Vec<CounterResp>, CounterResp, Vec<(usize, usize)>);
    let out: Arc<Mutex<Option<Out>>> = Arc::new(Mutex::new(None));
    let sink = Arc::clone(&out);
    // Script: always prefer vthread 1 (the publisher); fallbacks run the
    // main thread between the two phases and the jumper at the end.
    let result = run(Script::new(vec![1; 600]), RunOptions::default(), move || {
        let mut handles = register_n(Counter::new(0), 2, UniversalConfig::default()).1;
        let jumper_handle = handles.pop().unwrap(); // tid 1
        let publisher_handle = handles.pop().unwrap(); // tid 0
        let publisher = vthread::spawn(move || {
            let mut h = publisher_handle;
            let resps: Vec<CounterResp> =
                (0..3).map(|_| h.invoke(CounterOp::FetchAndAdd(1))).collect();
            (h, resps)
        });
        let jumper = vthread::spawn(move || {
            let mut h = jumper_handle;
            let resp = h.invoke(CounterOp::FetchAndAdd(1));
            (h, resp)
        });
        let (pub_h, pub_resps) = publisher.join().unwrap();
        let (_jump_h, jump_resp) = jumper.join().unwrap();
        *sink.lock().unwrap() = Some((pub_resps, jump_resp, pub_h.decided_log()));
    });
    assert!(result.error.is_none(), "{:?}", result.error);
    let (pub_resps, jump_resp, log) = out.lock().unwrap().take().unwrap();
    (result, pub_resps, jump_resp, log)
}

#[test]
#[cfg(not(feature = "mutant-relaxed-hint"))]
fn hint_publication_regression_schedule() {
    let (result, pub_resps, jump_resp, log) = run_hint_schedule();
    assert_eq!(
        pub_resps,
        vec![
            CounterResp::Value(0),
            CounterResp::Value(1),
            CounterResp::Value(2)
        ],
        "publisher runs first and sees 0, 1, 2"
    );
    assert_eq!(jump_resp, CounterResp::Value(3), "jumper linearizes last");
    assert_eq!(
        log,
        vec![(0, 0), (0, 1), (0, 2), (1, 0)],
        "decided log: publisher's three ops, then the jumper's"
    );

    // The orderings PR 2 installed, pinned in the instruction trace: the
    // hint is published with fetch_max(Release) and read with Acquire,
    // and no usize-word atomic in this schedule is Relaxed (the segment
    // counter's fetch_add is AcqRel since the ordering audit).
    assert!(
        result
            .ops()
            .any(|e| e.op == AtomicOp::FetchMax && e.ordering == Ordering::Release),
        "hint publication (fetch_max Release) missing from trace"
    );
    assert!(
        result.ops().any(|e| e.atomic == "AtomicUsize"
            && e.op == AtomicOp::Load
            && e.ordering == Ordering::Acquire),
        "hint read (Acquire load) missing from trace"
    );
    assert!(
        !result.ops().any(|e| e.atomic == "AtomicUsize"
            && matches!(
                e.op,
                AtomicOp::Load | AtomicOp::Store | AtomicOp::FetchMax | AtomicOp::FetchAdd
            )
            && e.ordering == Ordering::Relaxed),
        "a Relaxed usize atomic crept back into the hot path"
    );

    // Happens-before verdict: with the shipped orderings, every plain
    // load in this schedule is justified by declared release/acquire
    // edges alone — the SC serialization is not doing hidden work.
    let hb = waitfree::sched::hb_check(&result.trace);
    assert!(
        hb.is_clean(),
        "declared orderings too weak ({} of {} reads unjustified): {}",
        hb.violations.len(),
        hb.reads_checked,
        hb.violations[0]
    );
    assert!(hb.reads_checked > 0, "the schedule judged no loads at all");

    // Contract cross-validation on the same trace: every observed
    // release→acquire edge in this schedule is declared in the pair
    // graph, and the hint edge itself shows up as an *exercised*
    // declared pair — the static contract and the dynamic trace agree
    // about this interleaving in both directions.
    let contract = ordering_contract();
    let hb = waitfree::sched::hb_check_with_contract(&result.trace, Some(contract));
    assert!(
        hb.undeclared.is_empty(),
        "undeclared synchronization edge(s): {}",
        hb.undeclared[0]
    );
    assert!(
        hb.exercised
            .iter()
            .any(|(rel, acq)| rel == "universal.hint_pub" && acq.contains("universal/")),
        "the pinned schedule must exercise the declared hint pair; got {:?}",
        hb.exercised
    );
}

/// The dynamic half of the `mutant-unpaired-acquire` gate: the mutant
/// compiles the *identical* instruction stream as the shipped code (an
/// `Acquire` hint load), but its annotation declares the wrong pair
/// (`universal.hint_stale`, a label no site defines). The static pass
/// pins the dangling label (tests/contract.rs); here the *observed*
/// hint edge resolves to the mutant's declaration, whose `pairs:` list
/// does not contain the releasing site's label — so the cross-check
/// must flag the edge as undeclared synchronization under the very
/// schedule that passes clean on the shipped annotations.
#[test]
#[cfg(feature = "mutant-unpaired-acquire")]
fn mutant_unpaired_acquire_is_flagged_by_the_contract_check() {
    let (result, _pub_resps, jump_resp, _log) = run_hint_schedule();
    // The executed code is untouched by the mutant: behavior matches
    // the shipped run, and the plain happens-before pass (no contract)
    // stays clean. Only the contract cross-check can see the lie.
    assert_eq!(jump_resp, CounterResp::Value(3), "jumper linearizes last");
    let plain = waitfree::sched::hb_check(&result.trace);
    assert!(plain.is_clean(), "mutant must not change executed orderings");

    let contract = ordering_contract();
    let hb = waitfree::sched::hb_check_with_contract(&result.trace, Some(contract));
    assert!(
        hb.undeclared
            .iter()
            .any(|e| e.to_string().contains("universal.hint_pub")),
        "contract check failed to flag the mis-declared hint edge; \
         undeclared: {:?}, exercised: {:?}",
        hb.undeclared,
        hb.exercised
    );
}

/// The PR 2 bug, resurrected behind `--features mutant-relaxed-hint`
/// (`publish_hint` downgraded to `fetch_max(Relaxed)`), must be flagged
/// by the happens-before checker under the very same scripted schedule
/// that passes clean on the shipped code. This proves the checker
/// catches the bug *class* mechanically, not just that the current
/// orderings happen to look right.
#[test]
#[cfg(feature = "mutant-relaxed-hint")]
fn mutant_relaxed_hint_is_flagged_by_the_hb_checker() {
    let (result, _pub_resps, _jump_resp, _log) = run_hint_schedule();

    // The mutant really is in play: the hint publish lost its Release.
    assert!(
        result
            .ops()
            .any(|e| e.op == AtomicOp::FetchMax && e.ordering == Ordering::Relaxed),
        "mutant not active — fetch_max(Relaxed) missing from trace"
    );

    // Under the scheduler's SC interleaving the run still *behaves*
    // (responses and the decided log are checked by the shipped test);
    // only the happens-before pass can see the missing edge.
    let hb = waitfree::sched::hb_check(&result.trace);
    assert!(
        !hb.is_clean(),
        "HB checker failed to flag the Relaxed hint publication \
         ({} reads judged, none unjustified)",
        hb.reads_checked
    );
}

// ---------------------------------------------------------------------
// Recycled announce entries (the ABA pinned) and the RMW diet as counts.
// ---------------------------------------------------------------------

/// A schedule in phases: run `plan[i].0` until it *arrives at* its
/// `plan[i].1`-th atomic operation (so it has executed one fewer) or
/// stops being runnable, then move to the next phase; past the plan,
/// the `Script` fallback (current thread, else lowest runnable). Arrival
/// counts are per virtual thread over the whole run, which makes a
/// parking point "after this thread's n-th atomic op" — a place in the
/// thread's own program, independent of what the others did meanwhile.
struct Phases {
    plan: Vec<(usize, usize)>,
    phase: usize,
    arrived: Vec<usize>,
}

impl Phases {
    fn new(plan: Vec<(usize, usize)>) -> Self {
        Phases { plan, phase: 0, arrived: Vec::new() }
    }
}

impl Strategy for Phases {
    fn choose(&mut self, c: &Choice<'_>) -> usize {
        if c.kind == PointKind::Atomic {
            if self.arrived.len() <= c.current {
                self.arrived.resize(c.current + 1, 0);
            }
            self.arrived[c.current] += 1;
        }
        while let Some(&(vtid, limit)) = self.plan.get(self.phase) {
            let arrived = self.arrived.get(vtid).copied().unwrap_or(0);
            if arrived < limit && c.runnable.contains(&vtid) {
                return vtid;
            }
            self.phase += 1;
        }
        if c.runnable.contains(&c.current) {
            c.current
        } else {
            c.runnable[0]
        }
    }

    fn describe(&self) -> String {
        format!("phases({:?})", self.plan)
    }
}

/// Virtual thread ids in [`recycled_entry_run`]: the body, then the two
/// spawned clients in spawn order.
const OWNER: usize = 1;
const HELPER: usize = 2;
const UNTIL_PARKED: usize = usize::MAX;

/// Owner (registry slot 0) performs `owner_ops` fetch-and-adds, helper
/// (slot 1) one, under `plan`; returns the checked run and the decided
/// log read back by the owner's handle.
fn recycled_entry_run(
    owner_ops: usize,
    plan: Vec<(usize, usize)>,
) -> (waitfree::sched::CheckedRun<Counter>, Vec<(usize, usize)>) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&log);
    let checked = run_and_check_with(
        &Counter::new(0),
        Phases::new(plan),
        RunOptions::default(),
        Some(ordering_contract()),
        move |rec: HistoryRecorder<Counter>| {
            let mut handles = register_n(Counter::new(0), 2, UniversalConfig::default()).1;
            let helper_handle = handles.pop().unwrap();
            let owner_handle = handles.pop().unwrap();
            let owner = {
                let rec = rec.clone();
                vthread::spawn(move || {
                    let mut h = owner_handle;
                    for _ in 0..owner_ops {
                        let op = CounterOp::FetchAndAdd(1);
                        rec.record(Pid(h.tid()), op.clone(), || h.invoke(op.clone()));
                    }
                    h
                })
            };
            let helper = vthread::spawn(move || {
                let mut h = helper_handle;
                let op = CounterOp::FetchAndAdd(1000);
                rec.record(Pid(h.tid()), op.clone(), || h.invoke(op.clone()));
            });
            let owner_handle = owner.join().unwrap();
            helper.join().unwrap();
            *sink.lock().unwrap() = owner_handle.decided_log();
        },
    );
    let log = log.lock().unwrap().clone();
    (checked, log)
}

/// The atomic ops one virtual thread executed, in its program order,
/// each with its index in the whole trace.
fn ops_of(run: &waitfree::sched::RunResult, vtid: usize) -> Vec<(usize, &waitfree::sched::OpEvent)> {
    run.trace
        .iter()
        .enumerate()
        .filter_map(|(i, e)| e.as_op().filter(|op| op.vtid == vtid).map(|op| (i, op)))
        .collect()
}

/// The recycled-entry ABA, pinned. A helper is parked inside
/// `Shared::pending` between its load of the owner's announce cell and
/// the publication of its hazard — holding a bare address nothing
/// protects — while the owner completes `owner_ops` further invokes, so
/// the entry at that address is displaced, swept to the owner's free
/// list (no hazard covers it), overwritten in place and *re-announced*.
/// Resumed, the helper publishes the stale address and re-validates the
/// cell; when the address is the cell's current entry again (with the
/// present LIFO free list: `owner_ops == 2 * ENTRY_LIMBO_SWEEP + 1`)
/// validation *succeeds* on a different operation, and the `seq == done`
/// check against the helper's long-stale `done` reading must reject it.
/// Sweeping `owner_ops` over three sweep cadences covers that schedule
/// whatever order the free list hands entries back in, plus every
/// "validation fails" neighbour. On each: Wing–Gong verdict clean,
/// happens-before and contract clean, and the decided log is the
/// owner's ops in sequence order with the helper's single op — no
/// duplicate first occurrences, nothing fabricated from a recycled
/// entry.
#[test]
fn helper_parked_across_entry_recycling_skips_or_helps_the_current_entry() {
    /// `ENTRY_LIMBO_SWEEP` in `universal/decide.rs` (private).
    const SWEEP: usize = 8;
    let everyone_in_turn = vec![(0, UNTIL_PARKED), (OWNER, UNTIL_PARKED), (HELPER, UNTIL_PARKED)];

    // Where to park. Both places are found in probe runs by the shape of
    // the thread's own op sequence, not by line number: the owner right
    // after its first `announced` store (the usize store that follows
    // the announce-cell store), the helper right after a pointer load
    // whose next op is a pointer store to a *different* word (cell load,
    // then hazard publish; the announce path's load/store pair hits one
    // word).
    let (probe, _) = recycled_entry_run(1, everyone_in_turn);
    assert!(probe.is_ok());
    let owner_ops = ops_of(&probe.run, OWNER);
    let announced = owner_ops
        .windows(2)
        .position(|w| {
            w[0].1.atomic == "AtomicPtr"
                && w[0].1.op == AtomicOp::Store
                && w[1].1.atomic == "AtomicUsize"
                && w[1].1.op == AtomicOp::Store
        })
        .expect("the owner's first invoke announces")
        + 1;
    let owner_parks_at = announced + 2;
    let probe_plan = vec![
        (0, UNTIL_PARKED),
        (OWNER, owner_parks_at),
        (HELPER, UNTIL_PARKED),
        (OWNER, UNTIL_PARKED),
    ];
    let (probe, _) = recycled_entry_run(1, probe_plan);
    assert!(probe.is_ok());
    let is_cell_load_then_hazard_store = |w: &[(usize, &waitfree::sched::OpEvent)]| {
        w[0].1.atomic == "AtomicPtr"
            && w[0].1.op == AtomicOp::Load
            && w[1].1.atomic == "AtomicPtr"
            && w[1].1.op == AtomicOp::Store
            && w[0].1.loc != w[1].1.loc
    };
    let helper_ops = ops_of(&probe.run, HELPER);
    let cell_load = helper_ops
        .windows(2)
        .position(is_cell_load_then_hazard_store)
        .expect("the helper's collect scan finds the owner's announced entry pending");
    let helper_parks_at = cell_load + 2;

    for owner_ops in 2..=3 * SWEEP + 2 {
        let plan = vec![
            (0, UNTIL_PARKED),
            (OWNER, owner_parks_at),
            (HELPER, helper_parks_at),
            (OWNER, UNTIL_PARKED),
            (HELPER, UNTIL_PARKED),
        ];
        let (checked, log) = recycled_entry_run(owner_ops, plan);
        assert!(checked.run.error.is_none(), "{owner_ops} owner ops: {:?}", checked.run.error);
        assert!(
            checked.report.outcome.is_ok(),
            "{owner_ops} owner ops: history does not linearize: {:?}",
            checked.report.outcome
        );
        assert!(
            checked.hb.is_clean() && checked.hb.undeclared.is_empty(),
            "{owner_ops} owner ops: happens-before verdict: {:?} / {:?}",
            checked.hb.violations.first(),
            checked.hb.undeclared.first()
        );

        // The schedule really parked the helper in the window, for the
        // whole of the owner's run: every owner decide falls between
        // the helper's cell load and its hazard publish.
        let helper_ops = ops_of(&checked.run, HELPER);
        let w = &helper_ops[cell_load..cell_load + 2];
        assert!(is_cell_load_then_hazard_store(w), "{owner_ops} owner ops: parked elsewhere");
        let owner_decides: Vec<usize> = ops_of(&checked.run, OWNER)
            .into_iter()
            .filter(|(_, op)| op.cas_success == Some(true))
            .map(|(i, _)| i)
            .collect();
        assert!(owner_decides.len() >= owner_ops);
        assert!(
            owner_decides.iter().all(|&i| w[0].0 < i && i < w[1].0),
            "{owner_ops} owner ops: the owner ran outside the helper's window"
        );

        // Whatever the helper found at the address — a mismatch, or the
        // cell's current entry on a later op — it fabricated nothing:
        // first occurrences are the owner's ops in order plus its own.
        let mut firsts: Vec<(usize, usize)> = Vec::new();
        for m in log {
            if !firsts.contains(&m) {
                firsts.push(m);
            }
        }
        let owner_seqs: Vec<usize> =
            firsts.iter().filter(|m| m.0 == 0).map(|m| m.1).collect();
        assert_eq!(owner_seqs, (0..owner_ops).collect::<Vec<_>>(), "{owner_ops} owner ops");
        assert_eq!(firsts.iter().filter(|m| m.0 == 1).count(), 1, "{owner_ops} owner ops");
        assert_eq!(firsts.len(), owner_ops + 1, "{owner_ops} owner ops");
    }
}

/// The RMW diet as a count that cannot drift back. One handle, nobody
/// else registered; the measured invoke sits off a segment boundary and
/// there is no checkpoint cadence. Its stores and RMWs are exactly the
/// protocol's: announce cell, `announced`, the decide CAS, `done`, one
/// `hint` advance, the frontier — six, where re-publishing an unmoved
/// hint twice more made eight. A read on the caught-up handle that
/// follows writes nothing at all (it used to re-store its frontier),
/// and neither do the object's and the handle's `stats()` snapshots.
#[test]
fn solo_invoke_writes_six_words_and_a_caught_up_read_none() {
    let fence_post = Arc::new(AtomicI64::new(0));
    let post = Arc::clone(&fence_post);
    let result = run(Script::new(Vec::new()), RunOptions::default(), move || {
        let obj = WfUniversal::with_config(Counter::new(0), UniversalConfig::default());
        let mut h = obj.register();
        for _ in 0..3 {
            h.invoke(CounterOp::Add(1));
        }
        post.store(1, Ordering::SeqCst);
        h.invoke(CounterOp::Add(1));
        post.store(2, Ordering::SeqCst);
        assert_eq!(h.read(Counter::value), 4);
        post.store(3, Ordering::SeqCst);
        assert_eq!((obj.stats().checkpoints, h.stats().invokes), (0, 4));
        post.store(4, Ordering::SeqCst);
    });
    assert!(result.error.is_none(), "{:?}", result.error);
    // The fence posts are the only `AtomicI64` ops in the run.
    let ops: Vec<_> = result.ops().collect();
    let posts: Vec<usize> = ops
        .iter()
        .enumerate()
        .filter(|(_, e)| e.atomic == "AtomicI64")
        .map(|(i, _)| i)
        .collect();
    assert_eq!(posts.len(), 4);
    let writes = |from: usize, to: usize| {
        ops[from + 1..to].iter().filter(|e| e.op != AtomicOp::Load).count()
    };
    let invoke = &ops[posts[0] + 1..posts[1]];
    assert!(invoke.iter().any(|e| e.cas_success == Some(true)), "the invoke decided");
    assert!(
        writes(posts[0], posts[1]) <= 6,
        "a solo invoke stores/RMWs more than its six protocol words: {:#?}",
        invoke.iter().filter(|e| e.op != AtomicOp::Load).collect::<Vec<_>>()
    );
    assert!(posts[2] > posts[1] + 1, "the read loaded the hint");
    assert_eq!(
        writes(posts[1], posts[2]),
        0,
        "a read that found nothing new wrote to shared memory: {:#?}",
        ops[posts[1] + 1..posts[2]].iter().filter(|e| e.op != AtomicOp::Load).collect::<Vec<_>>()
    );
    assert!(posts[3] > posts[2] + 1, "the object's stats loaded its counters");
    assert_eq!(writes(posts[2], posts[3]), 0, "a stats() snapshot wrote to shared memory");
}

/// A `stats()` observer parked after its first counter load while a
/// writer runs six segments of invokes at checkpoint cadence 8, so
/// segments are installed and reclaimed in between. Loading `installed`
/// first read 1, then 6 reclaimed, and `live_segments` underflowed.
#[test]
fn stats_observer_parked_across_reclamation_sees_live_at_most_installed() {
    let seen = Arc::new(Mutex::new(None));
    let sink = Arc::clone(&seen);
    // vthreads: the body, the observer, the writer.
    let plan = vec![(0, UNTIL_PARKED), (1, 2), (2, UNTIL_PARKED)];
    let result = run(Phases::new(plan), RunOptions::default(), move || {
        let obj = WfUniversal::with_config(Counter::new(0), checkpointed(8));
        let mut h = obj.register();
        let observer = vthread::spawn({
            let obj = obj.clone();
            move || obj.stats()
        });
        let writer = vthread::spawn(move || {
            for _ in 0..6 * SEGMENT_SIZE {
                h.invoke(CounterOp::Add(1));
            }
        });
        let parked = observer.join().unwrap();
        writer.join().unwrap();
        *sink.lock().unwrap() = Some((parked, obj.stats()));
    });
    assert!(result.error.is_none(), "{:?}", result.error);
    let (parked, after) = seen.lock().unwrap().expect("the run completed");
    assert!(parked.reclaimed_segments < after.reclaimed_segments, "not parked across reclamation: {after:?}");
    assert!(parked.live_segments <= parked.installed_segments, "more live than installed: {parked:?}");
}

// ---------------------------------------------------------------------
// Composition with the failpoint layer (feature `failpoints` on top).
// ---------------------------------------------------------------------

#[cfg(feature = "failpoints")]
mod with_failpoints {
    use super::*;
    use waitfree::faults::failpoints::{self, FailpointConfig, FaultAction};
    use waitfree::sched::RandomWalk;

    fn crash_aware_body(rec: HistoryRecorder<Counter>) {
        let handles = register_n(Counter::new(0), 2, UniversalConfig::default()).1;
        let workers: Vec<_> = handles
            .into_iter()
            .map(|mut h| {
                let rec = rec.clone();
                vthread::spawn(move || {
                    failpoints::set_tid(h.tid());
                    let pid = Pid(h.tid());
                    for i in 0..2 {
                        let op = CounterOp::FetchAndAdd((10 * h.tid() + i + 1) as i64);
                        rec.record(pid, op.clone(), || h.invoke(op.clone()));
                    }
                })
            })
            .collect();
        for w in workers {
            // The crashed vthread's join returns the crash signal.
            let _ = w.join();
        }
    }

    #[test]
    fn injected_crash_composes_with_deterministic_schedule() {
        let _guard = failpoints::exclusive();
        failpoints::clear();
        failpoints::configure(
            "universal::cas",
            FailpointConfig::once_for(FaultAction::Crash, 1, 1),
        );
        let checked = run_and_check(
            &Counter::new(0),
            RandomWalk::new(42),
            RunOptions::default(),
            crash_aware_body,
        );
        failpoints::clear();

        assert!(checked.run.error.is_none(), "{:?}", checked.run.error);
        assert_eq!(
            checked.run.crashed.len(),
            1,
            "exactly one vthread crashed: {:?}",
            checked.run.crashed
        );
        assert!(
            checked.history.has_pending(Pid(1)),
            "the op interrupted by the crash stays pending"
        );
        assert!(
            checked.report.outcome.is_ok(),
            "a pending crashed op linearizes under MayTakeEffect"
        );
    }

    fn churn_crash_body(rec: HistoryRecorder<Counter>) {
        let obj = WfUniversal::with_config(Counter::new(0), UniversalConfig::default());
        let workers: Vec<_> = (0..2)
            .map(|t| {
                let (obj, rec) = (obj.clone(), rec.clone());
                vthread::spawn(move || {
                    failpoints::set_tid(t);
                    let pid = Pid(t);
                    for gen in 0..2 {
                        let mut h = obj.register();
                        let op = CounterOp::FetchAndAdd((100 * t + 10 * gen + 1) as i64);
                        rec.record(pid, op.clone(), || h.invoke(op.clone()));
                        h.retire();
                    }
                })
            })
            .collect();
        for w in workers {
            // The crashed vthread's join returns the crash signal.
            let _ = w.join();
        }
    }

    /// Crash-mid-retirement under a deterministic schedule: the victim
    /// dies inside `retire()` — after its generation's operation
    /// completed, after the slot went `RETIRED`, before reclamation.
    /// Nothing is left pending, so the history must linearize outright,
    /// and the survivor's remaining generations complete wait-free.
    #[test]
    fn injected_crash_mid_retirement_composes_with_deterministic_schedule() {
        let _guard = failpoints::exclusive();
        failpoints::clear();
        failpoints::configure(
            "universal::retire",
            FailpointConfig::once_for(FaultAction::Crash, 1, 1),
        );
        let checked = run_and_check(
            &Counter::new(0),
            RandomWalk::new(7),
            RunOptions::default(),
            churn_crash_body,
        );
        failpoints::clear();

        assert!(checked.run.error.is_none(), "{:?}", checked.run.error);
        assert_eq!(
            checked.run.crashed.len(),
            1,
            "exactly one vthread crashed mid-retirement: {:?}",
            checked.run.crashed
        );
        assert!(
            !checked.history.has_pending(Pid(1)),
            "a retire-site crash interrupts no operation"
        );
        assert!(
            checked.report.outcome.is_ok(),
            "survivor + crashed-mid-retirement history must linearize"
        );
    }

    #[test]
    fn injected_yields_are_deterministic_schedule_points() {
        let _guard = failpoints::exclusive();
        let run_once = || {
            failpoints::clear();
            // Filtered to worker 1's harness tid: the registry is
            // process-global, and the campaigns running on the test
            // harness's other threads (no tid set) pass the same site —
            // unfiltered, their hits land in `fires` too.
            failpoints::configure(
                "universal::cas",
                FailpointConfig { tid: Some(1), ..FailpointConfig::always(FaultAction::Yield) },
            );
            let checked = run_and_check(
                &Counter::new(0),
                RandomWalk::new(9),
                RunOptions::default(),
                crash_aware_body,
            );
            let fired = failpoints::fires("universal::cas");
            failpoints::clear();
            (checked, fired)
        };
        let (a, fired_a) = run_once();
        let (b, fired_b) = run_once();

        assert!(fired_a > 0, "the yield failpoint never fired");
        assert_eq!(fired_a, fired_b, "fault injection itself is deterministic");
        assert!(a.is_ok() && b.is_ok());
        assert_eq!(
            a.run.decisions, b.run.decisions,
            "same seed + same faults => the same schedule, bit for bit"
        );
        assert_eq!(
            format!("{:?}", a.history),
            format!("{:?}", b.history),
            "and the same recorded history"
        );
    }
}

// ---------------------------------------------------------------------
// Sharded store campaigns (`waitfree-store`): histories recorded at the
// *store API* granularity against the flat-map [`StoreModel`]. Each
// multi-key op internally spans several shard logs (prepare/resolve in
// canonical order) and each snapshot decides a marker per shard, so a
// torn multi-op or an inconsistent cut shows up as a non-linearizable
// whole-store history — not just as a bespoke assertion.
// ---------------------------------------------------------------------

fn store_mixed_body(rec: HistoryRecorder<StoreModel<u64, i64, Bump>>) {
    let store: ShardedStore<u64, i64, Bump> = ShardedStore::new(&StoreConfig {
        shards: 4,
        ops_per_handle: 64,
        ..StoreConfig::default()
    });
    let workers: Vec<_> = (0..2usize)
        .map(|t| {
            let rec = rec.clone();
            let store = store.clone();
            vthread::spawn(move || {
                let mut h = store.handle();
                let pid = Pid(t);
                if t == 0 {
                    rec.record(pid, StoreOp::Put(1, 10), || {
                        StoreResp::Prev(h.put(1, 10))
                    });
                    let writes: BTreeMap<u64, Option<i64>> =
                        [(1, Some(11)), (2, Some(22))].into_iter().collect();
                    rec.record(pid, StoreOp::MultiPut(writes.clone()), || {
                        h.multi_put(writes.clone());
                        StoreResp::Done(true)
                    });
                    rec.record(pid, StoreOp::Snapshot, || {
                        StoreResp::Snap(h.snapshot().map)
                    });
                    rec.record(pid, StoreOp::Get(2), || StoreResp::Value(h.get(&2)));
                    // The decided read path stays campaigned alongside
                    // the log-free one.
                    rec.record(pid, StoreOp::Get(3), || {
                        StoreResp::Value(h.get_decided(&3))
                    });
                } else {
                    rec.record(
                        pid,
                        StoreOp::Cas { key: 2, expect: None, new: Some(20) },
                        || {
                            let (ok, prev) = h.cas(2, None, Some(20));
                            StoreResp::Cas { ok, prev }
                        },
                    );
                    let expects: BTreeMap<u64, Option<i64>> =
                        [(1, Some(10))].into_iter().collect();
                    let writes: BTreeMap<u64, Option<i64>> =
                        [(2, Some(-2)), (3, Some(33))].into_iter().collect();
                    rec.record(
                        pid,
                        StoreOp::MultiCas { expects: expects.clone(), writes: writes.clone() },
                        || {
                            StoreResp::Done(
                                h.multi_cas(expects.clone(), writes.clone()),
                            )
                        },
                    );
                    rec.record(pid, StoreOp::Update(3, Bump(5)), || {
                        StoreResp::Prev(h.fetch_update(3, Bump(5)))
                    });
                    // A log-free read racing the other thread's
                    // multi_put on key 1: the reader may observe the
                    // lock at its frontier and help.
                    rec.record(pid, StoreOp::Get(1), || StoreResp::Value(h.get(&1)));
                    rec.record(pid, StoreOp::Snapshot, || {
                        StoreResp::Snap(h.snapshot().map)
                    });
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
}

/// Acceptance: mixed single-key, multi-key, and snapshot traffic over a
/// 4-shard store linearizes against the atomic flat-map model under
/// both strategy families (1000 seeds each). The two threads' multi-ops
/// overlap on keys 1–3, so helping (one thread completing the other's
/// prepared multi) is on the explored paths — and both read paths are
/// in the mix: the log-free `get` (each thread reads a key the *other*
/// thread multi-puts, so frontier-observed locks and read-side helping
/// are explored) and the decided `get_decided`.
#[test]
fn sharded_store_mixed_ops_linearize() {
    sweep("4-shard store", &StoreModel::new(), store_mixed_body);
}

/// Acceptance: under 1000 random-walk schedules with a writer
/// multi-putting the *same* round number to keys 1, 2 and 3 (routed to
/// different shards), every concurrently-taken snapshot sees the three
/// keys equal — zero torn multi-ops in any cut — and every schedule's
/// trace passes the happens-before audit (the snapshot protocol's
/// orderings justify all plain loads on their own).
#[test]
fn store_snapshots_are_never_torn_and_hb_clean() {
    let mut snaps_total = 0usize;
    for seed in 0..SEEDS {
        let snaps: Arc<Mutex<Vec<BTreeMap<u64, i64>>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&snaps);
        let res = run(
            waitfree::sched::RandomWalk::new(seed),
            RunOptions::default(),
            move || {
                let store: ShardedStore<u64, i64> = ShardedStore::new(&StoreConfig {
                    shards: 4,
                    ops_per_handle: 64,
                    ..StoreConfig::default()
                });
                let writer = {
                    let store = store.clone();
                    vthread::spawn(move || {
                        let mut h = store.handle();
                        for round in 1..=2i64 {
                            h.multi_put([
                                (1, Some(round)),
                                (2, Some(round)),
                                (3, Some(round)),
                            ]);
                        }
                        h.retire();
                    })
                };
                let snapper = {
                    let store = store.clone();
                    vthread::spawn(move || {
                        let mut h = store.handle();
                        for _ in 0..2 {
                            sink.lock().unwrap().push(h.snapshot().map);
                        }
                        h.retire();
                    })
                };
                writer.join().unwrap();
                snapper.join().unwrap();
            },
        );
        assert!(res.error.is_none(), "seed {seed}: {:?}", res.error);
        let hb = waitfree::sched::hb_check(&res.trace);
        assert!(
            hb.is_clean(),
            "seed {seed}: snapshot orderings too weak \
             ({} of {} reads unjustified): {}",
            hb.violations.len(),
            hb.reads_checked,
            hb.violations[0]
        );
        assert!(hb.reads_checked > 0, "seed {seed}: no loads judged");
        for snap in snaps.lock().unwrap().iter() {
            let vals: Vec<Option<i64>> =
                [1u64, 2, 3].iter().map(|k| snap.get(k).copied()).collect();
            assert!(
                vals.windows(2).all(|w| w[0] == w[1]),
                "seed {seed}: torn snapshot — keys 1..3 diverge: {snap:?}"
            );
            snaps_total += 1;
        }
    }
    assert!(snaps_total >= SEEDS as usize, "campaign took too few snapshots");
}

/// Two keys on distinct shards, the lower shard's key first.
fn keys_on_two_shards(store: &ShardedStore<u64, i64>) -> (u64, u64) {
    let a = 0u64;
    let b = (1..)
        .find(|k| store.shard_of(k) != store.shard_of(&a))
        .expect("4 shards hold more than one shard's worth of keys");
    if store.shard_of(&a) < store.shard_of(&b) {
        (a, b)
    } else {
        (b, a)
    }
}

/// Acceptance (review regression): one thread reading both keys of a
/// concurrently committing two-shard `multi_put` through the *decided*
/// read path must never observe it half-applied. The writer multi-puts
/// ascending round numbers to two keys on different shards; the reader
/// reads the key on the *lower* shard first. Resolves land in
/// ascending shard order, so a read that ignored multi-op locks could
/// read the new round off the low shard after its resolve and the old
/// round off the high shard before its resolve — a strictly decreasing
/// pair of sequential reads, which no linearization of the atomic
/// flat-map model allows. Reads helping past the lock (like every
/// mutator) closes exactly this window. See
/// `store_local_get_never_observes_a_half_applied_multi` for the same
/// schedule shape on the log-free path.
#[test]
fn store_get_never_observes_a_half_applied_multi() {
    for seed in 0..SEEDS {
        let res = run(
            waitfree::sched::RandomWalk::new(seed),
            RunOptions::default(),
            move || {
                let store: ShardedStore<u64, i64> = ShardedStore::new(&StoreConfig {
                    shards: 4,
                    ops_per_handle: 64,
                    ..StoreConfig::default()
                });
                // The vulnerable read order is lower-shard key first.
                let (lo, hi) = keys_on_two_shards(&store);
                let writer = {
                    let store = store.clone();
                    vthread::spawn(move || {
                        let mut h = store.handle();
                        for round in 1..=2i64 {
                            h.multi_put([(lo, Some(round)), (hi, Some(round))]);
                        }
                        h.retire();
                    })
                };
                let reader = {
                    let store = store.clone();
                    vthread::spawn(move || {
                        let mut h = store.handle();
                        for _ in 0..2 {
                            let a = h.get_decided(&lo).unwrap_or(0);
                            let b = h.get_decided(&hi).unwrap_or(0);
                            assert!(
                                b >= a,
                                "seed {seed}: half-applied multi observed — \
                                 key {lo} (low shard) read round {a}, then \
                                 key {hi} (high shard) read round {b}"
                            );
                        }
                        h.retire();
                    })
                };
                writer.join().unwrap();
                reader.join().unwrap();
            },
        );
        assert!(res.error.is_none(), "seed {seed}: {:?}", res.error);
    }
}

/// Acceptance: the PR 8 half-applied-multi regression, replayed against
/// the **log-free** read path. The schedule shape is identical to
/// `store_get_never_observes_a_half_applied_multi`, but the reader uses
/// the replica fast path (`get`, and `multi_get` on alternate rounds) —
/// no log entry is decided for any read, so the only thing standing
/// between the reader and a torn observation is the frontier argument
/// of DESIGN §11: a frontier that shows the low shard's resolve must
/// show the high shard's prepare, whose lock blocks the read into
/// helping. Every schedule's trace additionally passes the
/// happens-before audit, so the Acquire frontier load's justification
/// is machine-checked, not just argued.
#[test]
fn store_local_get_never_observes_a_half_applied_multi() {
    for seed in 0..SEEDS {
        let res = run(
            waitfree::sched::RandomWalk::new(seed),
            RunOptions::default(),
            move || {
                let store: ShardedStore<u64, i64> = ShardedStore::new(&StoreConfig {
                    shards: 4,
                    ops_per_handle: 64,
                    ..StoreConfig::default()
                });
                let (lo, hi) = keys_on_two_shards(&store);
                let writer = {
                    let store = store.clone();
                    vthread::spawn(move || {
                        let mut h = store.handle();
                        for round in 1..=2i64 {
                            h.multi_put([(lo, Some(round)), (hi, Some(round))]);
                        }
                        h.retire();
                    })
                };
                let reader = {
                    let store = store.clone();
                    vthread::spawn(move || {
                        let mut h = store.handle();
                        for i in 0..2 {
                            let (a, b) = if i == 0 {
                                (h.get(&lo).unwrap_or(0), h.get(&hi).unwrap_or(0))
                            } else {
                                let vs = h.multi_get(&[lo, hi]);
                                (vs[0].unwrap_or(0), vs[1].unwrap_or(0))
                            };
                            assert!(
                                b >= a,
                                "seed {seed}: half-applied multi observed on the \
                                 log-free path — key {lo} (low shard) read round \
                                 {a}, then key {hi} (high shard) read round {b}"
                            );
                        }
                        h.retire();
                    })
                };
                writer.join().unwrap();
                reader.join().unwrap();
            },
        );
        assert!(res.error.is_none(), "seed {seed}: {:?}", res.error);
        let hb = waitfree::sched::hb_check(&res.trace);
        assert!(
            hb.is_clean(),
            "seed {seed}: local-read orderings too weak \
             ({} of {} reads unjustified): {}",
            hb.violations.len(),
            hb.reads_checked,
            hb.violations[0]
        );
    }
}

// ---------------------------------------------------------------------
// Per-originator tombstones: a helper that sleeps through its multi-op's
// completion and the originator's next ones gets `Stale`, not a lock.
// ---------------------------------------------------------------------

#[cfg(feature = "failpoints")]
mod store_stale_helper {
    use super::*;
    use waitfree::faults::failpoints::{self, FailpointConfig, FaultAction};
    use waitfree::sched::atomic::diag::{AtomicUsize, Ordering};
    use waitfree::sched::{run_and_check_with, Choice, Pct, RandomWalk, Strategy};

    /// vtid (spawn order) and failpoint tid of the helper thread.
    const HELPER: usize = 1;
    /// Two-shard multi-puts the originator runs.
    const ROUNDS: usize = 5;
    /// Multi-ops the originator completes while the helper is parked:
    /// the one the helper holds (at most) and two later ones.
    const SLEPT_THROUGH: usize = 3;

    /// Schedules like `inner`, except that the helper — from its `k`-th
    /// step of helping a multi-op (the `store::multi` yield configured
    /// by [`campaign`] fired) — is parked until the originator has
    /// completed `SLEPT_THROUGH` more multi-ops (`resume_racing`), or
    /// has exited.
    struct Parking<S> {
        inner: S,
        resume_racing: bool,
        /// Multi-ops the originator has completed (the body counts).
        completed: Arc<AtomicUsize>,
        /// `completed` when the helper parked.
        parked_at: Option<usize>,
        resumed: bool,
        /// Runs whose helper slept through `SLEPT_THROUGH` completions.
        slept: Arc<AtomicUsize>,
    }

    impl<S: Strategy> Strategy for Parking<S> {
        fn choose(&mut self, c: &Choice<'_>) -> usize {
            if self.resumed || failpoints::fires("store::multi") == 0 {
                return self.inner.choose(c);
            }
            let done = self.completed.load(Ordering::SeqCst);
            let slept_through = done >= *self.parked_at.get_or_insert(done) + SLEPT_THROUGH;
            let others: Vec<usize> = c.runnable.iter().copied().filter(|&t| t != HELPER).collect();
            if others.is_empty() || (self.resume_racing && slept_through) {
                self.resumed = true;
                self.slept.fetch_add(usize::from(slept_through), Ordering::SeqCst);
                return self.inner.choose(c);
            }
            self.inner.choose(&Choice { runnable: &others, ..*c })
        }

        fn describe(&self) -> String {
            format!("parking({})", self.inner.describe())
        }
    }

    /// The originator multi-puts ascending rounds to two keys on
    /// different shards; the helper reads (`reader`) or writes the
    /// higher shard's key, so it trips over the originator's lock there
    /// and starts helping at the lower shard.
    fn body(rec: HistoryRecorder<StoreModel<u64, i64>>, reader: bool, completed: Arc<AtomicUsize>) {
        let store: ShardedStore<u64, i64> =
            ShardedStore::new(&StoreConfig { shards: 4, ..StoreConfig::default() });
        let (lo, hi) = keys_on_two_shards(&store);
        let helper = {
            let (store, rec) = (store.clone(), rec.clone());
            vthread::spawn(move || {
                failpoints::set_tid(HELPER);
                let mut h = store.handle();
                let pid = Pid(HELPER);
                for i in 0..3 {
                    if reader {
                        rec.record(pid, StoreOp::Get(hi), || StoreResp::Value(h.get(&hi)));
                        rec.record(pid, StoreOp::Get(lo), || StoreResp::Value(h.get(&lo)));
                    } else {
                        rec.record(pid, StoreOp::Put(hi, 100 + i), || StoreResp::Prev(h.put(hi, 100 + i)));
                    }
                }
                h.retire();
            })
        };
        let originator = vthread::spawn(move || {
            let mut h = store.handle();
            for round in 1..=ROUNDS as i64 {
                let writes: BTreeMap<u64, Option<i64>> = [(lo, Some(round)), (hi, Some(round))].into_iter().collect();
                rec.record(Pid(HELPER + 1), StoreOp::MultiPut(writes.clone()), || {
                    h.multi_put(writes.clone());
                    StoreResp::Done(true)
                });
                completed.fetch_add(1, Ordering::SeqCst);
            }
            h.retire();
        });
        helper.join().unwrap();
        originator.join().unwrap();
    }

    /// 1000 RandomWalk + 1000 PCT schedules, each judged for
    /// linearizability, happens-before cleanliness and the ordering
    /// contract. Returns how many parked the helper through
    /// `SLEPT_THROUGH` completions — the runs whose helper resumes as a
    /// straggler for a superseded id (a third of them, by park point,
    /// with a prepare still to send: the `Stale` answer; the rest with
    /// only no-op resolves).
    fn campaign(reader: bool) -> usize {
        let slept = Arc::new(AtomicUsize::new(0));
        for pct in [false, true] {
            for seed in 0..SEEDS {
                failpoints::clear();
                // Park at the helper's first, second or third step: on
                // entry, between its prepares, or before its resolves.
                failpoints::configure(
                    "store::multi",
                    FailpointConfig::once_for(FaultAction::Yield, HELPER, 1 + seed % 3),
                );
                let completed = Arc::new(AtomicUsize::new(0));
                let inner: Box<dyn Strategy> = if pct {
                    Box::new(Pct::new(seed, 3, 2000))
                } else {
                    Box::new(RandomWalk::new(seed))
                };
                let strategy = Parking {
                    inner,
                    resume_racing: !reader,
                    completed: Arc::clone(&completed),
                    parked_at: None,
                    resumed: false,
                    slept: Arc::clone(&slept),
                };
                let checked = run_and_check_with(
                    &StoreModel::new(),
                    strategy,
                    RunOptions::default(),
                    Some(ordering_contract()),
                    |rec| body(rec, reader, completed),
                );
                // A helper whose retry after `Stale` missed the resolve
                // would help the same finished multi-op again, forever
                // once it runs alone: the step bound is the verdict.
                assert!(checked.run.error.is_none(), "pct {pct} seed {seed}: {:?}", checked.run.error);
                assert!(
                    checked.report.outcome.is_ok(),
                    "pct {pct} seed {seed}: not linearizable: {:?}\n{:?}",
                    checked.report.outcome,
                    checked.history
                );
                assert!(checked.hb.is_clean(), "pct {pct} seed {seed}: {}", checked.hb.violations[0]);
            }
        }
        failpoints::clear();
        slept.load(Ordering::SeqCst)
    }

    /// The parked helper is a writer, resumed while the originator's
    /// remaining multi-ops race its stale prepare and its retried put.
    #[test]
    fn store_helper_parked_past_later_multis_resumes_harmlessly() {
        let _guard = failpoints::exclusive();
        let slept = campaign(false);
        println!("store stale-helper campaign (writer): helper slept through {SLEPT_THROUGH} completions in {slept} of {} schedules", 2 * SEEDS);
        assert!(slept >= 400, "only {slept} schedules made the helper a straggler");
    }

    /// The parked helper is a log-free reader, resumed once the
    /// originator has exited: its retry after the stale answer reads at
    /// a frontier that must already cover the resolve (DESIGN §11), or
    /// it would find the same lock and spin.
    #[test]
    fn store_local_reader_retry_after_stale_observes_the_resolve() {
        let _guard = failpoints::exclusive();
        let slept = campaign(true);
        println!("store stale-helper campaign (reader): helper slept through {SLEPT_THROUGH} completions in {slept} of {} schedules", 2 * SEEDS);
        assert!(slept >= 150, "only {slept} schedules made the reader a straggler");
    }
}
