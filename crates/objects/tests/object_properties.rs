//! Property tests: each simulated object's sequential semantics agrees
//! with an independent reference model on arbitrary operation sequences.
//! Sequences are drawn from the workspace's seeded [`DetRng`] (offline
//! replacement for proptest strategies): 256 random sequences per
//! property, reproducible by seed.

use std::collections::VecDeque;
use waitfree_sched::rng::DetRng;
use waitfree_model::{ObjectSpec, Pid, Val};
use waitfree_objects::assignment::{AssignBank, AssignOp, AssignResp};
use waitfree_objects::memory::{MemOp, MemoryBank, MemResp};
use waitfree_objects::pqueue::{PqOp, PqResp, PriorityQueue};
use waitfree_objects::queue::{AugQueueOp, AugmentedQueue, QueueOp, QueueResp};
use waitfree_objects::rmw::{RmwFn, RmwOp, RmwRegister};
use waitfree_objects::stack::{Stack, StackOp, StackResp};

const SEQUENCES: usize = 256;

/// `len` draws of `Some(value in 0..vals)` (an insert) or `None` (a removal).
fn push_pop_ops(rng: &mut DetRng, max_len: usize, vals: i64) -> Vec<Option<Val>> {
    let len = rng.below(max_len + 1);
    (0..len)
        .map(|_| if rng.per_mille(500) { Some(rng.range_i64(0, vals)) } else { None })
        .collect()
}

/// Queue (and augmented queue) vs `VecDeque`.
#[test]
fn queue_matches_vecdeque() {
    let mut rng = DetRng::new(0x5155_4555);
    for _ in 0..SEQUENCES {
        let ops = push_pop_ops(&mut rng, 60, 64);
        let mut q = waitfree_objects::queue::FifoQueue::new();
        let mut aq = AugmentedQueue::new();
        let mut model: VecDeque<Val> = VecDeque::new();
        for op in ops {
            match op {
                Some(v) => {
                    assert_eq!(q.apply(Pid(0), &QueueOp::Enq(v)), QueueResp::Ack);
                    assert_eq!(aq.apply(Pid(0), &AugQueueOp::Enq(v)), QueueResp::Ack);
                    model.push_back(v);
                }
                None => {
                    // Peek first (augmented only), then dequeue from all.
                    let expect_peek =
                        model.front().map_or(QueueResp::Empty, |&v| QueueResp::Item(v));
                    assert_eq!(aq.apply(Pid(0), &AugQueueOp::Peek), expect_peek);
                    let expect = model.pop_front().map_or(QueueResp::Empty, QueueResp::Item);
                    assert_eq!(q.apply(Pid(0), &QueueOp::Deq), expect.clone());
                    assert_eq!(aq.apply(Pid(0), &AugQueueOp::Deq), expect);
                }
            }
        }
        assert_eq!(q.len(), model.len());
    }
}

/// Stack vs `Vec`.
#[test]
fn stack_matches_vec() {
    let mut rng = DetRng::new(0x5354_4143);
    for _ in 0..SEQUENCES {
        let ops = push_pop_ops(&mut rng, 60, 64);
        let mut s = Stack::new();
        let mut model: Vec<Val> = Vec::new();
        for op in ops {
            match op {
                Some(v) => {
                    s.apply(Pid(0), &StackOp::Push(v));
                    model.push(v);
                }
                None => {
                    let expect = model.pop().map_or(StackResp::Empty, StackResp::Item);
                    assert_eq!(s.apply(Pid(0), &StackOp::Pop), expect);
                }
            }
        }
    }
}

/// Priority queue vs a sorted reference.
#[test]
fn pqueue_matches_sorted_model() {
    let mut rng = DetRng::new(0x5051_5545);
    for _ in 0..SEQUENCES {
        let ops = push_pop_ops(&mut rng, 60, 32);
        let mut pq = PriorityQueue::new();
        let mut model: Vec<Val> = Vec::new();
        for op in ops {
            match op {
                Some(v) => {
                    pq.apply(Pid(0), &PqOp::Insert(v));
                    model.push(v);
                    model.sort_unstable();
                }
                None => {
                    let expect = if model.is_empty() {
                        PqResp::Empty
                    } else {
                        PqResp::Item(model.remove(0))
                    };
                    assert_eq!(pq.apply(Pid(0), &PqOp::ExtractMin), expect);
                }
            }
        }
    }
}

/// RMW register vs direct function application.
#[test]
fn rmw_matches_direct_application() {
    let catalogue = [
        RmwFn::Identity,
        RmwFn::TestAndSet,
        RmwFn::Swap(3),
        RmwFn::FetchAndAdd(2),
        RmwFn::CompareAndSwap(1, 9),
        RmwFn::FetchAndMax(4),
    ];
    let mut rng = DetRng::new(0x524D_5752);
    for _ in 0..SEQUENCES {
        let init = rng.range_i64(-8, 8);
        let count = rng.below(41);
        let mut reg = RmwRegister::new(init);
        let mut model = init;
        for _ in 0..count {
            let f = catalogue[rng.below(catalogue.len())];
            let old = reg.apply(Pid(0), &RmwOp(f));
            assert_eq!(old, model, "{f:?}");
            model = f.eval(model);
        }
        assert_eq!(reg.value(), model);
    }
}

/// Memory bank: move/swap/read/write vs a plain vector.
#[test]
fn memory_bank_matches_vec() {
    let mut rng = DetRng::new(0x4D45_4D42);
    for _ in 0..SEQUENCES {
        let count = rng.below(61);
        let mut bank = MemoryBank::new(4, 0);
        let mut model = [0i64; 4];
        for _ in 0..count {
            let (a, b) = (rng.below(4), rng.below(4));
            let v = rng.range_i64(-4, 4);
            match rng.below(4) {
                0 => {
                    assert_eq!(bank.apply(Pid(0), &MemOp::Read(a)), MemResp::Value(model[a]));
                }
                1 => {
                    bank.apply(Pid(0), &MemOp::Write(a, v));
                    model[a] = v;
                }
                2 => {
                    bank.apply(Pid(0), &MemOp::Move { src: a, dst: b });
                    model[b] = model[a];
                }
                _ => {
                    bank.apply(Pid(0), &MemOp::Swap { a, b });
                    model.swap(a, b);
                }
            }
        }
        for (i, &m) in model.iter().enumerate() {
            assert_eq!(bank.value(i), m);
        }
    }
}

/// Atomic assignment: the whole batch lands or (on reads) nothing moves.
#[test]
fn assignment_is_batch_atomic() {
    let mut rng = DetRng::new(0x4153_4742);
    for _ in 0..SEQUENCES {
        let batches = rng.below(21);
        let mut bank = AssignBank::new(5, 3, -1);
        let mut model = [-1i64; 5];
        for _ in 0..batches {
            let raw: Vec<(usize, Val)> =
                (0..rng.below(3)).map(|_| (rng.below(5), rng.range_i64(-4, 4))).collect();
            // Deduplicate cells within a batch (the object rejects dups).
            let mut seen = std::collections::HashSet::new();
            let batch: Vec<(usize, Val)> =
                raw.into_iter().filter(|(c, _)| seen.insert(*c)).collect();
            bank.apply(Pid(0), &AssignOp::Assign(batch.clone()));
            for (c, v) in batch {
                model[c] = v;
            }
            for (i, &m) in model.iter().enumerate() {
                assert_eq!(bank.apply(Pid(0), &AssignOp::Read(i)), AssignResp::Value(m));
            }
        }
    }
}
