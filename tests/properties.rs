//! Property-based integration tests (seeded random workloads): the
//! universal construction is equivalent to its sequential specification
//! on arbitrary workloads; the linearizability checker agrees with a
//! brute-force oracle on tiny histories.

use waitfree::core::universal::log::LogUniversal;
use waitfree::sched::rng::DetRng;
use waitfree::model::{linearize, History, ObjectSpec, PendingPolicy, Pid};
use waitfree::objects::queue::{FifoQueue, QueueOp};
use waitfree::objects::register::{RegOp, RegResp, RwRegister};
use waitfree::objects::stack::{Stack, StackOp};
use waitfree::sync::universal::{UniversalConfig, WfUniversal};

const SEQUENCES: usize = 256;

fn queue_ops(rng: &mut DetRng, max_len: usize) -> Vec<QueueOp> {
    (0..rng.below(max_len + 1))
        .map(|_| if rng.per_mille(500) { QueueOp::Enq(rng.range_i64(0, 16)) } else { QueueOp::Deq })
        .collect()
}

fn stack_ops(rng: &mut DetRng, max_len: usize) -> Vec<StackOp> {
    (0..rng.below(max_len + 1))
        .map(|_| {
            if rng.per_mille(500) {
                StackOp::Push(rng.range_i64(0, 16))
            } else {
                StackOp::Pop
            }
        })
        .collect()
}

/// §4.1's claim, as a property: replaying the log IS the object.
#[test]
fn log_universal_queue_equals_spec() {
    let mut rng = DetRng::new(0x4C4F_4755);
    for _ in 0..SEQUENCES {
        let ops = queue_ops(&mut rng, 39);
        let mut uni_plain = LogUniversal::new(FifoQueue::new(), false);
        let mut uni_ckpt = LogUniversal::new(FifoQueue::new(), true);
        let mut spec = FifoQueue::new();
        for (i, op) in ops.iter().enumerate() {
            let pid = Pid(i % 3);
            let expected = spec.apply(pid, op);
            assert_eq!(uni_plain.invoke(pid, op.clone()), expected.clone());
            assert_eq!(uni_ckpt.invoke(pid, op.clone()), expected);
        }
        assert_eq!(uni_plain.state(), spec);
    }
}

/// Same for stacks, through the hardware universal object.
#[test]
fn hardware_universal_stack_equals_spec() {
    let mut rng = DetRng::new(0x4857_5354);
    for _ in 0..SEQUENCES {
        let ops = stack_ops(&mut rng, 39);
        let mut hw = WfUniversal::with_config(Stack::new(), UniversalConfig::default()).register();
        let mut spec = Stack::new();
        for op in &ops {
            let expected = spec.apply(Pid(0), op);
            assert_eq!(hw.invoke(op.clone()), expected);
        }
    }
}

/// The Wing-Gong checker agrees with a brute-force permutation oracle
/// on small register histories.
#[test]
fn linearize_agrees_with_bruteforce() {
    let mut rng = DetRng::new(0x4252_5554);
    for _ in 0..SEQUENCES {
        // Up to 5 complete operations across 2 processes with random
        // overlap structure and random (possibly wrong) read results.
        let spec: Vec<(usize, usize, i64)> = (0..1 + rng.below(4))
            .map(|_| (rng.below(2), rng.below(3), rng.range_i64(0, 3)))
            .collect();
        // Build a history: each tuple (pid, kind, v): kind 0 => write v,
        // kind 1 => read returning v, kind 2 => read returning 0.
        // All operations are sequential per process but interleaved
        // round-robin across processes to create overlap.
        let mut h: History<RegOp, RegResp> = History::new();
        let mut pending: Vec<Option<(Pid, RegResp)>> = vec![None, None];
        for &(p, kind, v) in &spec {
            let pid = Pid(p);
            // Close any pending op of this process first.
            if let Some((q, resp)) = pending[p].take() {
                h.respond(q, resp).unwrap();
            }
            match kind {
                0 => {
                    h.invoke(pid, RegOp::Write(v));
                    pending[p] = Some((pid, RegResp::Written));
                }
                _ => {
                    h.invoke(pid, RegOp::Read);
                    let result = if kind == 1 { v } else { 0 };
                    pending[p] = Some((pid, RegResp::Read(result)));
                }
            }
        }
        for slot in pending.iter_mut() {
            if let Some((q, resp)) = slot.take() {
                h.respond(q, resp).unwrap();
            }
        }

        let fast = linearize(&h, &RwRegister::new(0), PendingPolicy::MayTakeEffect)
            .outcome
            .is_ok();
        let slow = bruteforce_linearizable(&h);
        assert_eq!(fast, slow, "history: {h:?}");
    }
}

/// Brute-force oracle: try every permutation of the operations that
/// respects real-time order and replays legally.
fn bruteforce_linearizable(h: &History<RegOp, RegResp>) -> bool {
    let ops = h.ops();
    let n = ops.len();
    let mut order: Vec<usize> = (0..n).collect();
    permute(&mut order, 0, &mut |perm| {
        // Real-time order respected?
        for i in 0..n {
            for j in 0..n {
                let (pi, pj) = (
                    perm.iter().position(|&x| x == i).unwrap(),
                    perm.iter().position(|&x| x == j).unwrap(),
                );
                if ops[i].precedes(&ops[j]) && pi > pj {
                    return false;
                }
            }
        }
        // Legal replay?
        let mut reg = RwRegister::new(0);
        for &k in perm.iter() {
            let resp = reg.apply(ops[k].pid, &ops[k].op);
            if ops[k].resp.as_ref() != Some(&resp) {
                return false;
            }
        }
        true
    })
}

/// Call `f` on every permutation; return true if any satisfies it.
fn permute(arr: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&Vec<usize>) -> bool) -> bool {
    if k == arr.len() {
        return f(arr);
    }
    for i in k..arr.len() {
        arr.swap(k, i);
        if permute(arr, k + 1, f) {
            arr.swap(k, i);
            return true;
        }
        arr.swap(k, i);
    }
    false
}
