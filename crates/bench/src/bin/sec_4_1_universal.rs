//! E15 — §4.1: the universal construction, wait-free and strongly
//! wait-free.
//!
//! Three demonstrations:
//!
//! 1. queue/stack/counter built from fetch-and-cons produce only
//!    linearizable histories (explorer-driven, checker-verified);
//! 2. the replay-length measurement separating the wait-free variant
//!    (k-th operation replays k entries) from the strongly wait-free
//!    checkpointed variant (bounded replay) — the paper's O(k) vs O(n);
//! 3. the hardware universal object ([`waitfree_sync`]) under real
//!    threads: exact counters and conserved queues.

use waitfree_bench::Report;
use waitfree_core::universal::log::{LogFrontEnd, LogItem, LogUniversal};
use waitfree_explorer::impl_sim::{all_histories, run_random};
use waitfree_model::{linearize, PendingPolicy, Pid, Val};
use waitfree_objects::counter::{Counter, CounterOp};
use waitfree_objects::list::ConsList;
use waitfree_objects::queue::{FifoQueue, QueueOp};
use waitfree_objects::stack::{Stack, StackOp};
use waitfree_sync::universal::UniversalConfig;
use waitfree_sync::wrappers::WfCounter;

fn main() {
    let mut report = Report::new(
        "sec_4_1_universal",
        "§4.1: universal construction from fetch-and-cons",
        &["demonstration", "result"],
    );

    // 1a. Exhaustive: universal queue, 2 procs.
    {
        let fe = LogFrontEnd { initial: FifoQueue::new() };
        let workloads = vec![vec![QueueOp::Enq(1), QueueOp::Deq], vec![QueueOp::Enq(2), QueueOp::Deq]];
        let histories =
            all_histories(&fe, &ConsList::<LogItem<QueueOp>>::new(), &workloads, 1_000_000);
        let ok = histories
            .iter()
            .all(|h| linearize(h, &FifoQueue::new(), PendingPolicy::MayTakeEffect).outcome.is_ok());
        if !ok {
            report.fail("universal queue produced a non-linearizable history");
        }
        report.row(&[
            "universal FIFO queue, exhaustive 2×2".into(),
            format!("{} histories, linearizable: {ok}", histories.len()),
        ]);
    }
    // 1b. Randomized: universal stack, 3 procs.
    {
        let fe = LogFrontEnd { initial: Stack::new() };
        let workloads: Vec<Vec<StackOp>> = (0..3)
            .map(|p| vec![StackOp::Push(p as Val), StackOp::Pop, StackOp::Push(10 + p as Val)])
            .collect();
        let mut ok = true;
        for seed in 0..300 {
            let run = run_random(&fe, ConsList::<LogItem<StackOp>>::new(), &workloads, seed, 400);
            ok &= linearize(&run.history, &Stack::new(), PendingPolicy::MayTakeEffect)
                .outcome
                .is_ok();
        }
        if !ok {
            report.fail("universal stack produced a non-linearizable history");
        }
        report.row(&["universal stack, randomized 3×3 (300 runs)".into(), format!("linearizable: {ok}")]);
    }

    // 2. Replay lengths: plain vs checkpointed.
    {
        let ops = 200;
        let mut plain = LogUniversal::new(Counter::new(0), false);
        let mut ckpt = LogUniversal::new(Counter::new(0), true);
        for _ in 0..ops {
            plain.invoke(Pid(0), CounterOp::Add(1));
            ckpt.invoke(Pid(0), CounterOp::Add(1));
        }
        report.row(&[
            format!("replay length after {ops} ops (wait-free, no truncation)"),
            format!("last={} max={} log={}", plain.last_replay(), plain.max_replay(), plain.log_len()),
        ]);
        report.row(&[
            format!("replay length after {ops} ops (strongly wait-free, checkpointed)"),
            format!("last={} max={} log={}", ckpt.last_replay(), ckpt.max_replay(), ckpt.log_len()),
        ]);
        if ckpt.max_replay() > 1 || plain.max_replay() != ops - 1 {
            report.fail("replay-length shape does not match §4.1's analysis");
        }
    }

    // 3. Hardware universal object under real threads.
    {
        let threads = 4;
        let per = 2000;
        let counter = WfCounter::new(UniversalConfig::default());
        let joins: Vec<_> = (0..threads)
            .map(|_| {
                let mut h = counter.register();
                waitfree_sched::thread::spawn(move || {
                    for _ in 0..per {
                        h.fetch_add(1);
                    }
                    h
                })
            })
            .collect();
        let mut finished: Vec<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        let total = finished[0].get();
        let expected = (threads * per) as Val;
        if total != expected {
            report.fail(format!("hardware counter lost updates: {total} != {expected}"));
        }
        report.row(&[
            format!("hardware wait-free counter, {threads} threads × {per} ops"),
            format!("total = {total} (expected {expected})"),
        ]);
    }

    report.note("§4.1: the fetch-and-cons is where the operation 'really happens';");
    report.note("checkpointing = 'replace the cdr of its operation with its newly-reconstructed state'");
    report.finish();
}
