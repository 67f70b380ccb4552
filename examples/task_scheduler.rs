//! A wait-free work scheduler: the motivating scenario from the paper's
//! introduction ("if a process executing in a critical region takes a
//! page fault … other processes needing that resource will also be
//! delayed").
//!
//! ```text
//! cargo run --example task_scheduler
//! ```
//!
//! A pool of workers pulls tasks from a shared wait-free queue and pushes
//! results to a wait-free counter. One worker is deliberately *slow*
//! (simulating preemption/page faults mid-operation); with a lock it
//! would stall the whole pool — here the others are provably unaffected:
//! their step counts are bounded independent of the slow worker.

use std::time::{Duration, Instant};

use waitfree::sync::universal::UniversalConfig;
use waitfree::sync::wrappers::{WfCounter, WfQueue};

fn main() {
    let workers = 4;
    let tasks: i64 = 400;

    // One queue handle and one counter handle for the coordinator; each
    // worker registers its own pair below.
    let queue = WfQueue::new(UniversalConfig::default());
    let counter = WfCounter::new(UniversalConfig::default());
    let mut coordinator_q = queue.register();
    let mut coordinator_c = counter.register();

    // Seed the task pool: task i = "compute i² and add it to the tally".
    for i in 0..tasks {
        coordinator_q.enq(i);
    }

    let start = Instant::now();
    let joins: Vec<_> = (0..workers)
        .map(|w| {
            let (mut q, mut c) = (queue.register(), counter.register());
            waitfree::sched::thread::spawn(move || {
                let slow = w == 0; // worker 0 keeps getting "preempted"
                let mut processed = 0u32;
                while let Some(task) = q.deq() {
                    if slow {
                        waitfree::sched::thread::sleep(Duration::from_micros(300));
                    }
                    c.fetch_add(task * task);
                    processed += 1;
                }
                processed
            })
        })
        .collect();

    let processed: Vec<u32> = joins.into_iter().map(|j| j.join().unwrap()).collect();
    let elapsed = start.elapsed();

    let expected: i64 = (0..tasks).map(|i| i * i).sum();
    let tally = coordinator_c.get();
    println!("task scheduler: {tasks} tasks across {workers} workers ({:?})", elapsed);
    println!("  per-worker tasks processed: {processed:?} (worker 0 is the slow one)");
    println!("  Σ i² tally = {tally} (expected {expected})");
    assert_eq!(tally, expected, "every task executed exactly once");
    assert!(
        processed[1..].iter().sum::<u32>() > processed[0],
        "fast workers were not blocked behind the slow one"
    );
    println!("  the slow worker slowed only itself — wait-freedom at work");
}
