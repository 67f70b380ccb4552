//! Quickstart: wait-free shared objects in three steps.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! 1. Wrap any sequential object (here a counter and a FIFO queue) in the
//!    universal construction — Herlihy's §4 result says one consensus
//!    primitive is enough for *any* of them.
//! 2. Register one handle per thread.
//! 3. Operations are wait-free: bounded steps regardless of what other
//!    threads do.

use waitfree::sync::universal::UniversalConfig;
use waitfree::sync::wrappers::{WfCounter, WfQueue};

fn main() {
    // A wait-free counter shared by 4 threads.
    let threads = 4;
    let per = 10_000;
    let counter = WfCounter::new(UniversalConfig::default());
    let joins: Vec<_> = (0..threads)
        .map(|_| {
            let mut h = counter.register();
            waitfree::sched::thread::spawn(move || {
                let mut first_ticket = None;
                for _ in 0..per {
                    let old = h.fetch_add(1);
                    first_ticket.get_or_insert(old);
                }
                first_ticket.expect("took at least one ticket")
            })
        })
        .collect();
    let first_tickets: Vec<i64> = joins.into_iter().map(|j| j.join().unwrap()).collect();
    println!("wait-free counter: {threads} threads × {per} increments");
    println!("  first ticket per thread: {first_tickets:?}");
    println!("  (each fetch_add returned a unique ticket — linearizable)");

    // A wait-free FIFO queue: producer and consumer, no locks anywhere.
    let queue = WfQueue::new(UniversalConfig::default());
    let (mut producer, mut consumer) = (queue.register(), queue.register());
    let p = waitfree::sched::thread::spawn(move || {
        for item in [10, 20, 30, 40, 50] {
            producer.enq(item);
        }
    });
    p.join().expect("producer finished");
    let mut drained = Vec::new();
    while let Some(v) = consumer.deq() {
        drained.push(v);
    }
    println!("wait-free queue drained in FIFO order: {drained:?}");
    assert_eq!(drained, vec![10, 20, 30, 40, 50]);
    println!("ok");
}
