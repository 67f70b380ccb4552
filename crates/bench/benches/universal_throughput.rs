//! P1 — throughput of the wait-free universal objects against lock-based
//! and specialized lock-free baselines, across thread counts.
//!
//! Expected shape (the paper makes no quantitative claims): the universal
//! construction pays for its generality — specialized lock-free objects
//! and even mutexes beat it on raw throughput — but it is the only one of
//! the three with a per-operation *bound* that survives adversarial
//! scheduling and crashes.

use std::sync::Arc;

use waitfree_sched::atomic::{AtomicI64, Ordering};
use waitfree_sched::thread;

use waitfree_bench::timing::bench;
use waitfree_sync::locked::{LockedCounter, LockedQueue};
use waitfree_sync::lockfree::MsQueue;
use waitfree_sync::universal::UniversalConfig;
use waitfree_sync::wrappers::{WfCounter, WfQueue};

const OPS_PER_THREAD: usize = 2_000;

fn counter_throughput() {
    for threads in [1usize, 2, 4] {
        bench("counter_throughput", &format!("wf_universal/{threads}"), || {
            let counter = WfCounter::new(UniversalConfig::default());
            let joins: Vec<_> = (0..threads)
                .map(|_| {
                    let mut h = counter.register();
                    thread::spawn(move || {
                        for _ in 0..OPS_PER_THREAD {
                            h.fetch_add(1);
                        }
                    })
                })
                .collect();
            for j in joins {
                j.join().unwrap();
            }
        });

        bench("counter_throughput", &format!("mutex/{threads}"), || {
            let counter = Arc::new(LockedCounter::new());
            let joins: Vec<_> = (0..threads)
                .map(|_| {
                    let c = Arc::clone(&counter);
                    thread::spawn(move || {
                        for _ in 0..OPS_PER_THREAD {
                            c.fetch_add(1);
                        }
                    })
                })
                .collect();
            for j in joins {
                j.join().unwrap();
            }
        });

        bench("counter_throughput", &format!("native_faa/{threads}"), || {
            let counter = Arc::new(AtomicI64::new(0));
            let joins: Vec<_> = (0..threads)
                .map(|_| {
                    let c = Arc::clone(&counter);
                    thread::spawn(move || {
                        for _ in 0..OPS_PER_THREAD {
                            c.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                })
                .collect();
            for j in joins {
                j.join().unwrap();
            }
        });
    }
}

fn queue_throughput() {
    for threads in [1usize, 2, 4] {
        bench("queue_throughput", &format!("wf_universal/{threads}"), || {
            let queue = WfQueue::new(UniversalConfig::default());
            let joins: Vec<_> = (0..threads)
                .map(|_| {
                    let mut h = queue.register();
                    thread::spawn(move || {
                        for i in 0..OPS_PER_THREAD / 2 {
                            h.enq(i as i64);
                            let _ = h.deq();
                        }
                    })
                })
                .collect();
            for j in joins {
                j.join().unwrap();
            }
        });

        bench("queue_throughput", &format!("mutex/{threads}"), || {
            let q = Arc::new(LockedQueue::new());
            let joins: Vec<_> = (0..threads)
                .map(|_| {
                    let q = Arc::clone(&q);
                    thread::spawn(move || {
                        for i in 0..OPS_PER_THREAD / 2 {
                            q.enq(i as i64);
                            let _ = q.deq();
                        }
                    })
                })
                .collect();
            for j in joins {
                j.join().unwrap();
            }
        });

        bench("queue_throughput", &format!("michael_scott/{threads}"), || {
            let q = Arc::new(MsQueue::new());
            let joins: Vec<_> = (0..threads)
                .map(|_| {
                    let q = Arc::clone(&q);
                    thread::spawn(move || {
                        for i in 0..OPS_PER_THREAD / 2 {
                            q.enq(i as i64);
                            let _ = q.deq();
                        }
                    })
                })
                .collect();
            for j in joins {
                j.join().unwrap();
            }
        });
    }
}

fn main() {
    counter_throughput();
    queue_throughput();
}
