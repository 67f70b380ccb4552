//! Dynamic membership under churn: clients arrive, operate, retire, and
//! sometimes die — the universal object keeps serving whoever is left.
//!
//! ```text
//! cargo run --example churn
//! ```
//!
//! The paper fixes the set of n processes for life; the universal
//! object's registry lifts that restriction (DESIGN.md §8). Three things
//! are on display:
//!
//! 1. **Arrival is wait-free.** `register()` claims a registry slot in a
//!    bounded number of the caller's own steps — no coordination with
//!    the clients already running.
//! 2. **Memory tracks concurrency, not history.** Wave after wave of
//!    short-lived clients reuse the same few slots: the registry's
//!    high-water mark stays near the *peak concurrently active* count
//!    while total arrivals keep growing.
//! 3. **A dead client costs one slot, nothing more.** A handle dropped
//!    without `retire()` (our stand-in for a crashed client) leaves one
//!    claimed slot behind; every other client — past, present, and
//!    future — proceeds at full speed and the counter stays exact.

use waitfree::objects::counter::{Counter, CounterOp, CounterResp};
use waitfree::sched::thread;
use waitfree::sync::universal::{UniversalConfig, WfUniversal};

fn main() {
    const WAVES: usize = 10;
    const CLIENTS_PER_WAVE: usize = 4;
    const OPS_PER_CLIENT: i64 = 25;

    let obj = WfUniversal::with_config(Counter::new(0), UniversalConfig::default());

    // Wave after wave of short-lived clients: each registers, does its
    // work, and retires. Arrivals accumulate; the registry must not.
    for wave in 0..WAVES {
        let joins: Vec<_> = (0..CLIENTS_PER_WAVE)
            .map(|_| {
                let obj = obj.clone();
                thread::spawn(move || {
                    let mut h = obj.register();
                    for _ in 0..OPS_PER_CLIENT {
                        h.invoke(CounterOp::Add(1));
                    }
                    h.retire();
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        let s = obj.stats();
        println!(
            "wave {:2}: {:3} arrivals so far, registry holds {} slots (peak active {})",
            wave + 1,
            s.total_arrivals,
            s.registry_slots,
            s.peak_active
        );
    }

    let expected = (WAVES * CLIENTS_PER_WAVE) as i64 * OPS_PER_CLIENT;
    assert!(
        obj.stats().registry_slots <= 2 * CLIENTS_PER_WAVE,
        "registry grew with arrivals, not concurrency"
    );

    // One client "crashes": it registers, adds once, and vanishes
    // without retiring. The paper's fault model is exactly this — a
    // process that simply stops taking steps.
    let mut doomed = obj.register();
    doomed.invoke(CounterOp::Add(1));
    drop(doomed); // no retire(): the slot stays claimed
    println!(
        "a client died mid-session: {} active handle(s) linger, object unharmed",
        obj.stats().active_handles
    );

    // Life goes on for everyone else.
    let mut survivor = obj.register();
    for _ in 0..OPS_PER_CLIENT {
        survivor.invoke(CounterOp::Add(1));
    }
    let total = match survivor.invoke(CounterOp::Get) {
        CounterResp::Value(v) => v,
        other => panic!("unexpected response {other:?}"),
    };
    survivor.retire();

    assert_eq!(total, expected + 1 + OPS_PER_CLIENT, "an add was lost");
    println!(
        "final count {total}: every add from {} arrivals (one of them dead) accounted for",
        obj.stats().total_arrivals
    );
}
