//! Dynamic-membership churn on real threads: clients register, operate,
//! retire, and respawn continuously, and the registry must behave like
//! the infinite-arrival model promises — memory bounded by the *peak
//! number of concurrently active handles*, never by total arrivals, and
//! linearizability preserved across arbitrary slot reuse.
//!
//! The crash storms (feature `failpoints`) additionally kill clients at
//! the membership failpoint sites (`universal::register`,
//! `universal::retire`): a client crashed mid-retirement leaves a
//! retired, quiescent slot that the next registrant reclaims; one
//! crashed before claiming leaves nothing. Either way the object keeps
//! linearizing and the registry stays bounded.

use waitfree::objects::counter::{Counter, CounterOp, CounterResp};
use waitfree::sched::thread;
use waitfree::sync::universal::{UniversalConfig, WfUniversal};

#[test]
fn concurrent_churn_is_bounded_by_peak_active_not_arrivals() {
    // The crash storms arm the process-global failpoint registry for
    // *any* thread; holding the gate keeps them off this test's workers.
    let _guard = waitfree::faults::failpoints::exclusive();
    const WORKERS: usize = 4;
    const ROUNDS: usize = 50;
    let obj = WfUniversal::with_config(Counter::new(0), UniversalConfig::default());
    let joins: Vec<_> = (0..WORKERS)
        .map(|_| {
            let obj = obj.clone();
            thread::spawn(move || {
                for _ in 0..ROUNDS {
                    let mut h = obj.register();
                    h.invoke(CounterOp::Add(1));
                    h.retire();
                }
            })
        })
        .collect();
    for j in joins {
        j.join().unwrap();
    }

    let stats = obj.stats();
    assert_eq!(stats.total_arrivals, WORKERS * ROUNDS);
    assert_eq!(stats.active_handles, 0, "every registration retired");
    assert!(stats.peak_active <= WORKERS);
    // The memory bound of the infinite-arrival construction: slots are
    // recycled, so the registry high-water tracks peak concurrent
    // registrations (plus transient claim races), not the 200 arrivals.
    assert!(
        stats.registry_slots <= 2 * WORKERS,
        "registry grew to {} slots for {} concurrent workers",
        stats.registry_slots,
        WORKERS
    );
    assert!(
        stats.registry_slots < stats.total_arrivals / 10,
        "registry scales with arrivals ({} slots, {} arrivals)",
        stats.registry_slots,
        stats.total_arrivals
    );

    let mut probe = obj.register();
    assert_eq!(
        probe.invoke(CounterOp::Get),
        CounterResp::Value((WORKERS * ROUNDS) as i64),
        "no add lost across churn"
    );
}

#[test]
fn respawned_clients_observe_their_predecessors() {
    let _guard = waitfree::faults::failpoints::exclusive(); // as in the first test
    // Generations: each client increments, retires, and its successor
    // must observe a strictly larger counter — slot reuse preserves the
    // happened-before chain through the log.
    let obj = WfUniversal::with_config(Counter::new(0), UniversalConfig::default());
    let mut last = -1i64;
    for _ in 0..40 {
        let mut h = obj.register();
        let seen = match h.invoke(CounterOp::FetchAndAdd(1)) {
            CounterResp::Value(v) => v,
            other => panic!("unexpected {other:?}"),
        };
        assert!(seen > last, "generation {seen} does not extend {last}");
        last = seen;
        h.retire();
    }
    assert_eq!(obj.stats().registry_slots, 1, "one generation alive at a time needs one slot");
}

#[cfg(feature = "failpoints")]
mod storms {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;
    use waitfree::sched::atomic::{AtomicUsize, Ordering};
    use waitfree::faults::failpoints::{self, FailpointConfig, FaultAction, Fire};
    use waitfree::faults::harness::{spawn_workers, Outcome};

    /// Register/invoke/retire storm with crashes injected at the
    /// membership sites. Seeds are printed so a failing interleaving can
    /// be replayed by running the same seed.
    fn churn_storm_round(seed: u64) {
        const WORKERS: usize = 4;
        const ROUNDS: usize = 25;
        const MEMBERSHIP_SITES: [&str; 2] = ["universal::register", "universal::retire"];
        println!("churn storm seed {seed}: {WORKERS} workers x {ROUNDS} rounds");

        failpoints::clear();
        failpoints::set_seed(seed);
        failpoints::configure(
            "universal::retire",
            FailpointConfig {
                action: FaultAction::Crash,
                fire: Fire::PerMille(120),
                tid: None,
                budget: Some(2),
            },
        );
        failpoints::configure(
            "universal::register",
            FailpointConfig {
                action: FaultAction::Crash,
                fire: Fire::PerMille(60),
                tid: None,
                budget: Some(1),
            },
        );

        let obj = WfUniversal::with_config(Counter::new(0), UniversalConfig::default());
        // Adds that certainly took effect: bumped after invoke returns,
        // and both crash sites sit outside the invoke (a crash at
        // `universal::retire` lands after the round's add completed, one
        // at `universal::register` before the round began).
        let adds = Arc::new(AtomicUsize::new(0));
        let group = {
            let obj = obj.clone();
            let adds = Arc::clone(&adds);
            spawn_workers(WORKERS, move |_tid| {
                let mut rounds = 0usize;
                for _ in 0..ROUNDS {
                    let mut h = obj.register();
                    h.invoke(CounterOp::Add(1));
                    adds.fetch_add(1, Ordering::SeqCst);
                    h.retire();
                    rounds += 1;
                }
                rounds
            })
        };
        assert!(
            group.await_finished(WORKERS, Duration::from_secs(60)),
            "seed {seed}: storm hung"
        );
        let mut crashed = 0usize;
        for (tid, outcome) in group.finish().into_iter().enumerate() {
            match outcome {
                Outcome::Completed(rounds) => assert_eq!(rounds, ROUNDS),
                Outcome::Crashed { site } => {
                    assert!(
                        MEMBERSHIP_SITES.contains(&site.as_str()),
                        "seed {seed}: worker {tid} crashed at foreign site {site}"
                    );
                    crashed += 1;
                }
                Outcome::Panicked { message } => {
                    panic!("seed {seed}: worker {tid} genuinely panicked: {message}")
                }
            }
        }
        failpoints::clear();

        // Crash accounting: a victim at either membership site has
        // already left the active count (retire decrements before its
        // failpoint; register crashes before claiming).
        let stats = obj.stats();
        assert_eq!(stats.active_handles, 0, "seed {seed}: crashed clients leak active count");
        // The registry stays bounded by peak concurrency — crashed
        // clients' slots are retired-and-quiesced, hence reclaimable.
        assert!(stats.registry_slots <= 2 * WORKERS, "seed {seed}: registry grew to {} slots", stats.registry_slots);

        // No add lost, none duplicated, across crashes and slot reuse.
        let mut probe = obj.register();
        assert!(probe.tid() < 2 * WORKERS, "seed {seed}: probe did not reuse a low slot");
        assert_eq!(
            probe.invoke(CounterOp::Get),
            CounterResp::Value(adds.load(Ordering::SeqCst) as i64),
            "seed {seed}: counter diverged from completed adds ({crashed} crashes)"
        );
    }

    #[test]
    fn crash_storms_at_membership_sites_stay_bounded_and_exact() {
        let _guard = failpoints::exclusive();
        for seed in [11, 29, 47, 83, 131] {
            churn_storm_round(seed);
        }
        failpoints::clear();
    }
}

#[test]
fn checkpointed_churn_stays_exact_with_bounded_memory() {
    let _guard = waitfree::faults::failpoints::exclusive(); // as in the first test
    // The tentpole's two bounds at once, under real-thread churn: the
    // registry stays bounded by peak active handles (PR 6) *and* live
    // log segments stay bounded by the frontier spread (checkpointed
    // truncation) — while every add still counts exactly once.
    const WORKERS: usize = 4;
    const ROUNDS: usize = 60;
    let obj = WfUniversal::with_config(
        Counter::new(0),
        UniversalConfig { checkpoint_every: Some(8), ..UniversalConfig::default() },
    );
    let joins: Vec<_> = (0..WORKERS)
        .map(|_| {
            let obj = obj.clone();
            thread::spawn(move || {
                for _ in 0..ROUNDS {
                    let mut h = obj.register();
                    h.invoke(CounterOp::Add(1));
                    h.retire();
                }
            })
        })
        .collect();
    for j in joins {
        j.join().unwrap();
    }

    // 240 ops plus interleaved checkpoints span several segments; all
    // but the frontier neighbourhood must be gone. (Slack: concurrent
    // registrants may anchor one segment behind the newest checkpoint,
    // and the tail segment is never detached.)
    obj.reclaim();
    let stats = obj.stats();
    assert_eq!(stats.active_handles, 0);
    assert!(stats.registry_slots <= 2 * WORKERS);
    assert!(stats.reclaimed_segments >= 1, "churn truncated the log: {} reclaimed", stats.reclaimed_segments);
    assert!(
        stats.live_segments <= 4,
        "live segments bounded by frontier spread, not arrivals: {}",
        stats.live_segments
    );

    let mut probe = obj.register();
    assert_eq!(
        probe.invoke(CounterOp::Get),
        CounterResp::Value((WORKERS * ROUNDS) as i64),
        "no add lost across churn + truncation"
    );
}
