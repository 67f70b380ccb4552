//! Long-haul soak for checkpointed truncation: sustained operations on
//! one dynamic universal object with a HARD bounded-RSS assertion — the
//! process footprint after warm-up must stay inside a fixed slack no
//! matter how many more operations run, because the checkpointed log
//! reclaims every segment behind the active handles' frontier. An
//! unbounded log at the CI op count (ten million) would grow by
//! hundreds of MiB and trip the bound by an order of magnitude; the
//! slack only absorbs allocator retention (freed pages glibc keeps
//! resident) and fragmentation creep, both of which plateau.
//!
//! The op mix is seeded: add amounts and read jitter come from a
//! printed xorshift seed (`WF_SOAK_SEED` to replay), so a failing run
//! names the exact workload that broke. `WF_SOAK_OPS` scales the total
//! op count (default 400k for a quick local pass; CI runs 10M). The
//! abstract state is checked exactly at the end — truncation must be
//! invisible to the counter no matter how many segments were dropped.
//!
//! The store leg (`soak_store_state_is_bounded_by_handles_not_history`)
//! holds the sharded store to the same standard over time: multi-key
//! commits and aborts, reads, snapshots, skewed keys and a fresh set of
//! handles every round, with hard bounds on RSS *and* on every
//! per-shard structure that is bounded by argument — tombstones by the
//! originators ever created, the unsettled window and the early
//! captures by the live handles — and an exact zero-sum invariant in
//! every snapshot. `WF_SOAK_STORE_OPS` scales it (default 60k; CI 2M).

use std::time::{Duration, SystemTime, UNIX_EPOCH};

use waitfree::objects::counter::{Counter, CounterOp, CounterResp};
use waitfree::sched::atomic::{AtomicUsize, Ordering};
use waitfree::sched::thread;
use waitfree::store::{Bump, ShardState, ShardStats, ShardedStore, StoreConfig};
use waitfree::sync::universal::{UniversalConfig, WfUniversal, SEGMENT_SIZE};

/// Concurrent workers per round.
const WORKERS: usize = 4;
/// Rounds of register → operate → retire; RSS is sampled between them.
const ROUNDS: usize = 8;
/// Warm-up rounds excluded from the bound (first-touch allocator and
/// arena growth land here).
const WARMUP_ROUNDS: usize = 2;
/// Hard bound: post-warm-up RSS growth allowed, MiB. Far above the
/// observed steady-state creep (tens of MiB over 10M ops, from glibc
/// retention) and far below what an un-truncated log would add
/// (~500 MiB at the CI op count).
const SLACK_MIB: f64 = 64.0;
/// Checkpoint cadence (decided ops between checkpoints).
const EVERY: usize = SEGMENT_SIZE;

/// VmRSS in MiB from `/proc/self/status`; `None` off Linux.
fn rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok().and_then(|s| s.parse().ok())
}

/// xorshift64*: tiny, seedable, good enough to jitter a workload.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// `WF_SOAK_SEED`, or the clock; odd, so xorshift never sticks at 0.
fn soak_seed() -> u64 {
    env_u64("WF_SOAK_SEED").unwrap_or_else(|| {
        SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos() as u64).unwrap_or(1)
    }) | 1
}

#[test]
fn soak_checkpointed_rss_stays_flat() {
    let total = env_u64("WF_SOAK_OPS").unwrap_or(400_000) as usize;
    let seed = soak_seed();
    println!("soak: total_ops={total} workers={WORKERS} rounds={ROUNDS} seed={seed} (replay with WF_SOAK_SEED={seed} WF_SOAK_OPS={total})");

    let per_round = total / (ROUNDS * WORKERS);
    let obj = WfUniversal::with_config(
        Counter::new(0),
        UniversalConfig { checkpoint_every: Some(EVERY), ..UniversalConfig::default() },
    );
    let mut expected: i64 = 0;
    let mut baseline: Option<f64> = None;

    for round in 0..ROUNDS {
        let joins: Vec<_> = (0..WORKERS)
            .map(|w| {
                let obj = obj.clone();
                let mut rng = Rng(seed ^ ((round * WORKERS + w) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                thread::spawn(move || {
                    let mut h = obj.register();
                    let mut sum: i64 = 0;
                    // Seeded jitter: add amounts vary, and the handle
                    // occasionally replays from its frontier instead of
                    // deciding — the catch-up path must not pin memory.
                    let mut until_read = 64 + (rng.next() % 512) as usize;
                    for _ in 0..per_round {
                        let delta = 1 + (rng.next() % 3) as i64;
                        match h.invoke(CounterOp::FetchAndAdd(delta)) {
                            CounterResp::Value(_) => sum += delta,
                            other => panic!("seed={seed}: unexpected response {other:?}"),
                        }
                        until_read -= 1;
                        if until_read == 0 {
                            h.read(|_| ());
                            until_read = 64 + (rng.next() % 512) as usize;
                        }
                    }
                    h.retire();
                    sum
                })
            })
            .collect();
        for j in joins {
            expected += j.join().unwrap();
        }

        // Every worker retired, so the final reclamation pass has run:
        // the object-level bound is exact regardless of the allocator.
        obj.reclaim();
        let stats = obj.stats();
        assert!(
            stats.live_segments <= 8,
            "seed={seed} round={round}: {} live segments with all workers retired \
             (installed {}, reclaimed {})",
            stats.live_segments,
            stats.installed_segments,
            stats.reclaimed_segments
        );

        match rss_mib() {
            None => {
                if round == 0 {
                    println!("soak: /proc/self/status unavailable; RSS bound not checked");
                }
            }
            Some(rss) => {
                println!(
                    "soak: round={round} rss={rss:.1} MiB installed={} reclaimed={} checkpoints={}",
                    stats.installed_segments,
                    stats.reclaimed_segments,
                    stats.checkpoints
                );
                if round + 1 == WARMUP_ROUNDS {
                    baseline = Some(rss);
                } else if let Some(base) = baseline {
                    // The hard bound: past warm-up, the footprint may
                    // wobble inside the slack but never trend with the
                    // op count. An unbounded log fails this by ~10x.
                    assert!(
                        rss <= base + SLACK_MIB,
                        "seed={seed} round={round}: rss {rss:.1} MiB exceeds the \
                         post-warm-up baseline {base:.1} + {SLACK_MIB} MiB bound \
                         — memory is growing with the op count"
                    );
                }
            }
        }
    }

    // Truncation is invisible to the abstract state: the counter saw
    // every decided add exactly once, across every dropped segment.
    let mut probe = obj.register();
    assert_eq!(
        probe.invoke(CounterOp::Get),
        CounterResp::Value(expected),
        "seed={seed}: final state diverged after {total} ops"
    );
    let stats = obj.stats();
    assert!(
        stats.checkpoints > 0 && stats.reclaimed_segments > 0,
        "seed={seed}: the soak never truncated (checkpoints={}, reclaimed={})",
        stats.checkpoints,
        stats.reclaimed_segments
    );
}

/// Accounts `0..ACCOUNTS` move value between each other by `multi_cas`
/// (sum zero); each pair `(PAIRS + i, PAIRS + PAIR_SPAN + i)` is
/// overwritten by `multi_put` with `(x, -x)` (sum zero).
const ACCOUNTS: u64 = 512;
const PAIRS: u64 = ACCOUNTS;
const PAIR_SPAN: u64 = 256;
const STORE_SHARDS: usize = 4;

/// Zipf(0.99) over `0..n` by inverse CDF.
struct Zipf(Vec<f64>);

impl Zipf {
    fn new(n: u64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n).map(|r| {
            acc += (r as f64).powf(-0.99);
            acc
        }).collect();
        cdf.iter_mut().for_each(|c| *c /= acc);
        Zipf(cdf)
    }

    fn sample(&self, rng: &mut Rng) -> u64 {
        let u = (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
        self.0.partition_point(|&c| c < u).min(self.0.len() - 1) as u64
    }
}

/// Counts a worker as finished when it returns *or* unwinds, so a
/// failed assertion in one ends the sampling loop instead of hanging it.
struct Finished(std::sync::Arc<AtomicUsize>);

impl Drop for Finished {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// The per-shard gauges, read log-free through a probe registration
/// (retired at once: an idle handle would pin reclamation).
fn check_gauges(store: &ShardedStore<u64, i64, Bump>, origins: usize, live: usize, ctx: &str) {
    for s in 0..STORE_SHARDS {
        let mut probe = store.shard(s).register();
        let ShardStats { tombstones: tombs, unsettled, early } = probe.read(ShardState::stats);
        probe.retire();
        assert!(tombs <= origins, "{ctx} shard {s}: {tombs} tombstones for {origins} originators ever created");
        assert!(unsettled <= live, "{ctx} shard {s}: {unsettled} unsettled commits with {live} live handles");
        assert!(early <= live, "{ctx} shard {s}: {early} early captures with {live} live handles");
    }
}

#[test]
fn soak_store_state_is_bounded_by_handles_not_history() {
    let total = env_u64("WF_SOAK_STORE_OPS").unwrap_or(60_000) as usize;
    let seed = soak_seed();
    println!("store soak: total_ops={total} workers={WORKERS} rounds={ROUNDS} seed={seed} (replay with WF_SOAK_SEED={seed} WF_SOAK_STORE_OPS={total})");

    let store: ShardedStore<u64, i64, Bump> = ShardedStore::new(&StoreConfig {
        shards: STORE_SHARDS,
        checkpoint_every: Some(SEGMENT_SIZE),
        ..StoreConfig::default()
    });
    let mut loader = store.handle();
    for k in 0..PAIRS + 2 * PAIR_SPAN {
        loader.put(k, 0);
    }
    loader.retire();

    let zipf = std::sync::Arc::new(Zipf::new(ACCOUNTS));
    let per_round = total / (ROUNDS * WORKERS);
    let mut baseline: Option<f64> = None;
    let (mut commits, mut aborts, mut snaps) = (0usize, 0usize, 0usize);

    for round in 0..ROUNDS {
        let finished = std::sync::Arc::new(AtomicUsize::new(0));
        let joins: Vec<_> = (0..WORKERS)
            .map(|w| {
                let (store, zipf, finished) = (store.clone(), zipf.clone(), Finished(finished.clone()));
                let mut rng = Rng(seed ^ ((round * WORKERS + w + 1) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                thread::spawn(move || {
                    let _finished = finished;
                    // Handle churn: every round is a new set of
                    // originators; the old ones' tombstones remain.
                    let mut h = store.handle();
                    let (mut commits, mut aborts, mut snaps) = (0usize, 0usize, 0usize);
                    for i in 0..per_round {
                        match rng.next() % 100 {
                            0..=39 => {
                                let (a, b) = (zipf.sample(&mut rng), zipf.sample(&mut rng));
                                if a == b {
                                    continue;
                                }
                                let got = h.multi_get(&[a, b]);
                                let (va, vb) = (got[0].expect("preloaded"), got[1].expect("preloaded"));
                                // One in eight expects a value the
                                // account cannot hold: a sure abort.
                                let sure_abort = rng.next().is_multiple_of(8);
                                let d = 1 + (rng.next() % 9) as i64;
                                let ok = h.multi_cas(
                                    [(a, Some(if sure_abort { i64::MIN } else { va })), (b, Some(vb))],
                                    [(a, Some(va - d)), (b, Some(vb + d))],
                                );
                                assert!(!(ok && sure_abort), "seed={seed}: an impossible expectation committed");
                                if ok {
                                    commits += 1;
                                } else {
                                    aborts += 1;
                                }
                            }
                            40..=69 => {
                                let p = PAIRS + zipf.sample(&mut rng) % PAIR_SPAN;
                                let x = (round * per_round + i) as i64 + 1;
                                h.multi_put([(p, Some(x)), (p + PAIR_SPAN, Some(-x))]);
                                commits += 1;
                            }
                            70..=96 => {
                                let k = zipf.sample(&mut rng);
                                assert!(h.get(&k).is_some(), "seed={seed}: account {k} vanished");
                            }
                            _ => {
                                let sum: i64 = h.snapshot().map.values().sum();
                                assert_eq!(sum, 0, "seed={seed} round={round}: a snapshot is not zero-sum");
                                snaps += 1;
                            }
                        }
                    }
                    h.retire();
                    (commits, aborts, snaps)
                })
            })
            .collect();

        // Gauges under load: everything per-shard that is bounded by
        // argument stays inside its bound while the workers run.
        let origins = (round + 1) * WORKERS;
        let ctx = format!("seed={seed} round={round}");
        while finished.load(Ordering::SeqCst) < WORKERS {
            check_gauges(&store, origins, WORKERS, &ctx);
            thread::sleep(Duration::from_millis(2));
        }
        for j in joins {
            let (c, a, n) = j.join().unwrap();
            commits += c;
            aborts += a;
            snaps += n;
        }
        // Quiescent: every multi-op ran to the end of its settle sweep
        // and every snapshot placed all its markers.
        check_gauges(&store, origins, 0, &format!("{ctx} (quiescent)"));

        if let Some(rss) = rss_mib() {
            println!("store soak: round={round} rss={rss:.1} MiB commits={commits} aborts={aborts} snapshots={snaps}");
            if round + 1 == WARMUP_ROUNDS {
                baseline = Some(rss);
            } else if let Some(base) = baseline {
                assert!(
                    rss <= base + SLACK_MIB,
                    "seed={seed} round={round}: rss {rss:.1} MiB exceeds the post-warm-up \
                     baseline {base:.1} + {SLACK_MIB} MiB bound — state is growing with history"
                );
            }
        }
    }

    let mut probe = store.handle();
    let snap = probe.snapshot();
    assert_eq!(snap.map.len() as u64, PAIRS + 2 * PAIR_SPAN, "seed={seed}: a key was lost");
    assert_eq!(snap.map.values().sum::<i64>(), 0, "seed={seed}: final state is not zero-sum");
    for p in PAIRS..PAIRS + PAIR_SPAN {
        assert_eq!(snap.map[&p], -snap.map[&(p + PAIR_SPAN)], "seed={seed}: pair {p} is torn");
    }
    assert!(commits > 0 && aborts > 0 && snaps > 0, "seed={seed}: commits={commits} aborts={aborts} snapshots={snaps}");
}
