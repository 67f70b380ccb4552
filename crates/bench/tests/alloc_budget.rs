//! Allocations per operation on the steady-state paths, as exact
//! counts. The counting allocator is per-thread, so each test prices
//! only its own operations however the harness schedules the others.
//!
//! What the budget is made of: an invoke owns one `Box<LogEntry>` (the
//! log keeps it); the announce entry is recycled through the handle's
//! free list and the collect scan allocates nothing when no other slot
//! is pending. A log segment install adds two allocations every
//! `SEGMENT_SIZE` positions (the segment and its slot array), counted
//! separately through `stats().installed_segments`. A store `put` adds
//! the two clones of its `ShardOp` — each deep-copies `Ctx.know` — into
//! the announce entry and the log entry; the handle's own version
//! vector is lent to the op, not copied. Reads and `stats()` snapshots
//! allocate nothing. A shard image (a `ShardState` clone) shares its key
//! map, so it and the bootstrap of a late registrant allocate the same
//! whatever the shard holds.

use waitfree_bench::alloc_count::{allocs_during, net_live_during, CountingAlloc};
use waitfree_objects::counter::{Counter, CounterOp};
use waitfree_model::{ObjectSpec, Pid};
use waitfree_store::{Bump, Ctx, ShardOp, ShardState, ShardedStore, StoreConfig};
use waitfree_sync::universal::{UniversalConfig, WfUniversal, SEGMENT_SIZE};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Ops before measuring: several times the announce-limbo sweep cadence
/// (`ENTRY_LIMBO_SWEEP`, 8, private to `universal/decide.rs`), so the limbo,
/// free-list and hazard scratch vectors have reached their capacity.
const WARMUP: usize = 4 * SEGMENT_SIZE;
/// Measured ops: a whole number of segments, so the installs inside the
/// window are exactly `OPS / SEGMENT_SIZE` per log wherever it starts.
const OPS: usize = 10 * SEGMENT_SIZE;

#[test]
fn solo_counter_invoke_allocates_once_per_op() {
    let obj = WfUniversal::with_config(Counter::new(0), UniversalConfig::default());
    let mut h = obj.register();
    for _ in 0..WARMUP {
        h.invoke(CounterOp::Add(1));
    }
    for by_ref in [false, true] {
        let segments = obj.stats().installed_segments;
        let ((), (calls, bytes)) = allocs_during(|| {
            for _ in 0..OPS {
                if by_ref {
                    h.invoke_ref(&CounterOp::Add(1));
                } else {
                    h.invoke(CounterOp::Add(1));
                }
            }
        });
        let installs = (obj.stats().installed_segments - segments) as u64;
        println!(
            "counter invoke (by_ref={by_ref}): {calls} allocs / {bytes} bytes over {OPS} ops, \
             {installs} segment installs"
        );
        assert_eq!(installs, (OPS / SEGMENT_SIZE) as u64);
        assert_eq!(calls - 2 * installs, OPS as u64, "one LogEntry box per invoke, nothing else");
    }
}

#[test]
fn caught_up_read_allocates_nothing() {
    let obj = WfUniversal::with_config(Counter::new(0), UniversalConfig::default());
    let mut h = obj.register();
    for _ in 0..WARMUP {
        h.invoke(CounterOp::Add(1));
    }
    let ((), (calls, _)) = allocs_during(|| {
        for _ in 0..OPS {
            assert_eq!(h.read(Counter::value), WARMUP as i64);
        }
    });
    println!("counter read: {calls} allocs over {OPS} reads");
    assert_eq!(calls, 0);
    let ((), (calls, _)) = allocs_during(|| {
        for _ in 0..OPS {
            assert_eq!((obj.stats().registry_slots, h.stats().invokes), (1, WARMUP));
        }
    });
    println!("stats: {calls} allocs over {OPS} object and handle snapshots");
    assert_eq!(calls, 0);
}

#[test]
fn store_put_and_get_stay_within_budget() {
    const KEYS: u64 = 64;
    let store: ShardedStore<u64, i64, Bump> = ShardedStore::new(&StoreConfig::default());
    let mut h = store.handle();
    for i in 0..WARMUP as u64 {
        h.put(i % KEYS, 0);
    }
    let segments = |s: &ShardedStore<u64, i64, Bump>| -> usize {
        (0..s.shards()).map(|i| s.shard(i).stats().installed_segments).sum()
    };
    let before = segments(&store);
    let ((), (calls, bytes)) = allocs_during(|| {
        for i in 0..OPS as u64 {
            h.put(i % KEYS, i as i64);
        }
    });
    let installs = (segments(&store) - before) as u64;
    println!(
        "store put: {calls} allocs / {bytes} bytes over {OPS} puts, {installs} segment installs"
    );
    assert!(
        calls - 2 * installs <= 3 * OPS as u64,
        "a put on a warmed key allocates its LogEntry box and two ctx vectors at most: \
         {calls} allocs, {installs} installs, {OPS} puts"
    );

    let ((), (calls, _)) = allocs_during(|| {
        for i in 0..OPS as u64 {
            assert!(h.get(&(i % KEYS)).is_some());
        }
    });
    println!("store get: {calls} allocs over {OPS} gets");
    assert_eq!(calls, 0);
}

/// A shard image shares its key map: cloning a `ShardState` allocates
/// the same on 16 384 keys as on 262 144 — its small vectors, not a
/// node per few keys.
#[test]
fn shard_image_clone_is_constant_size() {
    let image_allocs = |keys: u64| {
        let mut st: ShardState<u64, i64, Bump> = ShardState::new(0, 1, 0);
        for key in 0..keys {
            st.apply(Pid(0), &ShardOp::Put { key, val: Some(key as i64), ctx: Ctx { epoch: 0, know: Vec::new() } });
        }
        let (image, (calls, bytes)) = allocs_during(|| st.clone());
        println!("shard image clone: {calls} allocs / {bytes} bytes for {keys} keys");
        assert!(image == st);
        calls
    };
    let (small, large) = (image_allocs(16_384), image_allocs(262_144));
    assert_eq!(small, large, "the image grew with the shard");
    assert!(large <= 2, "{large} allocations for one shard image");
}

/// Registering a handle on a checkpointed store bootstraps every shard
/// from its latest image: it allocates the same on 1 024 keys as on
/// 65 536.
#[test]
fn store_handle_bootstrap_is_constant_size() {
    let register_allocs = |keys: u64| {
        let cfg = StoreConfig { shards: 4, checkpoint_every: Some(64), ..StoreConfig::default() };
        let store: ShardedStore<u64, i64, Bump> = ShardedStore::new(&cfg);
        let mut loader = store.handle();
        for key in 0..keys {
            loader.put(key, key as i64);
        }
        let checkpoints: Vec<usize> = (0..store.shards()).map(|s| store.shard(s).stats().checkpoints).collect();
        let (h, (calls, bytes)) = allocs_during(|| store.handle());
        println!("store handle: {calls} allocs / {bytes} bytes on {keys} keys, {checkpoints:?} checkpoints");
        assert!(checkpoints.iter().all(|&c| c > 0), "every shard has an image to bootstrap from");
        drop(h);
        calls
    };
    assert_eq!(register_allocs(1_024), register_allocs(65_536), "the bootstrap grew with the store");
}

/// A checkpointed counter's live memory stays flat however long it
/// runs. With one handle and `checkpoint_every = SEGMENT_SIZE`, the net
/// bytes the handle leaves live (allocated minus freed, counted per
/// thread, so exact) over 64 checkpoint windows equal those over 16,
/// give or take what one window allocates: one segment (its entries,
/// header and slot array) plus one image. The two are not equal outright
/// because a checkpoint takes a log position too, so a window of
/// `SEGMENT_SIZE` invokes spans one segment and a little more. A reclaim
/// sweep that counts a segment reclaimed without freeing it leaves one
/// more segment live per window, which no RSS slack can hide here.
#[test]
fn checkpointed_counter_live_bytes_stay_flat() {
    let cfg = UniversalConfig { checkpoint_every: Some(SEGMENT_SIZE), ..UniversalConfig::default() };
    let obj = WfUniversal::with_config(Counter::new(0), cfg);
    let mut h = obj.register();
    let mut windows = |n: usize| {
        net_live_during(|| {
            for _ in 0..n * SEGMENT_SIZE {
                h.invoke(CounterOp::Add(1));
            }
        })
        .1
    };
    windows(8);
    let (_, (_, window)) = allocs_during(|| windows(1));
    let (_, short) = windows(16);
    let (_, long) = windows(64);
    let stats = obj.stats();
    println!(
        "checkpointed counter: net {short} bytes live over 16 windows, {long} over 64; \
         one window allocates {window} bytes; {} checkpoints, {} of {} segments reclaimed",
        stats.checkpoints, stats.reclaimed_segments, stats.installed_segments
    );
    assert!(stats.checkpoints >= 88 && stats.reclaimed_segments >= 80, "{stats:?}");
    assert!(
        (long - short).unsigned_abs() <= window,
        "live bytes grew with the run: {short} over 16 windows, {long} over 64 \
         (tolerance {window}, one window's allocation)"
    );
}
