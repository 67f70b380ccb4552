//! Allocations per operation on the steady-state paths, as exact
//! counts. The counting allocator is per-thread, so each test prices
//! only its own operations however the harness schedules the others.
//!
//! What the budget is made of: an invoke owns one `Box<LogEntry>` (the
//! log keeps it); the announce entry is recycled through the handle's
//! free list and the collect scan allocates nothing when no other slot
//! is pending. A log segment install adds two allocations every
//! `SEGMENT_SIZE` positions (the segment and its slot array), counted
//! separately through `installed_segments`. A store `put` adds the two
//! clones of its `ShardOp` — each deep-copies `Ctx.know` — into the
//! announce entry and the log entry; the handle's own version vector is
//! lent to the op, not copied. Reads allocate nothing.

use waitfree_bench::alloc_count::{allocs_during, CountingAlloc};
use waitfree_objects::counter::{Counter, CounterOp};
use waitfree_store::{Bump, ShardedStore, StoreConfig};
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
        let segments = obj.installed_segments();
        let ((), (calls, bytes)) = allocs_during(|| {
            for _ in 0..OPS {
                if by_ref {
                    h.invoke_ref(&CounterOp::Add(1));
                } else {
                    h.invoke(CounterOp::Add(1));
                }
            }
        });
        let installs = (obj.installed_segments() - segments) as u64;
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
        (0..s.shards()).map(|i| s.shard(i).installed_segments()).sum()
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
