//! Sharded wait-free KV store tour: single-key traffic, cross-shard
//! multi-key atomics, and consistent global snapshots under load.
//!
//! ```text
//! cargo run --release --example kv_store
//! ```
//!
//! On display:
//!
//! 1. A 4-shard [`ShardedStore`] — each shard an independent universal
//!    consensus log, keys routed by a seeded stable hash.
//! 2. Concurrent single-key `put`/`cas`/`fetch_update` from several
//!    threads, each touching exactly one shard log per op.
//! 3. `multi_cas` transfers between keys on *different* shards —
//!    all-or-nothing under concurrency.
//! 4. `snapshot()` while writers keep writing: every snapshot balances
//!    exactly (the transfer invariant is conserved in every cut) and
//!    epochs strictly increase.
//!
//! [`ShardedStore`]: waitfree::store::ShardedStore

use std::sync::Arc;

use waitfree::sched::atomic::{AtomicBool, Ordering};
use waitfree::sched::thread;

use waitfree::store::{Bump, ShardedStore, StoreConfig};

const ACCOUNTS: u64 = 16;
const OPENING: i64 = 1000;
const TRANSFERS_PER_THREAD: usize = 200;
const TELLERS: usize = 3;

fn main() {
    let cfg = StoreConfig { shards: 4, checkpoint_every: Some(256), ..StoreConfig::default() };
    let store: ShardedStore<u64, i64, Bump> = ShardedStore::new(&cfg);
    println!("store: {} shards, seed {:#x}", store.shards(), store.seed());

    // Open the accounts in one atomic multi-key write spanning all shards.
    let mut h = store.handle();
    h.multi_put((0..ACCOUNTS).map(|a| (a, Some(OPENING))));
    let total = OPENING * ACCOUNTS as i64;
    println!("opened {ACCOUNTS} accounts with {OPENING} each (total {total})");

    // Tellers transfer between random cross-shard account pairs with
    // multi_cas; an auditor snapshots concurrently and checks that the
    // total is conserved in every cut.
    let stop = Arc::new(AtomicBool::new(false));
    let mut tellers = Vec::new();
    for t in 0..TELLERS {
        let store = store.clone();
        tellers.push(thread::spawn(move || {
            let mut h = store.handle();
            let mut rng = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(t as u64 + 1);
            let mut committed = 0usize;
            for _ in 0..TRANSFERS_PER_THREAD {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let from = (rng >> 33) % ACCOUNTS;
                let to = (rng >> 13) % ACCOUNTS;
                if from == to {
                    continue;
                }
                let amount = 1 + (rng % 50) as i64;
                // Read both balances, then commit the transfer only if
                // neither moved — an optimistic cross-shard transaction.
                let a = h.get(&from).expect("account exists");
                let b = h.get(&to).expect("account exists");
                if a >= amount
                    && h.multi_cas(
                        [(from, Some(a)), (to, Some(b))],
                        [(from, Some(a - amount)), (to, Some(b + amount))],
                    )
                {
                    committed += 1;
                }
            }
            h.retire();
            committed
        }));
    }

    let auditor = {
        let store = store.clone();
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut h = store.handle();
            let mut snaps = 0usize;
            let mut last_epoch = 0;
            while !stop.load(Ordering::SeqCst) {
                let snap = h.snapshot();
                assert!(snap.epoch > last_epoch, "epochs strictly increase");
                last_epoch = snap.epoch;
                let sum: i64 = snap.map.values().sum();
                assert_eq!(sum, total, "snapshot {} lost money: {sum} != {total}", snap.epoch);
                snaps += 1;
            }
            h.retire();
            snaps
        })
    };

    let committed: usize = tellers.into_iter().map(|t| t.join().unwrap()).sum();
    stop.store(true, Ordering::SeqCst);
    let snaps = auditor.join().unwrap();
    println!("tellers committed {committed} cross-shard transfers");
    println!("auditor took {snaps} consistent snapshots under load — all balanced");

    // Final audit from a fresh handle, plus a per-account bonus via
    // fetch_update (one wait-free decide on one shard each).
    let mut h = store.handle();
    for a in 0..ACCOUNTS {
        h.fetch_update(a, Bump(1));
    }
    let snap = h.snapshot();
    let sum: i64 = snap.map.values().sum();
    assert_eq!(sum, total + ACCOUNTS as i64);
    println!("final snapshot (epoch {}): {} accounts, total {sum}", snap.epoch, snap.map.len());
    for s in 0..store.shards() {
        let stats = store.shard(s).stats();
        println!("shard {s}: {} checkpoints, {} segments reclaimed", stats.checkpoints, stats.reclaimed_segments);
    }
    h.retire();
}
