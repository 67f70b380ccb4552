//! The correctness oracle: what the inline checks and the quiescent
//! end-of-run check accept. Pure functions over plain maps, so the
//! self-tests can hand them a torn one.

use std::collections::BTreeMap;
use std::sync::Arc;

use waitfree_sched::thread;

use crate::rng::Zipf;
use crate::workload::{initial_value, KvShape, Op, OpGen, Workload, CLIENTS};

/// "This client never wrote this key."
const NEVER: i64 = i64::MIN;

/// What the clients' regenerated streams say the final state may be.
#[derive(Clone, Debug, Default)]
pub struct Expect {
    /// `FetchAndAdd`s each client made.
    pub adds: [u64; CLIENTS],
    /// `last[c][k]`: the last value client `c` wrote to key `k` (for a
    /// paired store: the last `x` written to pair `k`), or [`NEVER`].
    pub last: [Vec<i64>; CLIENTS],
}

impl Expect {
    /// Regenerate each client's stream for the `ops[c]` ops it
    /// executed and keep the last write per key.
    #[must_use]
    pub fn regenerate(w: &'static Workload, seed: u64, zipf: &Option<Arc<Zipf>>, ops: [u64; CLIENTS]) -> Self {
        // One thread per stream: a read-mostly run regenerates tens of
        // millions of ops.
        let threads: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mut gen = OpGen::new(w, seed, c, zipf.clone());
                thread::spawn(move || {
                    let (mut adds, mut last) = (0, vec![NEVER; w.keys() as usize]);
                    for _ in 0..ops[c] {
                        match gen.next_op() {
                            Op::Add => adds += 1,
                            Op::Put(k, v) | Op::MultiPut2(k, v) => last[k as usize] = v,
                            _ => {}
                        }
                    }
                    (adds, last)
                })
            })
            .collect();
        let mut e = Expect::default();
        for (c, t) in threads.into_iter().enumerate() {
            (e.adds[c], e.last[c]) = t.join().expect("regeneration does not panic");
        }
        e
    }

    fn allows(&self, k: u64, v: i64) -> bool {
        v == initial_value(k) || self.last.iter().any(|l| l[k as usize] == v)
    }
}

/// The counter's two packed per-client op counts.
#[must_use]
pub fn counter_fields(v: i64) -> [u64; CLIENTS] {
    [v as u64 & 0xffff_ffff, v as u64 >> 32]
}

/// The value the preload writes under `k`: the key's initial value,
/// negated for the upper key of a pair.
#[must_use]
pub fn preload_value(shape: &KvShape, k: u64) -> i64 {
    let half = shape.keys / 2;
    if shape.paired && k >= half {
        -initial_value(k - half)
    } else {
        initial_value(k)
    }
}

/// The free check every `snapshot()` gets: all keys present and, on a
/// paired store, the total zero — a cut that splits a `multi_put`
/// breaks it (each `x` is unique, so torn halves cannot cancel).
#[must_use]
pub fn snapshot_ok(shape: &KvShape, map: &BTreeMap<u64, i64>) -> bool {
    map.len() as u64 == shape.keys && (!shape.paired || map.values().sum::<i64>() == 0)
}

/// The quiescent check: `snap` equals a `get` of every key, and every
/// key holds its initial value or the last write one of the clients
/// made to it. Returns `(checks made, checks failed)`.
pub fn final_check(
    shape: &KvShape,
    snap: &BTreeMap<u64, i64>,
    mut get: impl FnMut(u64) -> Option<i64>,
    expect: &Expect,
) -> (u64, u64) {
    let mut failed = u64::from(!snapshot_ok(shape, snap));
    let half = shape.keys / 2;
    for k in 0..shape.keys {
        let got = get(k);
        let ok = got.is_some()
            && got == snap.get(&k).copied()
            && match got {
                Some(v) if shape.paired && k >= half => snap.get(&(k - half)) == Some(&-v),
                Some(v) => expect.allows(k, v),
                None => false,
            };
        failed += u64::from(!ok);
    }
    (shape.keys + 1, failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{by_name, encode, Sut};

    fn txn_shape() -> KvShape {
        match by_name("kv_txn").unwrap().sut {
            Sut::Kv(s) => s,
            Sut::Counter { .. } => unreachable!(),
        }
    }

    fn preloaded(shape: &KvShape) -> BTreeMap<u64, i64> {
        (0..shape.keys).map(|k| (k, preload_value(shape, k))).collect()
    }

    #[test]
    fn a_torn_snapshot_is_counted() {
        let shape = txn_shape();
        let mut map = preloaded(&shape);
        assert!(snapshot_ok(&shape, &map));
        // A committed multi_put of x to pair 7 …
        let x = encode(7, 1, 99);
        map.insert(7, x);
        map.insert(7 + 2048, -x);
        assert!(snapshot_ok(&shape, &map));
        // … and a cut that shows only one half of the next one.
        map.insert(7, encode(7, 2, 100));
        assert!(!snapshot_ok(&shape, &map), "half-applied multi_put must not pass");
        // A missing key is torn too.
        let mut short = preloaded(&shape);
        short.remove(&4095);
        assert!(!snapshot_ok(&shape, &short));
    }

    #[test]
    fn final_check_counts_each_bad_key_once() {
        let shape = txn_shape();
        let w = by_name("kv_txn").unwrap();
        let expect = Expect::regenerate(w, 1, &None, [1000, 1000]);
        // Apply both regenerated streams in some order: the result is
        // allowed whatever the interleaving was.
        let mut map = preloaded(&shape);
        for c in 0..CLIENTS {
            for (k, &x) in expect.last[c].iter().enumerate().filter(|(_, &x)| x != NEVER) {
                map.insert(k as u64, x);
                map.insert(k as u64 + 2048, -x);
            }
        }
        let good = map.clone();
        assert_eq!(final_check(&shape, &good, |k| good.get(&k).copied(), &expect), (4097, 0));
        // A value nobody wrote last: one failure, at that key.
        let mut stale = good.clone();
        stale.insert(3, encode(3, 1, 1 << 30));
        stale.insert(3 + 2048, -encode(3, 1, 1 << 30));
        assert_eq!(final_check(&shape, &stale, |k| stale.get(&k).copied(), &expect).1, 1);
        // get and snapshot disagree on one key.
        let (_, failed) = final_check(
            &shape,
            &good,
            |k| {
                if k == 9 {
                    Some(1)
                } else {
                    good.get(&k).copied()
                }
            },
            &expect,
        );
        assert_eq!(failed, 1);
    }

    #[test]
    fn counter_fields_unpack_both_clients() {
        assert_eq!(counter_fields(5 + (7 << 32)), [5, 7]);
    }
}
