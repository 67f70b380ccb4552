//! The ordered map a shard keeps its keys in: the `BTreeMap` operations
//! the shard needs, with a clone that is one `Arc` increment.
//!
//! §4.1's truncating variant decides a copy of the object's state into
//! the log, and every checkpoint image, every late registrant's
//! bootstrap and every snapshot capture of a shard is such a copy. With
//! a `BTreeMap` each one walks and rebuilds the whole map. A
//! [`ShardMap`] is two levels of sorted runs instead, both behind
//! `Arc`s: a clone shares them, and a mutation copies a node only the
//! first time it touches one that is shared (copy-on-write through
//! [`Arc::make_mut`]).
//!
//! * The **top** holds `mins`, each leaf's lower bound, contiguous for
//!   the binary search, and `leaves`, the pointers to them.
//! * A **leaf** is a sorted run of at most `2·B` entries. A full
//!   leaf splits in half, except that an append past the largest key
//!   starts a new leaf, so an ascending load packs its leaves full.
//!   `remove` never rebalances: it drops an emptied leaf, and a stale
//!   `mins[i]` is still a lower bound of leaf `i`.
//!
//! So after an image is taken, the first mutation copies the top —
//! `O(|S| / B)` pointers — plus its leaf (`O(B)`), and each later
//! mutation costs `O(log(|S| / B) + B)`, copying at most its own leaf;
//! one that splits or empties a leaf also shifts the top's `O(|S| / B)`
//! pointers.
//!
//! Equality, hashing and `Debug` see the entries only, in key order,
//! as `BTreeMap`'s do: two maps holding the same entries in different
//! leaf layouts compare and hash equal, which the linearizability
//! checker (it hashes states) and replica comparison rely on.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem;
use std::sync::Arc;

/// Half the most entries a leaf holds. Picked by the traced per-op
/// costs `spec.peek_ns` (99 % Zipf gets) and `spec.apply_put_ns`
/// (uniform puts) on 16 384-key shards and by the latencies of
/// 262 144-key shards; see EXPERIMENTS.
const B: usize = 64;
/// The most entries a leaf holds.
const LEAF_CAP: usize = 2 * B;
/// How many entries [`find`] skips per step: two cache lines of
/// `(u64, i64)` entries.
const STRIDE: usize = 8;

/// A sorted run of entries, shared between the maps that cloned it.
type Leaf<K, V> = Arc<Vec<(K, V)>>;

/// An ordered map whose clone copies one pointer. See the module docs.
pub struct ShardMap<K, V> {
    len: usize,
    top: Arc<Top<K, V>>,
}

/// Invariants: `mins.len() == leaves.len()`, no leaf is empty, every
/// key of `leaves[i]` is at least `mins[i]` and below `mins[i + 1]`.
#[derive(Clone)]
struct Top<K, V> {
    mins: Vec<K>,
    leaves: Vec<Leaf<K, V>>,
}

impl<K, V> ShardMap<K, V> {
    #[must_use]
    pub fn new() -> Self {
        ShardMap { len: 0, top: Arc::new(Top { mins: Vec::new(), leaves: Vec::new() }) }
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.top.leaves.iter().flat_map(|leaf| leaf.iter().map(|(k, v)| (k, v)))
    }
}

impl<K: Ord, V> ShardMap<K, V> {
    /// The leaf whose range holds `key`: the last one whose lower bound
    /// is at most `key`, `None` below every leaf.
    fn leaf_of(&self, key: &K) -> Option<usize> {
        self.top.mins.partition_point(|m| m <= key).checked_sub(1)
    }

    #[must_use]
    pub fn get(&self, key: &K) -> Option<&V> {
        let leaf = &self.top.leaves[self.leaf_of(key)?];
        let i = find(leaf, key).ok()?;
        Some(&leaf[i].1)
    }
}

impl<K: Ord + Clone, V: Clone> ShardMap<K, V> {
    /// Insert or overwrite; the previous value, as `BTreeMap::insert`.
    pub fn insert(&mut self, key: K, val: V) -> Option<V> {
        let li = self.leaf_of(&key).unwrap_or(0);
        let Top { mins, leaves } = Arc::make_mut(&mut self.top);
        let last = li + 1 == leaves.len();
        let Some(slot) = leaves.get_mut(li) else {
            mins.push(key.clone());
            leaves.push(Arc::new(new_leaf([(key, val)])));
            self.len = 1;
            return None;
        };
        let leaf = unshare(slot);
        let i = match find(leaf, &key) {
            Ok(i) => return Some(mem::replace(&mut leaf[i].1, val)),
            Err(i) => i,
        };
        self.len += 1;
        if key < mins[li] {
            mins[li] = key.clone();
        }
        if leaf.len() < LEAF_CAP {
            leaf.insert(i, (key, val));
        } else if i == LEAF_CAP && last {
            mins.push(key.clone());
            leaves.push(Arc::new(new_leaf([(key, val)])));
        } else {
            let mut right = new_leaf(leaf.drain(B..));
            if i <= B {
                leaf.insert(i, (key, val));
            } else {
                right.insert(i - B, (key, val));
            }
            mins.insert(li + 1, right[0].0.clone());
            leaves.insert(li + 1, Arc::new(right));
        }
        None
    }

    /// Remove `key`; its value, as `BTreeMap::remove`. An absent key
    /// copies nothing.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let li = self.leaf_of(key)?;
        let i = find(&self.top.leaves[li], key).ok()?;
        let Top { mins, leaves } = Arc::make_mut(&mut self.top);
        let leaf = unshare(&mut leaves[li]);
        let (_, val) = leaf.remove(i);
        if leaf.is_empty() {
            leaves.remove(li);
            mins.remove(li);
        }
        self.len -= 1;
        Some(val)
    }
}

/// `key`'s index in `leaf`, or where it would go, as `binary_search`.
/// A forward scan, not a bisection: it skips [`STRIDE`] entries at a
/// time, then scans one stride. A leaf that is not in cache streams in
/// line after line, where a bisection waits out each probe's miss
/// before it knows the next address.
fn find<K: Ord, V>(leaf: &[(K, V)], key: &K) -> Result<usize, usize> {
    let mut i = 0;
    // progress: bounded — `i` grows by `STRIDE` and stops at the leaf's end.
    while leaf.get(i + STRIDE - 1).is_some_and(|(k, _)| k < key) {
        i += STRIDE;
    }
    let j = leaf[i..].iter().position(|(k, _)| k >= key).map_or(leaf.len(), |d| i + d);
    match leaf.get(j) {
        Some((k, _)) if k == key => Ok(j),
        _ => Err(j),
    }
}

/// The leaf behind `slot`, copied first if another map shares it.
fn unshare<K: Clone, V: Clone>(slot: &mut Leaf<K, V>) -> &mut Vec<(K, V)> {
    if Arc::get_mut(slot).is_none() {
        *slot = Arc::new(new_leaf(slot.iter().cloned()));
    }
    Arc::make_mut(slot)
}

/// A leaf sized for [`LEAF_CAP`] entries: a full leaf splits before it
/// grows, so no leaf ever reallocates.
fn new_leaf<K, V>(entries: impl IntoIterator<Item = (K, V)>) -> Vec<(K, V)> {
    let mut leaf = Vec::with_capacity(LEAF_CAP);
    leaf.extend(entries);
    leaf
}

/// One pointer copy: the clone shares every node until one side
/// mutates it.
impl<K, V> Clone for ShardMap<K, V> {
    fn clone(&self) -> Self {
        ShardMap { len: self.len, top: Arc::clone(&self.top) }
    }
}

impl<K, V> Default for ShardMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: PartialEq, V: PartialEq> PartialEq for ShardMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && (Arc::ptr_eq(&self.top, &other.top) || self.iter().eq(other.iter()))
    }
}

impl<K: Eq, V: Eq> Eq for ShardMap<K, V> {}

/// The length, then every entry in key order: blind to leaf boundaries.
impl<K: Hash, V: Hash> Hash for ShardMap<K, V> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len);
        for entry in self.iter() {
            entry.hash(state);
        }
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for ShardMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::hash::DefaultHasher;

    use waitfree_sched::rng::DetRng;

    /// A map built by inserting `entries` in the order given.
    fn build(entries: impl IntoIterator<Item = (u64, u64)>) -> ShardMap<u64, u64> {
        let mut map = ShardMap::new();
        for (k, v) in entries {
            map.insert(k, v);
        }
        map
    }

    fn hash_of<T: Hash>(t: &T) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    /// Contents, length and key order agree with the model.
    fn assert_matches(map: &ShardMap<u64, u64>, model: &BTreeMap<u64, u64>, at: &str) {
        assert_eq!(map.len(), model.len(), "{at}: len");
        assert!(map.iter().eq(model.iter()), "{at}: iter");
    }

    /// Random `insert`, `remove`, `get`, `iter` and `len` against a
    /// `BTreeMap`, over key ranges that force splits, emptied leaves
    /// and inserts below every leaf. Every few steps a clone is taken
    /// and mutated: the original's contents and hash stay put.
    #[test]
    fn matches_a_btreemap_model_on_random_streams() {
        for seed in 1..=64u64 {
            let mut rng = DetRng::new(seed);
            let span = [64, 1_000, 20_000][seed as usize % 3];
            let (mut map, mut model) = (ShardMap::new(), BTreeMap::new());
            for step in 0..3_000u64 {
                let at = format!("seed {seed} step {step}");
                let key = rng.below(span) as u64;
                match rng.below(10) {
                    0..=4 => assert_eq!(map.insert(key, step), model.insert(key, step), "{at}: insert {key}"),
                    5..=7 => assert_eq!(map.remove(&key), model.remove(&key), "{at}: remove {key}"),
                    _ => assert_eq!(map.get(&key), model.get(&key), "{at}: get {key}"),
                }
                if step % 97 == 0 {
                    assert_matches(&map, &model, &at);
                    let before = hash_of(&map);
                    let mut fork = map.clone();
                    let mut fork_model = model.clone();
                    for _ in 0..rng.below(300) {
                        let k = rng.below(span) as u64;
                        if rng.below(2) == 0 {
                            fork.insert(k, u64::MAX - step);
                            fork_model.insert(k, u64::MAX - step);
                        } else {
                            fork.remove(&k);
                            fork_model.remove(&k);
                        }
                    }
                    assert_matches(&fork, &fork_model, &at);
                    assert_matches(&map, &model, &format!("{at}: the fork wrote through"));
                    assert_eq!(hash_of(&map), before, "{at}: the fork moved the original's hash");
                    assert_eq!(fork == map, fork_model == model, "{at}");
                }
            }
            assert_matches(&map, &model, &format!("seed {seed} end"));
        }
    }

    /// Ascending, descending and shuffled loads leave different leaf
    /// boundaries (full leaves, half-full ones, a mix); the maps are
    /// still equal and hash equal, and so are they after removing the
    /// same keys, which empties different leaves in each.
    #[test]
    fn build_order_changes_neither_equality_nor_hash() {
        for seed in 1..=64u64 {
            let mut rng = DetRng::new(seed);
            let n = 200 + rng.below(3_000) as u64;
            let mut keys: Vec<u64> = (0..n).map(|k| k * 3).collect();
            let load = |keys: &[u64]| build(keys.iter().map(|&k| (k, k ^ seed)));
            let up = load(&keys);
            keys.reverse();
            let down = load(&keys);
            rng.shuffle(&mut keys);
            let shuffled = load(&keys);
            let mut maps = [up, down, shuffled];
            for round in 0..2 {
                let at = format!("seed {seed} round {round}");
                let [a, b, c] = &maps;
                assert!(a == b && b == c, "{at}: build order changed equality");
                assert_eq!(hash_of(a), hash_of(b), "{at}: ascending vs descending hash");
                assert_eq!(hash_of(a), hash_of(c), "{at}: ascending vs shuffled hash");
                assert_eq!(format!("{a:?}"), format!("{c:?}"), "{at}");
                let gone: Vec<u64> = keys.iter().copied().filter(|k| k % 2 == 0 || k % 5 == 0).collect();
                for m in &mut maps {
                    for k in &gone {
                        m.remove(k);
                    }
                }
            }
            let mut other = maps[0].clone();
            other.insert(1, 1);
            assert_ne!(other, maps[0], "seed {seed}");
        }
    }

    /// An ascending load packs its leaves full; a clone shares every
    /// node, and the first write copies the top and one leaf only.
    #[test]
    fn clones_share_until_written() {
        let map = build((0..10 * LEAF_CAP as u64).map(|k| (k, k)));
        assert_eq!(map.top.leaves.len(), 10, "ascending load left part-full leaves");
        let mut image = map.clone();
        assert!(Arc::ptr_eq(&map.top, &image.top));
        image.insert(3, 0);
        assert!(!Arc::ptr_eq(&map.top, &image.top));
        let shared = map.top.leaves.iter().zip(&image.top.leaves).filter(|(a, b)| Arc::ptr_eq(a, b)).count();
        assert_eq!(shared, 9, "one write copied more than its leaf");
        assert_eq!((map.get(&3), image.get(&3)), (Some(&3), Some(&0)));
    }
}
