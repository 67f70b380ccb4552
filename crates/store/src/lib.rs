//! # waitfree-store — a sharded universal KV store
//!
//! One universal object serializes every operation through one
//! consensus log (Herlihy §4); this crate scales that construction out:
//! a [`ShardedStore`] composes N **independent** `WfUniversal` logs
//! behind a seeded key→shard router ([`router::route`]). Three op
//! classes, three protocols:
//!
//! * **Single-key mutations** (`put`/`remove`/`cas`/`fetch_update`)
//!   decide into exactly one shard's log — one decided op in the
//!   uncontended case — inheriting that log's wait-free helping bound
//!   unchanged. Keys on different shards no longer contend on a CAS
//!   point at all. **Reads are log-free**: `get` (and the batched
//!   `multi_get`) answer from the caller's shard replica caught up to
//!   an observed decided frontier (`WfHandle::read`), linearized at
//!   the frontier load — zero log appends, zero shared-log RMWs, so
//!   readers never contend with writers for log positions. §4.1 needs
//!   consensus only to order mutations; a read linearizes wherever its
//!   observed frontier sits. The decided-read path survives as
//!   [`StoreHandle::get_decided`] (a log-ordered linearization
//!   witness, and the reference the local ≡ decided read tests compare
//!   `get` against).
//!
//! * **Multi-key atomic ops** (`multi_put`/`multi_cas`) run a
//!   two-phase protocol *through the logs*: a full descriptor is
//!   decide-ordered (`Prepare`) into every involved shard's log in
//!   **canonical ascending shard order**, votes are gathered, then the
//!   unanimous verdict is decided (`Resolve`) into the same logs.
//!   Locks are acquired whole-shard-atomically and only in ascending
//!   order, so no hold-and-wait cycle can form (DESIGN §10). Because
//!   the descriptor is replicated to every involved shard, *any*
//!   client that runs into its locks can finish it: conflicting ops
//!   receive the full holder descriptor and **help** the stalled
//!   multi-op to resolution before retrying, so a client that crashes
//!   mid-multi-op never wedges a key. Multi-op ids are **per
//!   originator**: a handle draws a never-reused origin id once and
//!   counts its own multi-ops locally, one at a time, so each shard
//!   remembers one tombstone per originator instead of one per
//!   multi-op and a shard's state image does not grow with its commit
//!   history.
//!
//! * **Consistent global snapshots** ([`StoreHandle::snapshot`])
//!   decide a `Marker{epoch}` entry into every shard's log through the
//!   ordinary consensus CAS — the same way PR 7's checkpoints enter
//!   the log — and assemble the per-shard captures. Cross-shard
//!   consistency comes from an epoch stamp rule (every mutation
//!   carries the epoch its client read before invoking; a mutation
//!   stamped at-or-after an open snapshot that reaches a shard before
//!   that snapshot's marker triggers a pre-mutation *early capture*)
//!   plus a torn-multi repair pass at assembly. In debug builds the
//!   assembled cut is verified with a vector-clock consistency check
//!   (`know[s][t] <= version[t]`, the same invariant
//!   `waitfree_sched::hb` enforces on memory traces).
//!
//! Every shard is one `WfUniversal` —
//! [`ShardedStore::handle`] registers on every shard, handles retire —
//! checkpointed and truncated at [`StoreConfig::checkpoint_every`], so
//! the store exercises every layer of the universal object at once.
//!
//! ## Progress guarantees, stated honestly
//!
//! Single-key mutations on keys not touched by any in-flight multi-op
//! are wait-free with the per-shard `O(n)` helping bound; uncontended
//! reads are wait-free with *no* helping at all (the replay gap is
//! fixed at the frontier load). Any op — reads included — that hits a
//! multi-op's lock helps that multi-op to completion first (itself a
//! bounded number of decides over its involved shards) and retries;
//! under a *continuous* adversarial stream of conflicting multi-ops
//! this degrades to lock-freedom (some multi-op always completes), the
//! standard trade for multi-object atomicity without a global log.
//! `get` cannot be exempted from this, log-free or not: a committed
//! multi-op's writes land on its shards at different log positions, so
//! a reader that ignored the locks could see one shard after the
//! resolve and another before it — a half-applied multi-op no
//! linearization of the flat-map spec allows. The local read path
//! keeps the rule because the replica it reads *is* the decided
//! prefix: a lock visible at the observed frontier blocks the read
//! ([`ShardState::peek`]), and DESIGN §11 gives the happens-before
//! argument for why a frontier that shows one shard's resolve always
//! shows every sibling shard's prepare.
//!
//! ## Failpoints
//!
//! With the `failpoints` feature the front-end exposes `store::route`
//! (before every single-key routing decision — one per op; a
//! helped-multi retry re-stamps the context but does not re-route),
//! `store::multi` (before every per-shard step of a multi-op, prepares
//! and resolves), and `store::snapshot` (before every per-shard marker
//! decide), composing with the `universal::*` sites underneath —
//! including `universal::read` on the log-free `get`/`multi_get` path.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::hash::Hash;
use std::mem;
use std::sync::Arc;

use waitfree_faults::failpoint;
use waitfree_sched::atomic::{AtomicU64, Ordering};
use waitfree_sync::universal::{UniversalConfig, WfHandle, WfUniversal};

pub mod model;
pub mod router;
pub mod spec;

pub use model::{StoreModel, StoreOp, StoreResp};
pub use router::route;
pub use spec::{
    Bump, Ctx, Merge, MultiDesc, MultiId, Peek, PendingMulti, ShardOp, ShardResp, ShardState, ShardStats, SnapPart,
};

/// Construction parameters for a [`ShardedStore`].
#[derive(Clone, Debug)]
pub struct StoreConfig {
    /// Number of independent shard logs. Must be at least 1.
    pub shards: usize,
    /// Router seed: determines the key partition (stable across
    /// processes — see [`router`]).
    pub seed: u64,
    /// Per-shard op budget for each registered [`StoreHandle`]
    /// (multi-key ops and helping consume several per shard): every
    /// shard's [`UniversalConfig::max_ops`]. It sizes nothing; the
    /// default outlasts any process.
    pub ops_per_handle: usize,
    /// Every shard's [`UniversalConfig::checkpoint_every`]: decide a
    /// checkpoint image into the shard's log every this many positions
    /// and reclaim the segments behind it. `None` = unbounded logs.
    pub checkpoint_every: Option<usize>,
    /// Every shard's [`UniversalConfig::cap`] (`LogFull` beyond it).
    /// `None` = grow on demand. Mutually exclusive with
    /// `checkpoint_every`.
    pub capacity: Option<usize>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            shards: 4,
            seed: 0x5eed_5709_e5ca_1ab1,
            ops_per_handle: UniversalConfig::default().max_ops,
            checkpoint_every: None,
            capacity: None,
        }
    }
}

/// The sharded store: N independent consensus logs plus the two shared
/// words the cross-shard protocols need: the snapshot epoch, and the
/// allocator that names each multi-op originator once. Cheap to clone
/// (`Arc`-shared); per-thread access goes through
/// [`ShardedStore::handle`].
pub struct ShardedStore<K, V, M = ()>
where
    K: Clone + Ord + Hash + Debug,
    V: Clone + Eq + Hash + Debug,
    M: Merge<V>,
{
    shards: Vec<WfUniversal<ShardState<K, V, M>>>,
    /// Global snapshot epoch. `snapshot()` opens epoch `e` by
    /// fetch-add; every mutating op stamps the value it read *before*
    /// invoking (the stamp rule, see `spec` module docs).
    epoch: Arc<AtomicU64>,
    /// Next unissued multi-op origin id ([`MultiId::origin`]): one
    /// fetch-add per handle that ever runs a multi-op, none per op.
    next_origin: Arc<AtomicU64>,
    seed: u64,
}

impl<K, V, M> Clone for ShardedStore<K, V, M>
where
    K: Clone + Ord + Hash + Debug,
    V: Clone + Eq + Hash + Debug,
    M: Merge<V>,
{
    fn clone(&self) -> Self {
        ShardedStore {
            shards: self.shards.clone(),
            epoch: Arc::clone(&self.epoch),
            next_origin: Arc::clone(&self.next_origin),
            seed: self.seed,
        }
    }
}

impl<K, V, M> ShardedStore<K, V, M>
where
    K: Clone + Ord + Hash + Debug + Send + Sync + 'static,
    V: Clone + Eq + Hash + Debug + Send + Sync + 'static,
    M: Merge<V> + Send + Sync + 'static,
{
    /// Build a store per `cfg`: `cfg.shards` universal objects, each
    /// with the batch-combining [`UniversalConfig`] that `cfg`'s
    /// `checkpoint_every`, `capacity` and `ops_per_handle` describe.
    ///
    /// # Panics
    /// If `cfg.shards == 0`, or `cfg`'s log settings are ones
    /// [`WfUniversal::with_config`] rejects (a zero cadence, or both
    /// `checkpoint_every` and `capacity`: a capped log cannot also
    /// truncate).
    #[must_use]
    pub fn new(cfg: &StoreConfig) -> Self {
        assert!(cfg.shards > 0, "a store has at least one shard");
        let log = UniversalConfig {
            checkpoint_every: cfg.checkpoint_every,
            cap: cfg.capacity,
            max_ops: cfg.ops_per_handle,
        };
        let shards = (0..cfg.shards)
            .map(|s| WfUniversal::with_config(ShardState::new(s, cfg.shards, cfg.seed), log))
            .collect();
        ShardedStore {
            shards,
            epoch: Arc::new(AtomicU64::new(0)),
            next_origin: Arc::new(AtomicU64::new(0)),
            seed: cfg.seed,
        }
    }

    /// Number of shard logs.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The router seed (fixed at construction).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shard owning `key`.
    #[must_use]
    pub fn shard_of(&self, key: &K) -> usize {
        route(self.seed, self.shards.len(), key)
    }

    /// Direct access to one shard's universal object (diagnostics,
    /// tests).
    #[must_use]
    pub fn shard(&self, s: usize) -> &WfUniversal<ShardState<K, V, M>> {
        &self.shards[s]
    }

    /// Register on every shard and return a per-thread handle.
    /// Wait-free (N wait-free registrations).
    #[must_use]
    pub fn handle(&self) -> StoreHandle<K, V, M> {
        StoreHandle {
            shards: self.shards.iter().map(WfUniversal::register).collect(),
            epoch: Arc::clone(&self.epoch),
            next_origin: Arc::clone(&self.next_origin),
            origin: None,
            next_seq: 0,
            inflight: None,
            seed: self.seed,
            seen: vec![0; self.shards.len()],
        }
    }
}

/// The result of one consistent global snapshot.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Snapshot<K: Ord, V> {
    /// The snapshot epoch (unique per snapshot, monotonically
    /// increasing).
    pub epoch: u64,
    /// The assembled, torn-multi-repaired global map.
    pub map: BTreeMap<K, V>,
}

/// Per-thread access to a [`ShardedStore`]: one registered `WfHandle`
/// per shard plus this client's observed-version vector. Not `Sync` —
/// one handle per thread, like `WfHandle` itself.
pub struct StoreHandle<K, V, M = ()>
where
    K: Clone + Ord + Hash + Debug,
    V: Clone + Eq + Hash + Debug,
    M: Merge<V>,
{
    shards: Vec<WfHandle<ShardState<K, V, M>>>,
    epoch: Arc<AtomicU64>,
    next_origin: Arc<AtomicU64>,
    /// This handle's multi-op origin id, drawn at its first multi-op —
    /// a handle that only reads or writes single keys consumes none.
    origin: Option<u32>,
    /// Seq of this handle's next multi-op (a plain local counter).
    next_seq: u64,
    /// The multi-op this handle originated and has not yet driven to
    /// the end of `run_multi`: `Some` on entry to a new multi-op only
    /// after a *caught* crash mid-multi, and then finished first — the
    /// per-origin tombstone rule ([`MultiId`]) needs `(o, s)` complete
    /// everywhere before `(o, s + 1)` exists.
    inflight: Option<Arc<MultiDesc<K, V>>>,
    seed: u64,
    /// Highest shard versions observed in responses, indexed by shard;
    /// stamped onto every mutating op for the snapshot cut check. A
    /// flat vector (shard count is fixed at construction), and stamping
    /// copies nothing: the vector is *lent* to the op for the duration
    /// of each invoke ([`Self::invoke_stamped`]) and is back in place
    /// before anything else reads it.
    seen: Vec<u64>,
}

/// Returns the lent observed-version vector from the op's ctx to the
/// handle when the invoke ends — by return or by unwinding, so a handle
/// reused after a caught crash still has it.
struct Lent<'a, K: Ord, V, M> {
    seen: &'a mut Vec<u64>,
    op: &'a mut ShardOp<K, V, M>,
}

impl<K: Ord, V, M> Drop for Lent<'_, K, V, M> {
    fn drop(&mut self) {
        if let Some(ctx) = self.op.ctx_mut() {
            *self.seen = mem::take(&mut ctx.know);
        }
    }
}

impl<K, V, M> StoreHandle<K, V, M>
where
    K: Clone + Ord + Hash + Debug,
    V: Clone + Eq + Hash + Debug,
    M: Merge<V>,
{
    fn nshards(&self) -> usize {
        self.shards.len()
    }

    fn observe(&mut self, shard: usize, version: u64) {
        if version > self.seen[shard] {
            self.seen[shard] = version;
        }
    }

    /// Decide a ctx-free `op` (`Get`, `Marker`) into `shard`'s log and
    /// record the observed version.
    fn invoke(&mut self, shard: usize, op: ShardOp<K, V, M>) -> ShardResp<K, V> {
        let resp = self.shards[shard].invoke(op);
        self.observe(shard, resp_version(&resp));
        resp
    }

    /// Stamp `op`'s ctx and decide it into `shard`'s log — the one way
    /// a mutating op gets there. The stamp is the epoch read *now*
    /// (before the invoke — the ordering the snapshot argument needs)
    /// plus the observed-version vector, which is lent to the op, not
    /// copied: it is back in `seen` before the response's version is
    /// recorded, hence before any `Blocked` → help → re-stamp retry.
    /// The op is borrowed so those retries re-propose it without
    /// rebuilding its payload (`WfHandle::invoke_ref` clones it once
    /// per attempt, into the announce entry).
    fn invoke_stamped(&mut self, shard: usize, op: &mut ShardOp<K, V, M>) -> ShardResp<K, V> {
        let ctx = op.ctx_mut().expect("only ctx-carrying ops are stamped");
        ctx.epoch = self.epoch.load(Ordering::SeqCst);
        ctx.know = mem::take(&mut self.seen);
        let lent = Lent { seen: &mut self.seen, op };
        let resp = self.shards[shard].invoke_ref(lent.op);
        drop(lent);
        self.observe(shard, resp_version(&resp));
        resp
    }

    /// Read one key — **log-free**. The value comes from this handle's
    /// shard replica caught up to the decided frontier observed on
    /// entry ([`WfHandle::read`]): no log append, no shared-log RMW, no
    /// allocation, linearized at the frontier load. Wait-free with no
    /// helping when the key is not under a multi-op lock; a key locked
    /// at the observed frontier hands back the holder descriptor — the
    /// reader helps that multi-op to completion and retries, exactly
    /// like every mutator, so a cross-shard multi-op can never be
    /// observed half-applied (module docs; DESIGN §11).
    ///
    /// For a read that is *decide-ordered* into the shard log (a
    /// linearization witness at a known log position), see
    /// [`Self::get_decided`].
    pub fn get(&mut self, key: &K) -> Option<V> {
        failpoint!("store::route");
        let s = route(self.seed, self.nshards(), key);
        // progress: wait-free — a retry only follows helping the blocking
        // multi-op to completion, so iterations are bounded by the multi-ops
        // admitted before this read's frontier (DESIGN §11).
        loop {
            match self.shards[s].read(|st| st.peek(key)) {
                Ok((val, version)) => {
                    self.observe(s, version);
                    return val;
                }
                Err(holder) => {
                    self.run_multi(&holder);
                }
            }
        }
    }

    /// Read several keys, log-free, with one frontier read per involved
    /// shard: keys routed to the same shard are read from the *same*
    /// observed frontier (mutually consistent), keys on different
    /// shards are independent reads — semantically a sequence of
    /// [`Self::get`]s, one per shard, in ascending shard order. For a
    /// consistent cross-shard cut use [`Self::snapshot`]. Returns
    /// values in input-key order. Helps and retries past conflicting
    /// multi-ops like `get`.
    pub fn multi_get(&mut self, keys: &[K]) -> Vec<Option<V>> {
        let n = self.nshards();
        let mut out: Vec<Option<V>> = vec![None; keys.len()];
        // `(shard, key index)`, sorted: each run of equal shards is one
        // frontier read, runs in ascending shard order.
        let mut by_shard: Vec<(usize, usize)> = Vec::with_capacity(keys.len());
        for (i, k) in keys.iter().enumerate() {
            failpoint!("store::route");
            by_shard.push((route(self.seed, n, k), i));
        }
        by_shard.sort_unstable();
        for run in by_shard.chunk_by(|a, b| a.0 == b.0) {
            let s = run[0].0;
            // progress: wait-free — as in `get`: each retry first completes the
            // blocking multi-op, bounding iterations by the admitted multi-ops.
            loop {
                let r = self.shards[s].read(|st| st.peek_many(run.iter().map(|&(_, i)| &keys[i])));
                match r {
                    Ok((vals, version)) => {
                        self.observe(s, version);
                        for (&(_, i), v) in run.iter().zip(vals) {
                            out[i] = v;
                        }
                        break;
                    }
                    Err(holder) => {
                        self.run_multi(&holder);
                    }
                }
            }
        }
        out
    }

    /// Read one key through the shard's consensus log: decides a `Get`
    /// entry, so the read occupies a log position and is linearized by
    /// its decide — the path `get` took before the log-free replica
    /// read existed. Kept for callers that want a log-ordered
    /// linearization witness (`stats().last_decided_position` on the
    /// shard handle names the read's position) and as the reference the
    /// local ≡ decided read tests compare `get` against. Same
    /// lock/help/retry discipline as `get`.
    pub fn get_decided(&mut self, key: &K) -> Option<V> {
        failpoint!("store::route");
        let s = route(self.seed, self.nshards(), key);
        // progress: wait-free — each retry first completes the blocking
        // multi-op (helping), bounding iterations by the admitted multi-ops.
        loop {
            match self.invoke(s, ShardOp::Get { key: key.clone() }) {
                ShardResp::Value { val, .. } => return val,
                ShardResp::Blocked { holder, .. } => {
                    self.run_multi(&holder);
                }
                r => unreachable!("get answered {r:?}"),
            }
        }
    }

    /// Write one key, returning the previous value. Helps and retries
    /// past conflicting multi-ops.
    pub fn put(&mut self, key: K, val: V) -> Option<V> {
        self.put_opt(key, Some(val))
    }

    /// Remove one key, returning the previous value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.put_opt(key.clone(), None)
    }

    fn put_opt(&mut self, key: K, val: Option<V>) -> Option<V> {
        self.mutate(ShardOp::Put { key, val, ctx: Ctx::unstamped() }, |r| match r {
            ShardResp::Prev { prev, .. } => prev,
            r => unreachable!("put answered {r:?}"),
        })
    }

    /// Compare-and-set one key (`None` = absent on either side).
    /// Returns `(succeeded, previous value)`.
    pub fn cas(
        &mut self,
        key: K,
        expect: Option<V>,
        new: Option<V>,
    ) -> (bool, Option<V>) {
        self.mutate(ShardOp::Cas { key, expect, new, ctx: Ctx::unstamped() }, |r| match r {
            ShardResp::CasResult { ok, prev, .. } => (ok, prev),
            r => unreachable!("cas answered {r:?}"),
        })
    }

    /// Atomically replace one key's value with `merge(current)`,
    /// returning the previous value.
    pub fn fetch_update(&mut self, key: K, merge: M) -> Option<V> {
        self.mutate(ShardOp::Update { key, merge, ctx: Ctx::unstamped() }, |r| match r {
            ShardResp::Prev { prev, .. } => prev,
            r => unreachable!("fetch_update answered {r:?}"),
        })
    }

    /// Route a single-key mutation to its shard and decide it there,
    /// helping and retrying past conflicting multi-ops; `answer` takes
    /// the caller's result out of the final response. The op is built
    /// once — a helped-multi retry re-proposes it (re-stamped: the stamp
    /// rule needs the epoch/knowledge read immediately before each
    /// attempt, and helping moves both) instead of re-cloning key and
    /// value.
    fn mutate<R>(
        &mut self,
        mut op: ShardOp<K, V, M>,
        answer: impl FnOnce(ShardResp<K, V>) -> R,
    ) -> R {
        let (ShardOp::Put { key, .. } | ShardOp::Cas { key, .. } | ShardOp::Update { key, .. }) =
            &op
        else {
            unreachable!("only single-key mutations are routed here")
        };
        failpoint!("store::route");
        let s = route(self.seed, self.nshards(), key);
        // progress: wait-free — each retry first completes the blocking
        // multi-op (helping), bounding iterations by the admitted multi-ops.
        loop {
            match self.invoke_stamped(s, &mut op) {
                ShardResp::Blocked { holder, .. } => {
                    self.run_multi(&holder);
                }
                r => return answer(r),
            }
        }
    }

    /// Atomically write (`Some`) or remove (`None`) every key in
    /// `writes`, across any number of shards. Always commits.
    pub fn multi_put<I>(&mut self, writes: I)
    where
        I: IntoIterator<Item = (K, Option<V>)>,
    {
        let writes: BTreeMap<K, Option<V>> = writes.into_iter().collect();
        if writes.is_empty() {
            return;
        }
        let committed = self.originate(BTreeMap::new(), writes);
        debug_assert!(committed, "an expectation-free multi-op always commits");
    }

    /// Atomically: if every key in `expects` has the expected value
    /// (`None` = absent), apply every write in `writes`. Returns
    /// whether it committed. All-or-nothing across shards.
    pub fn multi_cas<I, J>(&mut self, expects: I, writes: J) -> bool
    where
        I: IntoIterator<Item = (K, Option<V>)>,
        J: IntoIterator<Item = (K, Option<V>)>,
    {
        let expects: BTreeMap<K, Option<V>> = expects.into_iter().collect();
        let writes: BTreeMap<K, Option<V>> = writes.into_iter().collect();
        if expects.is_empty() && writes.is_empty() {
            return true;
        }
        self.originate(expects, writes)
    }

    /// Run a new multi-op of this handle's own to completion. The
    /// descriptor stays in `inflight` for exactly as long as it may be
    /// unfinished somewhere, so a handle reused after a *caught* crash
    /// in here first drives that orphan to the end (as `WfHandle` does
    /// for its announce orphan): `(o, s + 1)` is never numbered while
    /// `(o, s)` could still be pending on some shard.
    fn originate(
        &mut self,
        expects: BTreeMap<K, Option<V>>,
        writes: BTreeMap<K, Option<V>>,
    ) -> bool {
        if let Some(orphan) = self.inflight.clone() {
            self.run_multi(&orphan);
        }
        let desc = Arc::new(self.describe(expects, writes));
        self.inflight = Some(Arc::clone(&desc));
        let commit = self
            .run_multi(&desc)
            .expect("a handle's newest multi-op is superseded only by its own next one");
        self.inflight = None;
        commit
    }

    fn describe(
        &mut self,
        expects: BTreeMap<K, Option<V>>,
        writes: BTreeMap<K, Option<V>>,
    ) -> MultiDesc<K, V> {
        let n = self.nshards();
        let mut shards: Vec<usize> = expects
            .keys()
            .chain(writes.keys())
            .map(|k| route(self.seed, n, k))
            .collect();
        shards.sort_unstable();
        shards.dedup();
        let origin = *self.origin.get_or_insert_with(|| {
            // ordering: Relaxed [no-edge] — an id allocator: the RMW's
            // atomicity alone makes origins distinct, and an origin id
            // publishes no other data.
            let o = self.next_origin.fetch_add(1, Ordering::Relaxed);
            u32::try_from(o).expect("multi-op origin ids exhausted")
        });
        let id = MultiId::new(origin, self.next_seq);
        self.next_seq += 1;
        MultiDesc { id, expects, writes, shards }
    }

    /// Drive `desc` to resolution — as initiator or helper; the
    /// protocol is identical and every step idempotent.
    ///
    /// Phase 1 prepares in ascending shard order (the canonical lock
    /// order — see DESIGN §10 for why no cycle of blocked multi-ops
    /// can form). `Resolved` short-circuits: someone finished the
    /// verdict already, but phase 2 still visits every shard because
    /// the finisher may have crashed mid-resolve. `Stale` ends the
    /// call (`None`): the originator has since started a later
    /// multi-op, which it does only once this one is resolved on every
    /// shard — a helper that slept through all of that has nothing left
    /// to do. A `Blocked` prepare recursively helps the older holder
    /// first. Phase 2 decides the unanimous verdict everywhere;
    /// `Resolve` acks are idempotent. That is the whole protocol: two
    /// decides per involved shard, and the shards' tombstones are all
    /// the bookkeeping snapshot repair needs ([`SnapPart::committed`]).
    fn run_multi(&mut self, desc: &MultiDesc<K, V>) -> Option<bool> {
        let mut verdict: Option<bool> = None;
        let mut all = true;
        for &s in &desc.shards {
            if verdict.is_some() {
                break;
            }
            // One descriptor clone per shard, not per attempt; retries
            // re-stamp the ctx only.
            let mut op = ShardOp::Prepare { desc: desc.clone(), ctx: Ctx::unstamped() };
            // progress: wait-free — a `Blocked` answer is followed by helping
            // the holder to completion, so each shard's prepare retries are
            // bounded by the multi-ops admitted ahead of this one.
            loop {
                failpoint!("store::multi");
                match self.invoke_stamped(s, &mut op) {
                    ShardResp::Vote { ok, .. } => {
                        all &= ok;
                        break;
                    }
                    ShardResp::Resolved { commit, .. } => {
                        verdict = Some(commit);
                        break;
                    }
                    ShardResp::Stale { .. } => return None,
                    ShardResp::Blocked { holder, .. } => {
                        self.run_multi(&holder);
                    }
                    r => unreachable!("prepare answered {r:?}"),
                }
            }
        }
        let commit = verdict.unwrap_or(all);
        for &s in &desc.shards {
            failpoint!("store::multi");
            let mut op = ShardOp::Resolve { id: desc.id, commit, ctx: Ctx::unstamped() };
            match self.invoke_stamped(s, &mut op) {
                ShardResp::Ack { .. } => {}
                r => unreachable!("resolve answered {r:?}"),
            }
        }
        Some(commit)
    }

    /// Take a consistent global snapshot: open a fresh epoch, decide a
    /// marker into every shard's log (ascending — any fixed order
    /// works; consistency comes from the stamp rule, not marker
    /// order), repair torn multi-ops, and assemble the union map.
    ///
    /// Wait-free: one epoch fetch-add plus one wait-free decide per
    /// shard; assembly is local. A client that crashes mid-snapshot
    /// costs a bounded, one-time amount per shard it never reached:
    /// one retained early capture (claimable if the straggler is
    /// merely stalled and its marker eventually lands). Later
    /// mutations and snapshots are unaffected — each epoch is swept
    /// into a capture at most once (a per-shard stamp watermark), so a
    /// permanently open epoch does not tax subsequent writes.
    pub fn snapshot(&mut self) -> Snapshot<K, V> {
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        let mut parts: Vec<SnapPart<K, V>> = Vec::with_capacity(self.nshards());
        for s in 0..self.nshards() {
            failpoint!("store::snapshot");
            match self.invoke(s, ShardOp::Marker { epoch }) {
                ShardResp::Part(p) => parts.push(*p),
                r => unreachable!("marker answered {r:?}"),
            }
        }
        repair_torn(&mut parts, self.seed);
        #[cfg(debug_assertions)]
        check_cut(&parts);
        // Shards partition the key space, so the parts are disjoint:
        // one collect sorts the presorted runs and bulk-builds the tree.
        let map = parts.iter_mut().flat_map(|p| mem::take(&mut p.map)).collect();
        Snapshot { epoch, map }
    }

    /// Retire every per-shard registration (PR 6 dynamic membership).
    /// Idempotent; later ops panic with `Retired`.
    pub fn retire(&mut self) {
        for h in &mut self.shards {
            h.retire();
        }
    }

    /// The underlying per-shard handle (diagnostics, tests).
    #[must_use]
    pub fn shard_handle(&self, s: usize) -> &WfHandle<ShardState<K, V, M>> {
        &self.shards[s]
    }
}

fn resp_version<K: Ord, V>(resp: &ShardResp<K, V>) -> u64 {
    match resp {
        ShardResp::Value { version, .. }
        | ShardResp::Prev { version, .. }
        | ShardResp::CasResult { version, .. }
        | ShardResp::Vote { version, .. }
        | ShardResp::Resolved { version, .. }
        | ShardResp::Stale { version }
        | ShardResp::Blocked { version, .. }
        | ShardResp::Ack { version } => *version,
        ShardResp::Part(p) => p.version,
    }
}

/// Torn-multi repair: a multi-op committed in one part must be applied
/// in every involved part of the same cut. One rule: a part's pending
/// descriptor is applied exactly when some part lists its id in
/// [`SnapPart::committed`] (only an involved shard can: the id names a
/// tombstone only where it was prepared).
///
/// Why the needed data is always there: `Resolve(commit)` is only sent
/// after `Prepare` decided on *every* involved shard, so if a part
/// shows the commit, the cut's stamp-rule consistency guarantees every
/// other involved part contains at least the `Prepare` (pending) if
/// not the commit itself. The repair applies the pending descriptor's
/// local writes, which is exactly what that shard's `Resolve` will do
/// after the cut. Multi-ops pending in every part are consistently
/// *excluded*.
///
/// Why the committing part still lists the id: a shard's tombstone
/// moves past `(o, s)` only when `(o, s + 1)` is prepared there, and
/// the originator numbers `(o, s + 1)` only after every resolve of
/// `(o, s)` was acknowledged. That prepare's stamp and knowledge vector
/// force any cut containing it to contain every resolve of `(o, s)`,
/// and then no part is pending `(o, s)`. So captures carry one
/// committed id per origin, not the commit history (DESIGN §10).
fn repair_torn<K, V>(parts: &mut [SnapPart<K, V>], seed: u64)
where
    K: Clone + Ord + Hash + Debug,
    V: Clone + Eq + Hash + Debug,
{
    let nshards = parts.len();
    let committed: BTreeSet<MultiId> = parts.iter().flat_map(|p| p.committed.iter().copied()).collect();
    for (s, part) in parts.iter_mut().enumerate() {
        for (id, pm) in &part.pending {
            if committed.contains(id) {
                pm.desc.apply_writes(&mut part.map, seed, nshards, s);
            }
        }
    }
}

/// Debug-mode vector-clock cut check: for every pair of shards, the
/// knowledge shard `s` had of shard `t` at its capture must not exceed
/// what shard `t`'s capture actually contains — `know[s][t] <=
/// version[t]`, the classic consistent-cut condition (the same
/// invariant `waitfree_sched::hb`'s vector clocks enforce on memory
/// traces, applied at shard granularity).
#[cfg(debug_assertions)]
fn check_cut<K: Ord, V>(parts: &[SnapPart<K, V>]) {
    for (s, p) in parts.iter().enumerate() {
        for (t, &known) in p.know.iter().enumerate() {
            let actual = parts.get(t).map_or(0, |q| q.version);
            assert!(
                known <= actual,
                "inconsistent cut: shard {s} captured knowledge of shard {t} \
                 at version {known}, but shard {t}'s capture is at version \
                 {actual}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(shards: usize) -> ShardedStore<u64, i64, Bump> {
        ShardedStore::new(&StoreConfig { shards, ..StoreConfig::default() })
    }

    #[test]
    fn single_key_ops_roundtrip() {
        let st = store(4);
        let mut h = st.handle();
        assert_eq!(h.get(&1), None);
        assert_eq!(h.put(1, 10), None);
        assert_eq!(h.put(1, 11), Some(10));
        assert_eq!(h.get(&1), Some(11));
        assert_eq!(h.remove(&1), Some(11));
        assert_eq!(h.get(&1), None);
    }

    #[test]
    fn cas_semantics() {
        let st = store(4);
        let mut h = st.handle();
        assert_eq!(h.cas(7, None, Some(1)), (true, None));
        assert_eq!(h.cas(7, None, Some(2)), (false, Some(1)));
        assert_eq!(h.cas(7, Some(1), Some(2)), (true, Some(1)));
        assert_eq!(h.cas(7, Some(2), None), (true, Some(2)));
        assert_eq!(h.get(&7), None);
    }

    #[test]
    fn fetch_update_bumps() {
        let st = store(4);
        let mut h = st.handle();
        assert_eq!(h.fetch_update(3, Bump(5)), None);
        assert_eq!(h.fetch_update(3, Bump(-2)), Some(5));
        assert_eq!(h.get(&3), Some(3));
    }

    #[test]
    fn multi_put_spans_shards() {
        let st = store(4);
        let mut h = st.handle();
        // 0..16 covers all 4 shards with high probability under any seed.
        h.multi_put((0..16u64).map(|k| (k, Some(k as i64 * 100))));
        for k in 0..16u64 {
            assert_eq!(h.get(&k), Some(k as i64 * 100));
        }
        h.multi_put((0..16u64).map(|k| (k, None)));
        for k in 0..16u64 {
            assert_eq!(h.get(&k), None);
        }
    }

    #[test]
    fn multi_cas_commits_and_aborts_atomically() {
        let st = store(4);
        let mut h = st.handle();
        h.multi_put([(1u64, Some(1i64)), (2, Some(2)), (3, Some(3))]);
        // Abort: one expectation wrong → nothing applied.
        assert!(!h.multi_cas(
            [(1, Some(1)), (2, Some(99))],
            [(1, Some(-1)), (2, Some(-2))],
        ));
        assert_eq!(h.get(&1), Some(1));
        assert_eq!(h.get(&2), Some(2));
        // Commit: all expectations hold → all writes applied.
        assert!(h.multi_cas(
            [(1, Some(1)), (2, Some(2)), (3, Some(3))],
            [(1, Some(-1)), (2, None), (3, Some(-3))],
        ));
        assert_eq!(h.get(&1), Some(-1));
        assert_eq!(h.get(&2), None);
        assert_eq!(h.get(&3), Some(-3));
    }

    #[test]
    fn snapshot_sees_all_prior_writes() {
        let st = store(4);
        let mut h = st.handle();
        for k in 0..32u64 {
            h.put(k, k as i64);
        }
        let snap = h.snapshot();
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.map.len(), 32);
        for k in 0..32u64 {
            assert_eq!(snap.map.get(&k), Some(&(k as i64)));
        }
        // A later snapshot gets a later epoch and the same data.
        let snap2 = h.snapshot();
        assert_eq!(snap2.epoch, 2);
        assert_eq!(snap2.map, snap.map);
    }

    #[test]
    fn snapshot_excludes_later_writes_from_other_handles() {
        let st = store(4);
        let mut a = st.handle();
        let mut b = st.handle();
        a.put(1, 1);
        let snap = a.snapshot();
        b.put(2, 2);
        assert_eq!(snap.map.get(&1), Some(&1));
        assert_eq!(snap.map.get(&2), None);
        let snap2 = b.snapshot();
        assert_eq!(snap2.map.get(&2), Some(&2));
    }

    #[test]
    fn single_shard_store_works() {
        let st = store(1);
        let mut h = st.handle();
        h.multi_put([(1u64, Some(1i64)), (2, Some(2))]);
        assert!(h.multi_cas([(1, Some(1))], [(1, Some(10)), (2, Some(20))]));
        let snap = h.snapshot();
        assert_eq!(snap.map.get(&1), Some(&10));
        assert_eq!(snap.map.get(&2), Some(&20));
    }

    #[test]
    fn handles_retire_cleanly() {
        let st = store(2);
        let mut h = st.handle();
        h.put(1, 1);
        h.retire();
        for s in 0..2 {
            assert!(st.shard(s).stats().active_handles == 0);
        }
    }

    /// Acceptance gate for the log-free read path: a burst of `get`s
    /// moves no invoke/decide diagnostic and appends nothing to any
    /// shard log.
    #[test]
    fn local_reads_leave_no_trace_in_any_shard_log() {
        let st = store(4);
        let mut w = st.handle();
        for k in 0..32u64 {
            w.put(k, k as i64);
        }
        let mut r = st.handle();
        // Warm the reader on every shard so the burst below starts
        // caught up (the first read per shard legitimately replays the
        // decided prefix into the replica).
        for k in 0..32u64 {
            assert_eq!(r.get(&k), Some(k as i64));
        }
        let snap_diag: Vec<_> = (0..4).map(|s| r.shard_handle(s).stats()).collect();
        let writer_pos: Vec<_> =
            (0..4).map(|s| w.shard_handle(s).stats().last_decided_position).collect();
        for k in 0..32u64 {
            assert_eq!(r.get(&k), Some(k as i64));
            assert_eq!(r.multi_get(&[k, (k + 1) % 32]), vec![
                Some(k as i64),
                Some(((k + 1) % 32) as i64)
            ]);
        }
        for s in 0..4 {
            assert_eq!(
                r.shard_handle(s).stats(),
                snap_diag[s],
                "shard {s}: reads that found nothing new decided move no counter"
            );
            assert_eq!(w.shard_handle(s).stats().last_decided_position, writer_pos[s]);
        }
        // The next write lands exactly where it would have without the
        // 96 reads in between: the log grew by zero positions.
        let k0 = (0..32u64).find(|k| st.shard_of(k) == 0).unwrap();
        w.put(k0, -1);
        assert_eq!(
            w.shard_handle(0).stats().last_decided_position,
            writer_pos[0].map(|p| p + 1).or(Some(0)),
        );
    }

    #[test]
    fn get_decided_still_reads_through_the_log() {
        let st = store(2);
        let mut h = st.handle();
        h.put(5, 50);
        let shard = st.shard_of(&5);
        let decides = h.shard_handle(shard).stats().decides;
        assert_eq!(h.get_decided(&5), Some(50));
        assert!(h.shard_handle(shard).stats().decides > decides, "a decided read occupies a log position");
        assert_eq!(h.get(&5), Some(50), "both paths agree");
    }

    #[test]
    fn multi_get_orders_results_by_input_key() {
        let st = store(4);
        let mut h = st.handle();
        h.multi_put((0..16u64).map(|k| (k, Some(k as i64 * 3))));
        let keys: Vec<u64> = vec![15, 0, 7, 99, 7, 3];
        let got = h.multi_get(&keys);
        assert_eq!(got, vec![Some(45), Some(0), Some(21), None, Some(21), Some(9)]);
        assert_eq!(h.multi_get(&[]), Vec::<Option<i64>>::new());
    }

    /// The local read observes every write the *same handle* completed
    /// and every write another handle completed before the read began
    /// (the completed-invoke frontier guarantee).
    #[test]
    fn local_reads_see_completed_writes_across_handles() {
        let st = store(4);
        let mut a = st.handle();
        let mut b = st.handle();
        for k in 0..64u64 {
            a.put(k, k as i64);
            assert_eq!(b.get(&k), Some(k as i64), "b reads a's completed put");
        }
    }

    /// Regression: the default budget used to be 2²⁰ ops per shard, which
    /// a handle at measured rates exhausts (and panics on) in under a
    /// second.
    #[test]
    fn default_budget_outlasts_a_million_ops_on_one_shard() {
        let cfg = StoreConfig { shards: 1, checkpoint_every: Some(4096), ..StoreConfig::default() };
        let st: ShardedStore<u64, i64, Bump> = ShardedStore::new(&cfg);
        let mut h = st.handle();
        for i in 0..=(1u64 << 20) {
            h.put(i % 8, i as i64);
        }
        assert_eq!(h.get(&0), Some(1 << 20));
    }

    /// A handle that never runs a multi-op draws no origin id, and one
    /// that does draws exactly one, however many multi-ops it runs.
    #[test]
    fn origins_are_allocated_lazily_and_once() {
        let st = store(2);
        let mut a = st.handle();
        let mut b = st.handle();
        a.put(1, 1);
        assert_eq!(a.get(&1), Some(1));
        for i in 0..5 {
            b.multi_put([(1u64, Some(i)), (2, Some(i))]);
        }
        a.multi_put([(1u64, Some(9)), (2, Some(9))]);
        assert_eq!((b.origin, b.next_seq), (Some(0), 5));
        assert_eq!((a.origin, a.next_seq), (Some(1), 1));
        for s in 0..2 {
            let seen = a.shards[s].read(ShardState::stats).tombstones;
            assert!(seen <= 2, "shard {s} holds {seen} tombstones for 2 origins");
        }
    }

    /// A committed multi-op decides a prepare and a resolve on each
    /// involved shard and nothing anywhere else.
    #[test]
    fn a_two_shard_commit_decides_twice_per_involved_shard() {
        let st = store(4);
        let mut h = st.handle();
        let key_on = |s| (0u64..).find(|k| st.shard_of(k) == s).unwrap();
        for s in 0..4 {
            h.put(key_on(s), 0);
        }
        let positions = |h: &StoreHandle<u64, i64, Bump>| -> Vec<usize> {
            (0..4).map(|s| h.shard_handle(s).stats().last_decided_position.unwrap()).collect()
        };
        let before = positions(&h);
        h.multi_put([(key_on(1), Some(1)), (key_on(3), Some(3))]);
        let moved: Vec<usize> = positions(&h).iter().zip(&before).map(|(a, b)| a - b).collect();
        assert_eq!(moved, [0, 2, 0, 2]);
    }

    /// Snapshot repair on parts captured from real shard replicas: a
    /// descriptor pending in one part is applied exactly when the other
    /// part shows it committed.
    #[test]
    fn repair_applies_a_pending_descriptor_only_if_a_part_committed_it() {
        use waitfree_model::{ObjectSpec, Pid};
        let seed = StoreConfig::default().seed;
        let key_on = |s| (0u64..).find(|k| route(seed, 2, k) == s).unwrap();
        let (k0, k1) = (key_on(0), key_on(1));
        let desc = MultiDesc {
            id: MultiId::new(1, 0),
            expects: BTreeMap::new(),
            writes: BTreeMap::from([(k0, Some(10)), (k1, Some(11))]),
            shards: vec![0, 1],
        };
        // Resolve decided on shard 0 only (`Some(verdict)`) or nowhere.
        for resolved_on_0 in [Some(true), Some(false), None] {
            let mut parts: Vec<SnapPart<u64, i64>> = (0..2)
                .map(|s| {
                    let mut st = ShardState::<u64, i64, ()>::new(s, 2, seed);
                    st.apply(Pid(0), &ShardOp::Prepare { desc: desc.clone(), ctx: Ctx::unstamped() });
                    if let (0, Some(commit)) = (s, resolved_on_0) {
                        st.apply(Pid(0), &ShardOp::Resolve { id: desc.id, commit, ctx: Ctx::unstamped() });
                    }
                    match st.apply(Pid(0), &ShardOp::Marker { epoch: 1 }) {
                        ShardResp::Part(p) => *p,
                        r => panic!("marker answered {r:?}"),
                    }
                })
                .collect();
            assert!(parts[1].pending.contains_key(&desc.id));
            repair_torn(&mut parts, seed);
            let applied = resolved_on_0 == Some(true);
            assert_eq!(parts[0].map.get(&k0), applied.then_some(&10), "{resolved_on_0:?}");
            assert_eq!(parts[1].map.get(&k1), applied.then_some(&11), "{resolved_on_0:?}");
        }
    }

    #[test]
    fn checkpointed_shards_truncate() {
        let st: ShardedStore<u64, i64, Bump> = ShardedStore::new(&StoreConfig {
            shards: 2,
            checkpoint_every: Some(8),
            ..StoreConfig::default()
        });
        let mut h = st.handle();
        for i in 0..2000u64 {
            h.put(i % 64, i as i64);
        }
        let total_ckpts: usize = (0..2).map(|s| st.shard(s).stats().checkpoints).sum();
        assert!(total_ckpts > 0, "checkpoint cadence never fired");
        h.retire();
        let mut h2 = st.handle();
        let reclaimed: usize = (0..2).map(|s| st.shard(s).stats().reclaimed_segments).sum();
        assert!(reclaimed > 0, "no shard segment was ever reclaimed");
        // A late joiner adopting a checkpoint still reads everything.
        for i in 1936..2000u64 {
            assert_eq!(h2.get(&(i % 64)), Some(i as i64));
        }
    }
}
