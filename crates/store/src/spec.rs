//! The per-shard replicated state machine.
//!
//! Each shard of a [`ShardedStore`](crate::ShardedStore) is one
//! `WfUniversal<ShardState<K, V, M>>`: a deterministic sequential
//! object decided into a consensus log and replayed identically by
//! every client. Everything the store guarantees — multi-key atomicity
//! and consistent snapshots included — is therefore expressed as *state
//! transitions of this machine*; the front-end in `lib.rs` only chooses
//! which ops to decide where.
//!
//! Three op families:
//!
//! * **Single-key** ([`ShardOp::Get`]/[`Put`](ShardOp::Put)/
//!   [`Cas`](ShardOp::Cas)/[`Update`](ShardOp::Update)) read or mutate
//!   `map` directly. *Any* op targeting a key locked by an in-flight
//!   multi-op — reads included — returns [`ShardResp::Blocked`] with
//!   the full holder descriptor — enough for the caller to *help* the
//!   multi-op to completion and retry. `Get` must block too: the
//!   multi's resolve lands on its shards at different log positions,
//!   so a reader free-riding past the locks could observe shard A
//!   after its resolve and shard B before it — a half-applied
//!   multi-op with no valid linearization.
//!
//! * **Multi-key two-phase** ([`ShardOp::Prepare`]/[`Resolve`](ShardOp::Resolve)).
//!   `Prepare` atomically locks every locally-owned key of the
//!   descriptor, evaluates the local expectations, and records an
//!   immutable vote. `Resolve` applies the writes (on commit), frees
//!   the locks, and records the verdict in the originator's tombstone.
//!   Both are idempotent under helping: a duplicate `Prepare` returns
//!   the recorded vote or verdict, a duplicate `Resolve` acks. Votes
//!   are recorded exactly once per shard, so every resolver —
//!   initiator or helper — computes the same commit verdict. Ids are
//!   per originator ([`MultiId`]) and an originator runs one multi-op
//!   at a time, so a shard keeps **one tombstone per originator**, not
//!   one per multi-op: a `Prepare` for an id its originator has since
//!   superseded is answered [`ShardResp::Stale`] (see
//!   `ShardState::origins`). The tombstones are also all the commit
//!   bookkeeping a snapshot capture carries ([`SnapPart::committed`]).
//!
//! * **Snapshot markers** ([`ShardOp::Marker`]). Deciding `Marker{e}`
//!   captures this shard's contribution to global snapshot `e`
//!   ([`SnapPart`]). Consistency across shards is the *stamp rule*:
//!   every mutating op carries the epoch its client read **before**
//!   invoking ([`Ctx::epoch`]), and a mutation stamped `>= e` that gets
//!   decided before shard-local marker `e` triggers a pre-mutation
//!   *early capture* — the part is photographed before the mutation
//!   applies, so the straggler is excluded. A marker obeys the same
//!   rule: `Marker{e}` proves every epoch below `e` open, so it
//!   captures those first, as a mutation stamped `e - 1` would. See
//!   DESIGN §10 for the argument that this yields a causally
//!   consistent cut.
//!
//! The keys live in a [`ShardMap`], an ordered map whose clone shares
//! its nodes: a checkpoint image, a late registrant's bootstrap and a
//! snapshot capture each copy one pointer, and the first mutation after
//! one copies only the nodes it touches. Every other collection is a
//! `BTreeMap`, bounded by in-flight multi-ops and originators rather
//! than keys. None is a hash map: the state must be `Eq + Hash` for the
//! linearizability checker, and iteration order must be deterministic
//! for replay.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::hash::Hash;
use std::marker::PhantomData;
use std::sync::Arc;

use waitfree_model::{ObjectSpec, Pid};

use crate::router::route;
use crate::shard_map::ShardMap;

/// Store-wide unique identity of one multi-key operation, so helpers
/// and initiators name the same attempt: the originating handle's
/// never-reused **origin** id in the high [`MultiId::ORIGIN_BITS`] bits
/// and that handle's own multi-op count (**seq**) in the low
/// [`MultiId::SEQ_BITS`]. An originator numbers its multi-ops in the
/// order it runs them and starts `(o, s + 1)` only after `(o, s)` is
/// resolved on every involved shard, so within one origin a
/// larger seq supersedes every smaller one — the rule
/// `ShardState::origins` relies on. A bare `MultiId(n)` with
/// `n < 2^40` is origin 0, seq `n`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MultiId(pub u64);

impl MultiId {
    /// Width of the origin field: 2²⁴ originating handles per store.
    pub const ORIGIN_BITS: u32 = 24;
    /// Width of the seq field: 2⁴⁰ multi-ops per originating handle.
    pub const SEQ_BITS: u32 = 64 - Self::ORIGIN_BITS;

    /// Pack `(origin, seq)`.
    ///
    /// # Panics
    /// If either field overflows its width — exhaustion is an error,
    /// never a wrap onto a live id.
    #[must_use]
    pub fn new(origin: u32, seq: u64) -> Self {
        assert!(
            u64::from(origin) < 1 << Self::ORIGIN_BITS,
            "multi-op origin ids exhausted: {origin} needs more than {} bits",
            Self::ORIGIN_BITS
        );
        assert!(
            seq < 1 << Self::SEQ_BITS,
            "multi-op sequence numbers of origin {origin} exhausted: {seq} needs more than {} bits",
            Self::SEQ_BITS
        );
        MultiId(u64::from(origin) << Self::SEQ_BITS | seq)
    }

    /// The originating handle's id.
    #[must_use]
    pub fn origin(self) -> u32 {
        (self.0 >> Self::SEQ_BITS) as u32
    }

    /// This multi-op's position in its originator's sequence.
    #[must_use]
    pub fn seq(self) -> u64 {
        self.0 & ((1 << Self::SEQ_BITS) - 1)
    }
}

/// Causal context stamped on every mutating op by the invoking client.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Ctx {
    /// The store epoch counter as read by the client immediately before
    /// this invoke. Drives snapshot early-capture (see module docs).
    pub epoch: u64,
    /// Shard versions this client has observed (from prior responses),
    /// indexed by shard — the shard count is fixed at construction, so
    /// a flat vector copies by memcpy where a `BTreeMap` would
    /// re-allocate nodes on every mutating op. Merged into
    /// `ShardState::know` so the debug-mode cut check can verify the
    /// snapshot against real cross-shard dependencies. May be shorter
    /// than the shard count (a client that has observed nothing sends
    /// an empty vector); absent entries mean version 0.
    pub know: Vec<u64>,
}

impl Ctx {
    /// The placeholder an op is built with; `StoreHandle` stamps the
    /// real epoch and knowledge immediately before each invoke.
    pub(crate) fn unstamped() -> Self {
        Ctx { epoch: 0, know: Vec::new() }
    }
}

/// A replica-side read outcome ([`ShardState::peek`]/
/// [`ShardState::peek_many`]): the value(s) plus the shard version at
/// the observed frontier, or the descriptor of the multi-op whose lock
/// blocks the read (for helper completion).
pub type Peek<T, K, V> = Result<(T, u64), Box<MultiDesc<K, V>>>;

/// Full description of one multi-key atomic op, replicated to every
/// involved shard so *any* client holding it can finish the op.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MultiDesc<K: Ord, V> {
    pub id: MultiId,
    /// Per-key expectations (`None` = absent) evaluated at prepare
    /// time; empty for an unconditional `multi_put`.
    pub expects: BTreeMap<K, Option<V>>,
    /// Per-key writes applied on commit (`None` = remove).
    pub writes: BTreeMap<K, Option<V>>,
    /// Involved shards, ascending — the canonical lock order. Recorded
    /// here (not recomputed) so snapshot assembly can check
    /// all-or-nothing application against the intended shard set.
    pub shards: Vec<usize>,
}

impl<K: Clone + Ord + Hash, V: Clone> MultiDesc<K, V> {
    /// Keys of this descriptor owned by `shard` (expects ∪ writes).
    fn local_keys(&self, seed: u64, nshards: usize, shard: usize) -> Vec<&K> {
        let mut keys: Vec<&K> = self
            .expects
            .keys()
            .chain(self.writes.keys())
            .filter(|k| route(seed, nshards, *k) == shard)
            .collect();
        keys.sort();
        keys.dedup();
        keys
    }

    /// Apply this descriptor's writes owned by `shard` to `map` — what
    /// that shard's commit does, and what snapshot repair does for it.
    pub(crate) fn apply_writes(&self, map: &mut ShardMap<K, V>, seed: u64, nshards: usize, shard: usize) {
        for (k, w) in self.writes.iter().filter(|(k, _)| route(seed, nshards, *k) == shard) {
            write_key(map, k, w.clone());
        }
    }
}

/// The one keyed write of the shard machine: `Some(v)` stores `v` at
/// `key`, `None` removes `key`. Returns the previous value.
fn write_key<K: Clone + Ord, V: Clone>(map: &mut ShardMap<K, V>, key: &K, w: Option<V>) -> Option<V> {
    match w {
        Some(v) => map.insert(key.clone(), v),
        None => map.remove(key),
    }
}

/// What a shard remembers of one originator: see
/// [`ShardState::origins`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct Tombstone {
    /// Seq of the newest multi-op of this origin admitted here.
    seq: u64,
    /// Its verdict, once resolved here (`None` while it is pending).
    verdict: Option<bool>,
}

/// A prepared-but-unresolved multi-op on one shard.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PendingMulti<K: Ord, V> {
    pub desc: MultiDesc<K, V>,
    /// This shard's vote, fixed at first prepare: local expectations
    /// held. Immutable thereafter — locks keep the inputs stable.
    pub vote: bool,
}

/// One shard's contribution to a global snapshot.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct SnapPart<K: Ord, V> {
    pub epoch: u64,
    /// The shard's keys at the cut, sharing the nodes of the state it
    /// was taken from.
    pub map: ShardMap<K, V>,
    /// Multi-ops prepared but not yet resolved at the cut. Snapshot
    /// assembly applies one exactly when another part lists it in
    /// `committed` (torn-multi repair) — see [`crate::ShardedStore`]
    /// docs.
    pub pending: BTreeMap<MultiId, PendingMulti<K, V>>,
    /// Per origin, its newest multi-op here when this shard's verdict
    /// on it is commit: read off the tombstones (`ShardState::origins`),
    /// so at most one id per originator, **not** one per commit ever.
    /// It is every commit that can be torn in a cut holding this part:
    /// the tombstone moves past `(o, s)` only at the prepare of
    /// `(o, s + 1)`, which follows every resolve of `(o, s)`.
    pub committed: BTreeSet<MultiId>,
    /// Mutation counter at the cut.
    pub version: u64,
    /// Observed-shard-version vector at the cut, indexed by shard
    /// (debug cut check).
    pub know: Vec<u64>,
}

/// How [`ShardedStore::fetch_update`](crate::ShardedStore) transforms a
/// value. A merge is data, not a closure: it travels inside log
/// entries, so it must be `Eq + Hash + Debug` like any other op
/// payload, and `merge` must be deterministic.
pub trait Merge<V>: Clone + Eq + Hash + Debug {
    /// New value (`None` = remove) from the current one.
    fn merge(&self, current: Option<&V>) -> Option<V>;
}

/// The identity merge: `fetch_update` with `()` is a plain read that
/// still decides through the log (a linearization witness).
impl<V: Clone> Merge<V> for () {
    fn merge(&self, current: Option<&V>) -> Option<V> {
        current.cloned()
    }
}

/// Saturating-free additive merge for `i64` values, treating absent as
/// zero. The workhorse of the exact-count fault postconditions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Bump(pub i64);

impl Merge<i64> for Bump {
    fn merge(&self, current: Option<&i64>) -> Option<i64> {
        Some(current.copied().unwrap_or(0) + self.0)
    }
}

/// Operations decided into one shard's log.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ShardOp<K: Ord, V, M> {
    Get { key: K },
    /// Write (`Some`) or remove (`None`) one key.
    Put { key: K, val: Option<V>, ctx: Ctx },
    Cas { key: K, expect: Option<V>, new: Option<V>, ctx: Ctx },
    Update { key: K, merge: M, ctx: Ctx },
    Prepare { desc: MultiDesc<K, V>, ctx: Ctx },
    Resolve { id: MultiId, commit: bool, ctx: Ctx },
    /// A no-op: answers `Ack` at the current version and changes
    /// nothing, its ctx included. The store never sends it — snapshot
    /// repair reads commits off the tombstones. Exists only because the
    /// repository's benchmark (`benchmark/src/sut.rs`, frozen between
    /// benchmark PRs) still builds it after each commit's resolves.
    Settle { id: MultiId, ctx: Ctx },
    Marker { epoch: u64 },
}

impl<K: Ord, V, M> ShardOp<K, V, M> {
    /// The op's causal context (`None` for `Get` and `Marker`, which
    /// carry none).
    pub(crate) fn ctx_mut(&mut self) -> Option<&mut Ctx> {
        match self {
            ShardOp::Put { ctx, .. }
            | ShardOp::Cas { ctx, .. }
            | ShardOp::Update { ctx, .. }
            | ShardOp::Prepare { ctx, .. }
            | ShardOp::Resolve { ctx, .. }
            | ShardOp::Settle { ctx, .. } => Some(ctx),
            ShardOp::Get { .. } | ShardOp::Marker { .. } => None,
        }
    }
}

/// Responses from one shard. Every variant carries the shard `version`
/// at response time so clients maintain their observed-version vector.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ShardResp<K: Ord, V> {
    /// `Get` result.
    Value { val: Option<V>, version: u64 },
    /// Previous value from `Put`/`Update`.
    Prev { prev: Option<V>, version: u64 },
    /// `Cas` outcome.
    CasResult { ok: bool, prev: Option<V>, version: u64 },
    /// `Prepare` accepted; this shard's vote.
    Vote { ok: bool, version: u64 },
    /// `Prepare` raced a finished multi: the recorded verdict.
    Resolved { commit: bool, version: u64 },
    /// `Prepare` for an id its originator has superseded here: that
    /// multi-op is resolved on *every* involved shard
    /// (the originator numbered a later one only after that), so there
    /// is nothing left to help and no verdict to report.
    Stale { version: u64 },
    /// The key (or a descriptor key) is locked by another in-flight
    /// multi-op; the full holder descriptor enables helping.
    Blocked { holder: Box<MultiDesc<K, V>>, version: u64 },
    /// `Resolve` applied (or was already applied), or a `Settle`.
    Ack { version: u64 },
    /// `Marker` capture.
    Part(Box<SnapPart<K, V>>),
}

/// A shard's bookkeeping sizes (gauges), from [`ShardState::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Origins remembered here: at most one per handle that ever
    /// prepared a multi-op on this shard, however many it ran.
    pub tombstones: usize,
    /// Early captures waiting for their marker.
    pub early: usize,
}

/// The shard state machine. See module docs.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ShardState<K: Ord, V, M> {
    /// This replica's shard index and the routing parameters — constants
    /// after construction, carried in-state so `apply` can route
    /// descriptor keys without out-of-band context.
    shard: usize,
    nshards: usize,
    seed: u64,
    /// Mutation counter: bumped by every state-changing transition.
    version: u64,
    map: ShardMap<K, V>,
    /// Prepared-but-unresolved multi-ops. These *are* the locks: a
    /// local key named by a pending descriptor is locked by it (see
    /// [`Self::holder_of`]), and `prepare` admits no descriptor that
    /// names a locked key, so each key has at most one holder.
    pending: BTreeMap<MultiId, PendingMulti<K, V>>,
    /// Tombstones: per origin, the newest multi-op admitted here and
    /// its verdict. An arbitrarily stalled helper may re-send `Prepare`
    /// or `Resolve` for an ancient multi, and answering as if it were
    /// new would re-lock keys or re-apply writes — but one entry per
    /// *origin* is enough to refuse it, because an originator runs one
    /// multi-op at a time and numbers `(o, s + 1)` only after `(o, s)`
    /// was resolved on every involved shard (`StoreHandle::run_multi`
    /// returned; a handle reused after a caught crash finishes its
    /// orphan first). So a descriptor `(o, s)` reaching this shard
    /// proves every `(o, s' < s)` is finished everywhere, and of origin
    /// `o` only the newest id can still be in flight: it keeps its
    /// exact verdict, anything older answers [`ShardResp::Stale`].
    /// The same premise makes the committed tombstones the capture's
    /// whole commit window ([`SnapPart::committed`]). Bounded by the
    /// origins that ever prepared a multi-op on this shard — about 24
    /// bytes each — independent of how many multi-ops they ran.
    origins: BTreeMap<u32, Tombstone>,
    /// Max observed version per shard over all ops applied here,
    /// indexed by shard (length `nshards` from construction).
    know: Vec<u64>,
    /// Highest epoch swept by the stamp rule ([`Self::pre_capture`])
    /// or reached by a marker. Invariant: every epoch `<= stamp_hi`
    /// either has its marker applied here or has an early capture
    /// waiting for it, and no epoch above it has either — so each
    /// mutation only walks the epochs *newly revealed* by its stamp,
    /// amortized O(1) per epoch even when a crashed snapshot leaves an
    /// epoch open forever.
    stamp_hi: u64,
    /// Pre-mutation captures for epochs whose marker has not reached
    /// this shard but whose existence a straggling mutation revealed
    /// (stamp rule, module docs). Claimed and removed by the marker;
    /// an entry whose snapshotter crashed before its marker stays
    /// claimable (the snapshotter may only be stalled) — one retained
    /// capture per crashed snapshot per shard is the leak bound. The
    /// epochs of one sweep share one capture, and an image copies
    /// pointers; a capture's `epoch` is set when its marker claims it.
    early: BTreeMap<u64, Arc<SnapPart<K, V>>>,
    _merge: PhantomData<M>,
}

impl<K, V, M> ShardState<K, V, M>
where
    K: Clone + Ord + Hash + Debug,
    V: Clone + Eq + Hash + Debug,
    M: Merge<V>,
{
    #[must_use]
    pub fn new(shard: usize, nshards: usize, seed: u64) -> Self {
        ShardState {
            shard,
            nshards,
            seed,
            version: 0,
            map: ShardMap::new(),
            pending: BTreeMap::new(),
            origins: BTreeMap::new(),
            know: vec![0; nshards],
            stamp_hi: 0,
            early: BTreeMap::new(),
            _merge: PhantomData,
        }
    }

    /// Photograph the capture-relevant state *now*. Of the commits only
    /// each origin's newest rides along, read off its tombstone — older
    /// ones cannot be torn in any cut that could contain this capture
    /// (see [`SnapPart::committed`]) — so captures stay proportional to
    /// in-flight work and originators, not history.
    fn part_now(&self, epoch: u64) -> SnapPart<K, V> {
        let committed = self
            .origins
            .iter()
            .filter(|(_, t)| t.verdict == Some(true))
            .map(|(&o, t)| MultiId::new(o, t.seq))
            .collect();
        SnapPart {
            epoch,
            map: self.map.clone(),
            pending: self.pending.clone(),
            committed,
            version: self.version,
            know: self.know.clone(),
        }
    }

    /// The stamp rule: an op stamped `stamp` proves every epoch up to
    /// `stamp` was opened before it ran. Each such epoch above
    /// `stamp_hi` has neither its marker applied here nor a capture
    /// (the `stamp_hi` invariant), so it gets an early capture of the
    /// **pre-op** state, excluding the op from the cut.
    ///
    /// Each epoch is swept at most once, and one sweep takes one
    /// capture that all its epochs share, so an op pays at most one
    /// state copy however many epochs its stamp reveals.
    fn pre_capture(&mut self, stamp: u64) {
        if stamp > self.stamp_hi {
            let part = Arc::new(self.part_now(self.stamp_hi + 1));
            self.early.extend((self.stamp_hi + 1..=stamp).map(|e| (e, Arc::clone(&part))));
            self.stamp_hi = stamp;
        }
    }

    /// Apply a mutating op's context: early-capture first (so an
    /// excluded op's effects — including its knowledge — stay out of
    /// the cut), then merge the client's observed-version vector.
    fn absorb(&mut self, ctx: &Ctx) {
        self.pre_capture(ctx.epoch);
        for (e, &v) in self.know.iter_mut().zip(&ctx.know) {
            if v > *e {
                *e = v;
            }
        }
    }

    /// The holder descriptor blocking `key`, if any: the pending
    /// multi-op whose descriptor names `key`, when `key` is this
    /// shard's. Free when nothing is pending; otherwise O(in-flight
    /// multi-ops), at most one per originator.
    fn holder_of(&self, key: &K) -> Option<Box<MultiDesc<K, V>>> {
        if self.pending.is_empty() || route(self.seed, self.nshards, key) != self.shard {
            return None;
        }
        let pm = self
            .pending
            .values()
            .find(|pm| pm.desc.expects.contains_key(key) || pm.desc.writes.contains_key(key))?;
        Some(Box::new(pm.desc.clone()))
    }

    /// Replica-side read of `key` with the same lock discipline as the
    /// decided [`ShardOp::Get`]: `Err(holder)` when the key is locked
    /// by an in-flight multi-op, so a log-free reader
    /// ([`crate::StoreHandle::get`]) helps the multi to completion and
    /// retries instead of observing it half-applied. `Ok` carries the
    /// value and the shard version at the observed frontier (the
    /// version feeds the client's observed-version vector exactly as a
    /// decided [`ShardResp::Value`] would).
    ///
    /// # Errors
    ///
    /// The blocking multi-op's descriptor, for helping.
    pub fn peek(&self, key: &K) -> Peek<Option<V>, K, V> {
        match self.holder_of(key) {
            Some(holder) => Err(holder),
            None => Ok((self.map.get(key).cloned(), self.version)),
        }
    }

    /// [`Self::peek`] over several keys in one replica pass, for
    /// [`crate::StoreHandle::multi_get`]: every value is taken from the
    /// same observed frontier of this shard, or the first blocking
    /// holder is handed back for helping.
    ///
    /// # Errors
    ///
    /// As [`Self::peek`].
    pub fn peek_many<'k>(
        &self,
        keys: impl IntoIterator<Item = &'k K>,
    ) -> Peek<Vec<Option<V>>, K, V>
    where
        K: 'k,
    {
        let vals = keys.into_iter().map(|key| self.peek(key).map(|(val, _)| val)).collect::<Result<_, _>>()?;
        Ok((vals, self.version))
    }

    fn prepare(&mut self, desc: &MultiDesc<K, V>) -> ShardResp<K, V> {
        let id = desc.id;
        if let Some(pm) = self.pending.get(&id) {
            return ShardResp::Vote { ok: pm.vote, version: self.version };
        }
        match self.origins.get(&id.origin()) {
            Some(t) if id.seq() < t.seq => return ShardResp::Stale { version: self.version },
            Some(&Tombstone { seq, verdict: Some(commit) }) if seq == id.seq() => {
                return ShardResp::Resolved { commit, version: self.version };
            }
            _ => {}
        }
        for k in desc.local_keys(self.seed, self.nshards, self.shard) {
            if let Some(holder) = self.holder_of(k) {
                // Nothing is recorded: the retry after helping must
                // find this id as new as it is now.
                return ShardResp::Blocked { holder, version: self.version };
            }
        }
        let vote = desc
            .expects
            .iter()
            .filter(|(k, _)| route(self.seed, self.nshards, k) == self.shard)
            .all(|(k, expect)| self.map.get(k) == expect.as_ref());
        self.pending.insert(id, PendingMulti { desc: desc.clone(), vote });
        self.origins.insert(id.origin(), Tombstone { seq: id.seq(), verdict: None });
        self.version += 1;
        ShardResp::Vote { ok: vote, version: self.version }
    }

    fn resolve(&mut self, id: MultiId, commit: bool) -> ShardResp<K, V> {
        let Some(pm) = self.pending.remove(&id) else {
            // Already resolved here, superseded, or (never, from a
            // correct resolver) not prepared on this log: nothing to
            // do, and the machine stays total.
            return ShardResp::Ack { version: self.version };
        };
        if commit {
            pm.desc.apply_writes(&mut self.map, self.seed, self.nshards, self.shard);
        }
        if let Some(t) = self.origins.get_mut(&id.origin()).filter(|t| t.seq == id.seq()) {
            t.verdict = Some(commit);
        }
        self.version += 1;
        ShardResp::Ack { version: self.version }
    }

    /// Apply marker `e`: its bookkeeping, then its part. A marker is a
    /// stamped message: the epoch counter is a fetch-add, so
    /// `Marker{e}` proves every epoch below `e` is open, exactly as an
    /// op stamped `e - 1` would. Sweep those first, then claim `e`'s
    /// early capture and raise `stamp_hi` over `e` — which keeps the
    /// `stamp_hi` invariant with no record of which markers were
    /// applied. Without a waiting capture the part is taken now. A
    /// capture may still be shared (with the rest of its sweep, or an
    /// image); cloning it out of the `Arc` copies the map's root
    /// pointer and the in-flight bookkeeping, not the keys.
    fn marker(&mut self, e: u64) -> SnapPart<K, V> {
        self.pre_capture(e.saturating_sub(1));
        self.stamp_hi = self.stamp_hi.max(e);
        match self.early.remove(&e) {
            Some(early) => SnapPart { epoch: e, ..Arc::unwrap_or_clone(early) },
            None => self.part_now(e),
        }
    }

    /// This shard's bookkeeping sizes.
    #[must_use]
    pub fn stats(&self) -> ShardStats {
        ShardStats { tombstones: self.origins.len(), early: self.early.len() }
    }
}

impl<K, V, M> ObjectSpec for ShardState<K, V, M>
where
    K: Clone + Ord + Hash + Debug,
    V: Clone + Eq + Hash + Debug,
    M: Merge<V>,
{
    type Op = ShardOp<K, V, M>;
    type Resp = ShardResp<K, V>;

    fn apply(&mut self, _pid: Pid, op: &Self::Op) -> Self::Resp {
        match op {
            // Reads must respect multi-op locks: the holder's resolve
            // lands shard by shard, so a read slipping past the lock
            // here could combine with a read on another shard to observe
            // the multi half-applied. Hand the reader the descriptor to
            // help instead.
            ShardOp::Get { key } => match self.peek(key) {
                Ok((val, version)) => ShardResp::Value { val, version },
                Err(holder) => ShardResp::Blocked { holder, version: self.version },
            },
            ShardOp::Put { key, val, ctx } => {
                self.absorb(ctx);
                if let Some(holder) = self.holder_of(key) {
                    return ShardResp::Blocked { holder, version: self.version };
                }
                let prev = write_key(&mut self.map, key, val.clone());
                self.version += 1;
                ShardResp::Prev { prev, version: self.version }
            }
            ShardOp::Cas { key, expect, new, ctx } => {
                self.absorb(ctx);
                if let Some(holder) = self.holder_of(key) {
                    return ShardResp::Blocked { holder, version: self.version };
                }
                let prev = self.map.get(key).cloned();
                let ok = prev == *expect;
                if ok {
                    write_key(&mut self.map, key, new.clone());
                    self.version += 1;
                }
                ShardResp::CasResult { ok, prev, version: self.version }
            }
            ShardOp::Update { key, merge, ctx } => {
                self.absorb(ctx);
                if let Some(holder) = self.holder_of(key) {
                    return ShardResp::Blocked { holder, version: self.version };
                }
                let new = merge.merge(self.map.get(key));
                let prev = write_key(&mut self.map, key, new);
                self.version += 1;
                ShardResp::Prev { prev, version: self.version }
            }
            ShardOp::Prepare { desc, ctx } => {
                self.absorb(ctx);
                self.prepare(desc)
            }
            ShardOp::Resolve { id, commit, ctx } => {
                self.absorb(ctx);
                self.resolve(*id, *commit)
            }
            ShardOp::Settle { .. } => ShardResp::Ack { version: self.version },
            ShardOp::Marker { epoch } => ShardResp::Part(Box::new(self.marker(*epoch))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type St = ShardState<u64, i64, ()>;

    fn ctx(epoch: u64) -> Ctx {
        Ctx { epoch, know: Vec::new() }
    }

    fn desc(id: MultiId, writes: &[(u64, i64)]) -> MultiDesc<u64, i64> {
        MultiDesc {
            id,
            expects: BTreeMap::new(),
            writes: writes.iter().map(|&(k, v)| (k, Some(v))).collect(),
            shards: vec![0],
        }
    }

    fn part(resp: ShardResp<u64, i64>) -> SnapPart<u64, i64> {
        match resp {
            ShardResp::Part(p) => *p,
            r => panic!("marker answered {r:?}"),
        }
    }

    /// A commit rides every capture as its origin's newest committed
    /// id — another origin's traffic does not evict it, and a
    /// straggler's prepare still gets its verdict — until the origin's
    /// next prepare on this shard replaces the tombstone, so a capture
    /// holds one commit per origin at most, not the commit history.
    #[test]
    fn a_commit_rides_captures_until_its_origin_prepares_again() {
        let mut st = St::new(0, 1, 0);
        let d = desc(MultiId::new(1, 0), &[(1, 10), (2, 20)]);
        finish(&mut st, &d, true);
        let p = part(st.apply(Pid(0), &ShardOp::Marker { epoch: 1 }));
        assert_eq!(p.committed, BTreeSet::from([d.id]), "the commit rides the capture");
        assert_eq!(p.map.get(&1), Some(&10));
        let other = desc(MultiId::new(2, 0), &[(3, 30)]);
        finish(&mut st, &other, true);
        match st.apply(Pid(0), &ShardOp::Prepare { desc: d.clone(), ctx: ctx(0) }) {
            ShardResp::Resolved { commit: true, .. } => {}
            r => panic!("straggler prepare answered {r:?}"),
        }
        let p = part(st.apply(Pid(0), &ShardOp::Marker { epoch: 2 }));
        assert_eq!(p.committed, BTreeSet::from([d.id, other.id]), "another origin evicted the commit");
        let next = desc(MultiId::new(1, 1), &[(1, 11)]);
        st.apply(Pid(0), &ShardOp::Prepare { desc: next.clone(), ctx: ctx(0) });
        let p = part(st.apply(Pid(0), &ShardOp::Marker { epoch: 3 }));
        assert_eq!(p.committed, BTreeSet::from([other.id]), "the next prepare retires the commit");
        assert!(p.pending.contains_key(&next.id));
        st.apply(Pid(0), &ShardOp::Resolve { id: next.id, commit: false, ctx: ctx(0) });
        let p = part(st.apply(Pid(0), &ShardOp::Marker { epoch: 4 }));
        assert_eq!(p.committed, BTreeSet::from([other.id]), "an abort rides no capture");
    }

    /// A permanently open epoch (crashed snapshotter) costs one
    /// retained capture: each open epoch is captured once, later
    /// mutations do not re-walk the epoch range, and the early capture
    /// stays claimable forever.
    #[test]
    fn stuck_epoch_costs_are_bounded() {
        let mut st = St::new(0, 1, 0);
        st.apply(Pid(0), &ShardOp::Put { key: 1, val: Some(1), ctx: ctx(0) });
        // Epochs 1..=4 open; markers for 2..=4 arrive (epoch 1 crashed
        // before reaching this shard). A mutation stamped 4 reveals all
        // four and early-captures each once; the markers claim those
        // captures instead of building new ones.
        st.apply(Pid(0), &ShardOp::Put { key: 1, val: Some(2), ctx: ctx(4) });
        assert_eq!(st.stats().early, 4);
        assert_eq!(st.stamp_hi, 4);
        let first = Arc::clone(&st.early[&1]);
        assert!(st.early.values().all(|p| Arc::ptr_eq(p, &first)), "one sweep took more than one capture");
        drop(first);
        for e in 2..=4 {
            let p = part(st.apply(Pid(0), &ShardOp::Marker { epoch: e }));
            assert_eq!(p.map.get(&1), Some(&1), "marker {e} rebuilt its part");
            assert_eq!(p.epoch, e);
        }
        assert_eq!(st.stats().early, 1, "markers claimed their captures");
        assert_eq!(st.stamp_hi, 4);
        // Later mutations at the same stamp do no epoch work at all.
        let early = st.early.clone();
        st.apply(Pid(0), &ShardOp::Put { key: 1, val: Some(3), ctx: ctx(4) });
        assert_eq!(st.early, early);
        assert_eq!(st.stamp_hi, 4);
        // The stalled snapshotter finally lands its marker: it claims
        // the early capture (pre-mutation state, excluding every write
        // stamped >= 1).
        let p = part(st.apply(Pid(0), &ShardOp::Marker { epoch: 1 }));
        assert_eq!(p.map.get(&1), Some(&1), "early capture excluded stamped writes");
        assert_eq!(st.stats().early, 0);
        assert_eq!(st.stamp_hi, 4);
    }

    /// A marker is a stamped message: `Marker{3}` proves epochs 1 and 2
    /// are open, so it captures both before anything after it lands
    /// here — a later write stamped below them included — and their
    /// own markers claim those captures.
    #[test]
    fn a_marker_captures_the_open_epochs_below_it() {
        let mut st = St::new(0, 1, 0);
        st.apply(Pid(0), &ShardOp::Put { key: 1, val: Some(1), ctx: ctx(0) });
        part(st.apply(Pid(0), &ShardOp::Marker { epoch: 3 }));
        assert_eq!(st.stats().early, 2);
        st.apply(Pid(0), &ShardOp::Put { key: 1, val: Some(2), ctx: ctx(0) });
        let p = part(st.apply(Pid(0), &ShardOp::Marker { epoch: 1 }));
        assert_eq!(p.map.get(&1), Some(&1), "the write after marker 3 leaked into epoch 1");
        assert_eq!(st.stats().early, 1);
    }

    /// A descriptor spanning two shards names keys of both, but it
    /// locks only its own shard's: on shard 0 the key routed to shard 1
    /// neither blocks a read nor a prepare that names only it.
    #[test]
    fn a_foreign_key_in_a_pending_descriptor_does_not_block() {
        let mut st = St::new(0, 2, 0);
        let key_on = |shard| (0u64..).find(|k| route(0, 2, k) == shard).unwrap();
        let (mine, foreign) = (key_on(0), key_on(1));
        let mut d = desc(MultiId::new(1, 0), &[(mine, 10), (foreign, 20)]);
        d.shards = vec![0, 1];
        st.apply(Pid(0), &ShardOp::Prepare { desc: d.clone(), ctx: ctx(0) });
        match st.apply(Pid(0), &ShardOp::Get { key: mine }) {
            ShardResp::Blocked { holder, .. } => assert_eq!(holder.id, d.id),
            r => panic!("get on a locked key answered {r:?}"),
        }
        assert!(st.peek(&mine).is_err());
        assert_eq!(st.peek(&foreign), Ok((None, st.version)));
        match st.apply(Pid(0), &ShardOp::Get { key: foreign }) {
            ShardResp::Value { val: None, .. } => {}
            r => panic!("get on a foreign key answered {r:?}"),
        }
        let mut other = desc(MultiId::new(2, 0), &[(foreign, 30)]);
        other.shards = vec![1];
        match st.apply(Pid(0), &ShardOp::Prepare { desc: other, ctx: ctx(0) }) {
            ShardResp::Vote { ok: true, .. } => {}
            r => panic!("prepare naming only a foreign key answered {r:?}"),
        }
    }

    /// Reads on a locked key hand back the holder instead of a value —
    /// the spec-level half of the no-torn-reads guarantee.
    #[test]
    fn get_blocks_on_a_locked_key() {
        let mut st = St::new(0, 1, 0);
        let d = desc(MultiId(3), &[(1, 10)]);
        st.apply(Pid(0), &ShardOp::Prepare { desc: d.clone(), ctx: ctx(0) });
        match st.apply(Pid(0), &ShardOp::Get { key: 1 }) {
            ShardResp::Blocked { holder, .. } => assert_eq!(holder.id, d.id),
            r => panic!("get on a locked key answered {r:?}"),
        }
        // An unrelated key still reads freely.
        match st.apply(Pid(0), &ShardOp::Get { key: 2 }) {
            ShardResp::Value { val: None, .. } => {}
            r => panic!("get on a free key answered {r:?}"),
        }
    }

    /// Prepare and resolve one multi-op, as `run_multi` decides them on
    /// one shard.
    fn finish(st: &mut St, d: &MultiDesc<u64, i64>, commit: bool) {
        st.apply(Pid(0), &ShardOp::Prepare { desc: d.clone(), ctx: ctx(0) });
        st.apply(Pid(0), &ShardOp::Resolve { id: d.id, commit, ctx: ctx(0) });
    }

    /// Entries held by every collection of the state: what an image
    /// (checkpoint, bootstrap) has to clone.
    fn image_entries(st: &St) -> usize {
        st.map.len() + st.pending.len() + st.origins.len() + st.know.len() + st.early.len()
    }

    /// `n` committed multi-ops on 16 keys, round-robin over three
    /// origins, each origin numbering its own in order.
    fn after_commits(n: u64) -> St {
        let mut st = St::new(0, 1, 0);
        for i in 0..n {
            let d = desc(MultiId::new((i % 3) as u32 + 1, i / 3), &[(i % 16, i as i64), ((i + 1) % 16, -(i as i64))]);
            finish(&mut st, &d, true);
        }
        st
    }

    /// The bound: one tombstone per origin that ever committed here,
    /// and a state image whose size does not depend on how many
    /// multi-ops those origins ran.
    #[test]
    fn tombstones_and_image_size_track_origins_not_commits() {
        let small = after_commits(100);
        assert_eq!(small.stats().tombstones, 3);
        let large = after_commits(10_000);
        let stats = ShardStats { tombstones: 3, early: 0 };
        assert_eq!(large.stats(), stats, "tombstones grew with the commit count");
        assert_eq!(image_entries(&after_commits(1_000)), image_entries(&after_commits(100_000)));
    }

    /// A helper that slept through its multi-op's completion *and* the
    /// originator's next ones: whatever it re-sends for the superseded
    /// id changes nothing — no lock retaken, no write re-applied, not
    /// even a version bump.
    #[test]
    fn straggler_for_a_superseded_id_changes_nothing() {
        let mut st = St::new(0, 1, 0);
        let old = desc(MultiId::new(7, 0), &[(1, 10), (2, 20)]);
        finish(&mut st, &old, true);
        finish(&mut st, &desc(MultiId::new(7, 1), &[(1, 11)]), true);
        finish(&mut st, &desc(MultiId::new(7, 2), &[(2, 22), (3, 33)]), true);
        let before = st.clone();
        match st.apply(Pid(0), &ShardOp::Prepare { desc: old.clone(), ctx: ctx(0) }) {
            ShardResp::Stale { version } => assert_eq!(version, before.version),
            r => panic!("superseded prepare answered {r:?}"),
        }
        assert_eq!(st, before);
        for op in [
            ShardOp::Resolve { id: old.id, commit: true, ctx: ctx(0) },
            ShardOp::Resolve { id: old.id, commit: false, ctx: ctx(0) },
            ShardOp::Settle { id: old.id, ctx: ctx(0) },
        ] {
            match st.apply(Pid(0), &op) {
                ShardResp::Ack { version } => assert_eq!(version, before.version),
                r => panic!("{op:?} answered {r:?}"),
            }
            assert_eq!(st, before, "{op:?} moved the state");
        }
        assert_eq!(st.map.get(&1), Some(&11));
        assert_eq!(st.map.get(&2), Some(&22));
    }

    /// An aborted multi-op that is still its origin's newest answers
    /// its exact verdict too; another origin's traffic does not disturb
    /// it.
    #[test]
    fn newest_id_answers_its_exact_verdict() {
        let mut st = St::new(0, 1, 0);
        let mut d = desc(MultiId::new(4, 5), &[(1, 10)]);
        d.expects.insert(1, Some(99));
        match st.apply(Pid(0), &ShardOp::Prepare { desc: d.clone(), ctx: ctx(0) }) {
            ShardResp::Vote { ok: false, .. } => {}
            r => panic!("prepare answered {r:?}"),
        }
        st.apply(Pid(0), &ShardOp::Resolve { id: d.id, commit: false, ctx: ctx(0) });
        finish(&mut st, &desc(MultiId::new(5, 0), &[(1, 1)]), true);
        match st.apply(Pid(0), &ShardOp::Prepare { desc: d, ctx: ctx(0) }) {
            ShardResp::Resolved { commit: false, .. } => {}
            r => panic!("straggler prepare answered {r:?}"),
        }
        assert_eq!(st.map.get(&1), Some(&1));
        assert_eq!(st.stats().tombstones, 2);
    }

    /// A `Blocked` prepare leaves no trace, so its retry after helping
    /// is admitted as the new id it still is.
    #[test]
    fn blocked_prepare_records_nothing() {
        let mut st = St::new(0, 1, 0);
        let holder = desc(MultiId::new(1, 0), &[(1, 10)]);
        st.apply(Pid(0), &ShardOp::Prepare { desc: holder.clone(), ctx: ctx(0) });
        let before = st.clone();
        let late = desc(MultiId::new(2, 0), &[(1, 20), (2, 20)]);
        match st.apply(Pid(0), &ShardOp::Prepare { desc: late.clone(), ctx: ctx(0) }) {
            ShardResp::Blocked { holder: h, .. } => assert_eq!(h.id, holder.id),
            r => panic!("conflicting prepare answered {r:?}"),
        }
        assert_eq!(st, before);
        assert_eq!(st.stats().tombstones, 1);
        st.apply(Pid(0), &ShardOp::Resolve { id: holder.id, commit: true, ctx: ctx(0) });
        match st.apply(Pid(0), &ShardOp::Prepare { desc: late, ctx: ctx(0) }) {
            ShardResp::Vote { ok: true, .. } => {}
            r => panic!("retried prepare answered {r:?}"),
        }
        assert_eq!(st.stats().tombstones, 2);
    }

    #[test]
    fn multi_id_packs_origin_and_seq() {
        let id = MultiId::new(3, 7);
        assert_eq!((id.origin(), id.seq()), (3, 7));
        let top = MultiId::new((1 << MultiId::ORIGIN_BITS) - 1, (1 << MultiId::SEQ_BITS) - 1);
        assert_eq!(top.0, u64::MAX);
        // The benchmark's bare ascending ids are origin 0.
        assert_eq!((MultiId(12_345).origin(), MultiId(12_345).seq()), (0, 12_345));
        assert!(MultiId::new(1, 0) > MultiId::new(0, u64::MAX >> MultiId::ORIGIN_BITS));
    }

    #[test]
    #[should_panic(expected = "origin ids exhausted")]
    fn multi_id_origin_overflow_panics() {
        let _ = MultiId::new(1 << MultiId::ORIGIN_BITS, 0);
    }

    #[test]
    #[should_panic(expected = "sequence numbers of origin 2 exhausted")]
    fn multi_id_seq_overflow_panics() {
        let _ = MultiId::new(2, 1 << MultiId::SEQ_BITS);
    }

    fn hash_of<T: Hash>(t: &T) -> u64 {
        use std::hash::{DefaultHasher, Hasher};
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    /// A fork through `Clone` is a replica of its own: over random op
    /// streams — all eight variants, legal or not (ids out of order,
    /// resolves without prepares, markers for any epoch) — at every
    /// step the clone is equal and hashes equal, an op applied to it
    /// leaves the source untouched though the two share `map` until
    /// then, and the same op applied to the source answers the same
    /// and brings the two back together.
    #[test]
    fn a_fork_diverges_alone_on_random_streams() {
        type S2 = ShardState<u64, i64, Bump>;
        for seed in 1..=64u64 {
            let mut rng = waitfree_sched::rng::DetRng::new(seed);
            let mut src = S2::new(0, 2, seed);
            let mut epoch = 0;
            let mut seen = [false; 8];
            for step in 0..400 {
                let mut below = |n: u64| rng.below(n as usize) as u64;
                epoch += u64::from(below(8) == 0);
                let c = Ctx { epoch: epoch.saturating_sub(below(2)), know: vec![below(50), below(50)] };
                let key = below(8);
                let id = MultiId::new(below(3) as u32, step / 40 + below(3));
                let val = || Some(step as i64);
                let op: ShardOp<u64, i64, Bump> = match below(12) {
                    0 => ShardOp::Get { key },
                    1 => ShardOp::Put { key, val: val().filter(|_| step % 5 != 0), ctx: c },
                    2 => ShardOp::Cas { key, expect: src.map.get(&key).copied(), new: val(), ctx: c },
                    3 => ShardOp::Update { key, merge: Bump(1), ctx: c },
                    4..=6 => {
                        let mut d = desc(id, &[(key, step as i64), (below(8), -1)]);
                        if below(4) == 0 {
                            d.expects.insert(key, Some(0));
                        }
                        ShardOp::Prepare { desc: d, ctx: c }
                    }
                    7 | 8 => ShardOp::Resolve { id, commit: below(3) != 0, ctx: c },
                    9 => ShardOp::Settle { id, ctx: c },
                    _ => ShardOp::Marker { epoch: 1 + below(epoch + 1) },
                };
                seen[match op {
                    ShardOp::Get { .. } => 0,
                    ShardOp::Put { .. } => 1,
                    ShardOp::Cas { .. } => 2,
                    ShardOp::Update { .. } => 3,
                    ShardOp::Prepare { .. } => 4,
                    ShardOp::Resolve { .. } => 5,
                    ShardOp::Settle { .. } => 6,
                    ShardOp::Marker { .. } => 7,
                }] = true;
                let mut fork = src.clone();
                let before = hash_of(&src);
                assert_eq!(fork, src, "seed {seed} step {step}: clone differs");
                assert_eq!(hash_of(&fork), before, "seed {seed} step {step}");
                let fork_resp = fork.apply(Pid(0), &op);
                assert_eq!(hash_of(&src), before, "seed {seed} step {step}: the clone shares state");
                assert_eq!(src.apply(Pid(0), &op), fork_resp, "seed {seed} step {step}: {op:?}");
                assert_eq!(fork, src, "seed {seed} step {step}: {op:?}");
            }
            assert!(seen.iter().all(|&s| s), "seed {seed}: a variant never ran");
        }
    }
}
