//! The systems under test. **Every call into the measured crates is in
//! this file** — the pinned public surface `README.md` lists — so a PR
//! that renames or removes one of these names knows it needs a paired
//! benchmark follow-up, and nothing else in the benchmark can drift
//! with the program.
//!
//! Two systems: one `WfUniversal<Counter>` (the §4.1 log alone) and a
//! `ShardedStore<u64, i64, Bump>`. Each comes in two forms: the
//! [`System`]/[`Client`] pair the timed phases drive through the full
//! public API, and a [`Direct`] set of lower entry points — bare
//! `WfUniversal<ShardState>` logs and local `ShardState` replicas at the
//! same per-shard size — that the traced run's ladder replays the same
//! ops through.

use std::collections::BTreeMap;
use std::hint::black_box;

use waitfree_model::{ObjectSpec, Pid};
use waitfree_objects::counter::{Counter, CounterOp, CounterResp};
use waitfree_store::{
    route, Bump, Ctx, MultiDesc, MultiId, ShardOp, ShardState, ShardedStore, StoreConfig, StoreHandle,
};
use waitfree_sync::universal::{WfHandle, WfUniversal};

use crate::oracle::{self, Expect};
use crate::workload::{key_of, KvShape, Op, CLIENTS};

/// Per-handle op budget. The default (2²⁰) panics a handle in under a
/// second at measured rates; this one outlasts any run (asserted
/// against the plan in `run`).
pub const OPS_BUDGET: usize = 1 << 40;

/// Router seed of every store (the `StoreConfig` default, spelled out
/// so the partition cannot move under the benchmark).
pub const ROUTER_SEED: u64 = 0x5eed_5709_e5ca_1ab1;

/// The shard that owns `key` in a store of `shape`.
fn shard_of(shape: &KvShape, key: u64) -> usize {
    route(ROUTER_SEED, shape.shards, &key)
}

type Shard = ShardState<u64, i64, Bump>;
type LogOp = ShardOp<u64, i64, Bump>;

/// The program's own per-handle counters, summed over a client's
/// handles (`max_threading_steps`: max).
#[derive(Clone, Copy, Debug, Default)]
pub struct LogCounters {
    pub decides: u64,
    pub cas_failures: u64,
    pub invokes: u64,
    pub replayed: u64,
    pub max_threading_steps: u64,
}

impl LogCounters {
    fn of<S: ObjectSpec>(h: &WfHandle<S>) -> Self {
        LogCounters {
            decides: h.decides() as u64,
            cas_failures: h.cas_failures() as u64,
            invokes: h.invokes() as u64,
            replayed: h.replayed() as u64,
            max_threading_steps: h.max_threading_steps() as u64,
        }
    }

    #[must_use]
    pub fn plus(self, o: Self) -> Self {
        LogCounters {
            decides: self.decides + o.decides,
            cas_failures: self.cas_failures + o.cas_failures,
            invokes: self.invokes + o.invokes,
            replayed: self.replayed + o.replayed,
            max_threading_steps: self.max_threading_steps.max(o.max_threading_steps),
        }
    }

    /// Counts since `earlier` (the max is a lifetime high-water mark
    /// and stays as it is).
    #[must_use]
    pub fn since(self, earlier: Self) -> Self {
        LogCounters {
            decides: self.decides - earlier.decides,
            cas_failures: self.cas_failures - earlier.cas_failures,
            invokes: self.invokes - earlier.invokes,
            replayed: self.replayed - earlier.replayed,
            max_threading_steps: self.max_threading_steps,
        }
    }
}

/// The program's own per-object gauges, summed over shards.
#[derive(Clone, Copy, Debug, Default)]
pub struct Gauges {
    pub checkpoints: u64,
    pub live_segments: u64,
    pub registry_slots: u64,
}

impl Gauges {
    fn of<S: ObjectSpec>(u: &WfUniversal<S>) -> Self {
        Gauges {
            checkpoints: u.checkpoints() as u64,
            live_segments: u.live_segments() as u64,
            registry_slots: u.registry_slots() as u64,
        }
    }
}

/// One client thread's access to the system.
pub trait Client: Send + 'static {
    /// Execute `op` through the full public API and check its output
    /// inline; returns the number of oracle violations (0 or 1).
    fn exec(&mut self, op: &Op) -> u64;
    /// Point every `Cas` in `ops` at its key's current value, so it
    /// succeeds (the ladder calls this, untimed; single client).
    fn aim(&mut self, _ops: &mut [Op]) {}
    fn counters(&self) -> LogCounters;
    fn retire(&mut self);
}

/// A system under test: built and preloaded by [`System::build`].
pub trait System: Clone + Send + 'static {
    type C: Client;
    type D: Direct;
    fn client(&self, id: usize) -> Self::C;
    fn gauges(&self) -> Gauges;
    /// The quiescent end-of-run oracle, through `c`. Returns
    /// `(checks made, checks failed)`.
    fn verify(&self, c: &mut Self::C, expect: &Expect) -> (u64, u64);
    /// The ladder's lower entry points, at this system's state size.
    fn direct(&self) -> Self::D;
}

// ---------------------------------------------------------------------
// The universal log alone
// ---------------------------------------------------------------------

#[derive(Clone)]
pub struct CounterSys {
    obj: WfUniversal<Counter>,
    checkpoint_every: usize,
}

impl CounterSys {
    #[must_use]
    pub fn build(checkpoint_every: usize) -> Self {
        CounterSys {
            obj: WfUniversal::new_dynamic_checkpointed(Counter::new(0), OPS_BUDGET, checkpoint_every),
            checkpoint_every,
        }
    }
}

/// Client `id` adds `1 << 32·id`, so the counter is two packed op
/// counts and every response names exactly how many of the caller's
/// own adds precede it.
pub struct CounterClient {
    h: WfHandle<Counter>,
    id: usize,
    mine: u64,
    theirs: u64,
}

impl CounterClient {
    /// A response must show exactly the caller's completed adds and at
    /// least as many of the other client's as any earlier response —
    /// which makes all responses distinct, and the final value the sum
    /// of deltas.
    fn check(&mut self, v: i64) -> u64 {
        let f = oracle::counter_fields(v);
        let ok = f[self.id] == self.mine && f[1 - self.id] >= self.theirs;
        self.theirs = self.theirs.max(f[1 - self.id]);
        u64::from(!ok)
    }
}

impl Client for CounterClient {
    fn exec(&mut self, op: &Op) -> u64 {
        match op {
            Op::Add => {
                let CounterResp::Value(v) = self.h.invoke(CounterOp::FetchAndAdd(1 << (32 * self.id))) else {
                    return 1;
                };
                let bad = self.check(v);
                self.mine += 1;
                bad
            }
            Op::CtrRead => {
                let v = self.h.read(Counter::value);
                self.check(v)
            }
            other => unreachable!("{other:?} is not a counter op"),
        }
    }

    fn counters(&self) -> LogCounters {
        LogCounters::of(&self.h)
    }

    fn retire(&mut self) {
        self.h.retire();
    }
}

impl System for CounterSys {
    type C = CounterClient;
    type D = DirectCounter;

    fn client(&self, id: usize) -> CounterClient {
        assert!(id < CLIENTS);
        CounterClient { h: self.obj.register(), id, mine: 0, theirs: 0 }
    }

    fn gauges(&self) -> Gauges {
        Gauges::of(&self.obj)
    }

    fn verify(&self, c: &mut CounterClient, expect: &Expect) -> (u64, u64) {
        let v = c.h.read(Counter::value);
        (1, u64::from(oracle::counter_fields(v) != expect.adds))
    }

    fn direct(&self) -> DirectCounter {
        DirectCounter { sys: CounterSys::build(self.checkpoint_every), handles: Vec::new() }
    }
}

// ---------------------------------------------------------------------
// The sharded store
// ---------------------------------------------------------------------

#[derive(Clone)]
pub struct KvSys {
    store: ShardedStore<u64, i64, Bump>,
    shape: KvShape,
}

impl KvSys {
    /// Construct the store and preload every key through `put` from a
    /// loader handle, retired afterwards (an idle handle would pin log
    /// reclamation for the whole run).
    #[must_use]
    pub fn build(shape: KvShape) -> Self {
        let store = ShardedStore::new(&StoreConfig {
            shards: shape.shards,
            seed: ROUTER_SEED,
            ops_per_handle: OPS_BUDGET,
            // Explicit: with the default `None` the logs never truncate
            // and RSS grows with every put.
            checkpoint_every: Some(shape.checkpoint_every),
            capacity: None,
        });
        let mut loader = store.handle();
        for k in 0..shape.keys {
            loader.put(k, oracle::preload_value(&shape, k));
        }
        loader.retire();
        KvSys { store, shape }
    }
}

pub struct KvClient {
    h: StoreHandle<u64, i64, Bump>,
    shape: KvShape,
}

impl KvClient {
    fn partner(&self, k: u64) -> u64 {
        k + self.shape.keys / 2
    }
}

impl Client for KvClient {
    fn exec(&mut self, op: &Op) -> u64 {
        let reads_as = |v: Option<i64>, k: u64| u64::from(v.map(key_of) != Some(k));
        match *op {
            Op::Get(k) => reads_as(self.h.get(&k), k),
            Op::Put(k, v) => reads_as(self.h.put(k, v), k),
            Op::Cas(k, expect, new) => reads_as(self.h.cas(k, Some(expect), Some(new)).1, k),
            // Bumps the value's op-index field; key and tag bits stay.
            Op::FetchUpdate(k) => reads_as(self.h.fetch_update(k, Bump(1 << 24)), k),
            Op::MultiPut2(k, x) => {
                self.h.multi_put([(k, Some(x)), (self.partner(k), Some(-x))]);
                0
            }
            Op::MultiGet2(k) => {
                let p = self.partner(k);
                let got = self.h.multi_get(&[k, p]);
                let (Some(a), Some(b)) = (got[0], got[1]) else {
                    return 1;
                };
                // A pair on one shard is read at one frontier and must
                // balance; across shards the two reads are independent.
                let torn = shard_of(&self.shape, k) == shard_of(&self.shape, p) && a + b != 0;
                u64::from(torn || a < 0 || b > 0 || key_of(a) != k || key_of(-b) != k)
            }
            Op::Snapshot => {
                let snap = self.h.snapshot();
                u64::from(!oracle::snapshot_ok(&self.shape, &snap.map))
            }
            Op::Add | Op::CtrRead => unreachable!("{op:?} is not a store op"),
        }
    }

    fn aim(&mut self, ops: &mut [Op]) {
        for op in ops {
            if let Op::Cas(k, expect, _) = op {
                *expect = self.h.get(k).expect("every key is preloaded");
            }
        }
    }

    fn counters(&self) -> LogCounters {
        (0..self.shape.shards)
            .map(|s| LogCounters::of(self.h.shard_handle(s)))
            .fold(LogCounters::default(), LogCounters::plus)
    }

    fn retire(&mut self) {
        self.h.retire();
    }
}

impl System for KvSys {
    type C = KvClient;
    type D = DirectKv;

    fn client(&self, _id: usize) -> KvClient {
        KvClient { h: self.store.handle(), shape: self.shape }
    }

    fn gauges(&self) -> Gauges {
        (0..self.shape.shards).map(|s| Gauges::of(self.store.shard(s))).fold(Gauges::default(), |a, g| Gauges {
            checkpoints: a.checkpoints + g.checkpoints,
            live_segments: a.live_segments + g.live_segments,
            registry_slots: a.registry_slots + g.registry_slots,
        })
    }

    fn verify(&self, c: &mut KvClient, expect: &Expect) -> (u64, u64) {
        let snap = c.h.snapshot();
        oracle::final_check(&self.shape, &snap.map, |k| c.h.get(&k), expect)
    }

    fn direct(&self) -> DirectKv {
        DirectKv::build(self.shape)
    }
}

// ---------------------------------------------------------------------
// The ladder's lower entry points
// ---------------------------------------------------------------------

/// The same ops, below the front-end: bare logs and local replicas.
/// One thread drives everything here.
pub trait Direct {
    /// One log-level or replica-level call; a client op lowers to one
    /// or several.
    type Step;
    /// Translate client ops into the steps the front-end would issue,
    /// with every op and context already built (untimed).
    fn lower(&mut self, ops: &[Op]) -> Vec<Self::Step>;
    /// Have exactly `n` handle sets registered (registering late ones
    /// at the current state, retiring surplus ones).
    fn handles(&mut self, n: usize);
    /// Run one step through handle set `hset`: `WfHandle::invoke_ref`
    /// or `WfHandle::read`.
    fn step(&mut self, hset: usize, s: &Self::Step);
    /// Register one late handle at the current state, then retire it.
    fn register_retire(&self);
    /// Register and retire `n` times on a freshly built, empty object.
    fn register_retire_fresh(&self, n: usize);
    fn checkpoint_every(&self) -> usize;
    /// Independent logs behind this system (shards).
    fn logs(&self) -> usize;
}

pub struct DirectCounter {
    sys: CounterSys,
    handles: Vec<WfHandle<Counter>>,
}

pub enum CounterStep {
    Add,
    Read,
}

impl Direct for DirectCounter {
    type Step = CounterStep;

    fn lower(&mut self, ops: &[Op]) -> Vec<CounterStep> {
        ops.iter()
            .map(|op| match op {
                Op::Add => CounterStep::Add,
                Op::CtrRead => CounterStep::Read,
                other => unreachable!("{other:?} is not a counter op"),
            })
            .collect()
    }

    fn handles(&mut self, n: usize) {
        while self.handles.len() > n {
            self.handles.pop().expect("len > n").retire();
        }
        while self.handles.len() < n {
            self.handles.push(self.sys.obj.register());
        }
    }

    fn step(&mut self, hset: usize, s: &CounterStep) {
        let h = &mut self.handles[hset];
        match s {
            CounterStep::Add => {
                black_box(h.invoke_ref(&CounterOp::FetchAndAdd(1)));
            }
            CounterStep::Read => {
                black_box(h.read(Counter::value));
            }
        }
    }

    fn register_retire(&self) {
        self.sys.obj.register().retire();
    }

    fn register_retire_fresh(&self, n: usize) {
        let fresh = CounterSys::build(self.sys.checkpoint_every).obj;
        (0..n).for_each(|_| fresh.register().retire());
    }

    fn checkpoint_every(&self) -> usize {
        self.sys.checkpoint_every
    }

    fn logs(&self) -> usize {
        1
    }
}

pub enum KvStep {
    Read { shard: usize, key: u64 },
    Log { shard: usize, op: LogOp },
}

/// Per shard: a local `ShardState` replica and a bare
/// `WfUniversal<ShardState>`, both preloaded like the store's shard.
pub struct DirectKv {
    shape: KvShape,
    locals: Vec<Shard>,
    logs: Vec<WfUniversal<Shard>>,
    /// `handles[hset][shard]`.
    handles: Vec<Vec<WfHandle<Shard>>>,
    next_multi: u64,
    next_epoch: u64,
}

impl DirectKv {
    fn new_log(&self, shard: usize) -> WfUniversal<Shard> {
        WfUniversal::new_dynamic_checkpointed(
            ShardState::new(shard, self.shape.shards, ROUTER_SEED),
            OPS_BUDGET,
            self.shape.checkpoint_every,
        )
    }

    fn build(shape: KvShape) -> Self {
        let mut d = DirectKv {
            shape,
            locals: (0..shape.shards).map(|s| ShardState::new(s, shape.shards, ROUTER_SEED)).collect(),
            logs: Vec::new(),
            handles: Vec::new(),
            next_multi: 0,
            next_epoch: 0,
        };
        d.logs = (0..shape.shards).map(|s| d.new_log(s)).collect();
        d.handles(1);
        let preload: Vec<Op> = (0..shape.keys).map(|k| Op::Put(k, oracle::preload_value(&shape, k))).collect();
        for s in d.lower(&preload) {
            d.apply(&s);
            d.step(0, &s);
        }
        d
    }

    fn ctx(&self) -> Ctx {
        Ctx { epoch: 0, know: vec![0; self.shape.shards] }
    }

    fn shard_of(&self, key: u64) -> usize {
        shard_of(&self.shape, key)
    }

    /// The router rung: every routing decision the front-end makes for
    /// `ops`, and nothing else.
    pub fn route_all(&self, ops: &[Op]) {
        let half = self.shape.keys / 2;
        for op in ops {
            match *op {
                Op::Get(k) | Op::Put(k, _) | Op::Cas(k, ..) | Op::FetchUpdate(k) => {
                    black_box(self.shard_of(k));
                }
                Op::MultiPut2(k, _) | Op::MultiGet2(k) => {
                    black_box(self.shard_of(k));
                    black_box(self.shard_of(k + half));
                }
                Op::Snapshot | Op::Add | Op::CtrRead => {}
            }
        }
    }

    /// The spec rung: `ObjectSpec::apply` / `ShardState::peek` on the
    /// local replica.
    pub fn apply(&mut self, s: &KvStep) {
        match s {
            KvStep::Read { shard, key } => {
                black_box(self.locals[*shard].peek(key).is_ok());
            }
            KvStep::Log { shard, op } => {
                black_box(self.locals[*shard].apply(Pid(0), op));
            }
        }
    }

    /// One state image of shard `s`, as a checkpoint or a late
    /// registrant takes it.
    pub fn clone_image(&self, s: usize) {
        black_box(self.locals[s].clone());
    }
}

impl Direct for DirectKv {
    type Step = KvStep;

    fn lower(&mut self, ops: &[Op]) -> Vec<KvStep> {
        let half = self.shape.keys / 2;
        let mut out = Vec::with_capacity(ops.len());
        for op in ops {
            match *op {
                Op::Get(k) => out.push(KvStep::Read { shard: self.shard_of(k), key: k }),
                Op::Put(k, v) => out.push(KvStep::Log {
                    shard: self.shard_of(k),
                    op: ShardOp::Put { key: k, val: Some(v), ctx: self.ctx() },
                }),
                Op::MultiPut2(k, x) => {
                    // What `run_multi` decides: every prepare, then
                    // every resolve, then every settle, each over the
                    // involved shards in ascending order.
                    let writes: BTreeMap<u64, Option<i64>> = [(k, Some(x)), (k + half, Some(-x))].into_iter().collect();
                    let mut shards = vec![self.shard_of(k), self.shard_of(k + half)];
                    shards.sort_unstable();
                    shards.dedup();
                    self.next_multi += 1;
                    let id = MultiId(self.next_multi);
                    let desc = MultiDesc { id, expects: BTreeMap::new(), writes, shards: shards.clone() };
                    for &shard in &shards {
                        let op = ShardOp::Prepare { desc: desc.clone(), ctx: self.ctx() };
                        out.push(KvStep::Log { shard, op });
                    }
                    for &shard in &shards {
                        let op = ShardOp::Resolve { id, commit: true, ctx: self.ctx() };
                        out.push(KvStep::Log { shard, op });
                    }
                    for &shard in &shards {
                        out.push(KvStep::Log { shard, op: ShardOp::Settle { id, ctx: self.ctx() } });
                    }
                }
                Op::Snapshot => {
                    self.next_epoch += 1;
                    for shard in 0..self.shape.shards {
                        out.push(KvStep::Log { shard, op: ShardOp::Marker { epoch: self.next_epoch } });
                    }
                }
                ref other => unreachable!("{other:?} has no lower rung"),
            }
        }
        out
    }

    fn handles(&mut self, n: usize) {
        while self.handles.len() > n {
            for mut h in self.handles.pop().expect("len > n") {
                h.retire();
            }
        }
        while self.handles.len() < n {
            self.handles.push(self.logs.iter().map(WfUniversal::register).collect());
        }
    }

    fn step(&mut self, hset: usize, s: &KvStep) {
        match s {
            KvStep::Read { shard, key } => {
                black_box(self.handles[hset][*shard].read(|st| st.peek(key).is_ok()));
            }
            KvStep::Log { shard, op } => {
                black_box(self.handles[hset][*shard].invoke_ref(op));
            }
        }
    }

    fn register_retire(&self) {
        self.logs[0].register().retire();
    }

    fn register_retire_fresh(&self, n: usize) {
        let fresh = self.new_log(0);
        (0..n).for_each(|_| fresh.register().retire());
    }

    fn checkpoint_every(&self) -> usize {
        self.shape.checkpoint_every
    }

    fn logs(&self) -> usize {
        self.shape.shards
    }
}
