//! The five workloads: what each one builds, its op mix, its frozen
//! op counts, and the seeded generator that turns `--seed` into the op
//! stream a client executes. Nothing here touches the measured crates.

use std::sync::Arc;

use crate::rng::{SplitMix64, Zipf};

/// `--seconds` at which the frozen op counts below apply unscaled; the
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 12;

/// Ops generated, then executed, at a time. Generation is outside
/// every timed region; a batch is one timed region in the phases that
/// do not time each op (a timer pair per 256 ops is ≈ 0.2 ns/op).
pub const BATCH: usize = 256;

/// A phase is this many equal chunks of batches (see `stats`).
pub const CHUNKS: usize = 64;

/// Two client threads, fixed: the host has two cores, and a per-client
/// number means nothing if the client count floats with the machine.
pub const CLIENTS: usize = 2;

/// Value tag of the ladder's own writes (clients are 1 and 2, the
/// preload 0).
pub const TRACER: u64 = 3;

/// One generated operation. `Cas` and `FetchUpdate` are in no mix; the
/// traced run probes them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `invoke(FetchAndAdd(1 << 32·client))`.
    Add,
    /// `read(value)` on the counter.
    CtrRead,
    Get(u64),
    Put(u64, i64),
    /// `cas(k, Some(expect), Some(new))`.
    Cas(u64, i64, i64),
    /// `fetch_update(k, Bump(one op index))`.
    FetchUpdate(u64),
    /// `multi_put([(k, +x), (k + keys/2, −x)])`.
    MultiPut2(u64, i64),
    /// `multi_get([k, k + keys/2])`.
    MultiGet2(u64),
    Snapshot,
}

/// Op kinds, the ladder's unit: one span per kind per batch per rung.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Add,
    CtrRead,
    Get,
    Put,
    Cas,
    FetchUpdate,
    MultiPut2,
    MultiGet2,
    Snapshot,
}

pub const KINDS: [Kind; 9] = [
    Kind::Add,
    Kind::CtrRead,
    Kind::Get,
    Kind::Put,
    Kind::Cas,
    Kind::FetchUpdate,
    Kind::MultiPut2,
    Kind::MultiGet2,
    Kind::Snapshot,
];

/// Latency classes of the end-to-end metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Read = 0,
    Write = 1,
    Multi = 2,
    Snap = 3,
}

pub const CLASSES: [Class; 4] = [Class::Read, Class::Write, Class::Multi, Class::Snap];

impl Class {
    #[must_use]
    pub fn name(self) -> &'static str {
        ["read", "write", "multi", "snap"][self as usize]
    }
}

impl Op {
    #[must_use]
    pub fn kind(&self) -> Kind {
        match self {
            Op::Add => Kind::Add,
            Op::CtrRead => Kind::CtrRead,
            Op::Get(_) => Kind::Get,
            Op::Put(..) => Kind::Put,
            Op::Cas(..) => Kind::Cas,
            Op::FetchUpdate(..) => Kind::FetchUpdate,
            Op::MultiPut2(..) => Kind::MultiPut2,
            Op::MultiGet2(_) => Kind::MultiGet2,
            Op::Snapshot => Kind::Snapshot,
        }
    }
}

impl Kind {
    #[must_use]
    pub fn class(self) -> Class {
        match self {
            Kind::CtrRead | Kind::Get | Kind::MultiGet2 => Class::Read,
            Kind::Add | Kind::Put | Kind::Cas | Kind::FetchUpdate => Class::Write,
            Kind::MultiPut2 => Class::Multi,
            Kind::Snapshot => Class::Snap,
        }
    }

    /// The `store.*` / `universal.*` span name of the outermost rung.
    #[must_use]
    pub fn outer_layer(self) -> &'static str {
        match self {
            Kind::Add => "universal.invoke",
            Kind::CtrRead => "universal.read",
            Kind::Get => "store.get",
            Kind::Put => "store.put",
            Kind::Cas => "store.cas",
            Kind::FetchUpdate => "store.fetch_update",
            Kind::MultiPut2 => "store.multi_put2",
            Kind::MultiGet2 => "store.multi_get2",
            Kind::Snapshot => "store.snapshot",
        }
    }
}

// Values encode key · client · op index, so every value read can be
// checked against the key it was read under for free:
// bits 0..20 key, 20..24 writer tag, 24..63 op index.
const KEY_BITS: u32 = 20;
const TAG_BITS: u32 = 4;

/// Largest key space the encoding holds.
pub const MAX_KEYS: u64 = 1 << KEY_BITS;

#[must_use]
pub fn encode(key: u64, tag: u64, index: u64) -> i64 {
    debug_assert!(key < MAX_KEYS && tag < (1 << TAG_BITS));
    ((index << (KEY_BITS + TAG_BITS)) | (tag << KEY_BITS) | key) as i64
}

#[must_use]
pub fn key_of(v: i64) -> u64 {
    v as u64 & (MAX_KEYS - 1)
}

/// The value every key holds after the preload.
#[must_use]
pub fn initial_value(key: u64) -> i64 {
    encode(key, 0, 0)
}

/// What a workload's store looks like.
#[derive(Clone, Copy, Debug)]
pub struct KvShape {
    pub shards: usize,
    pub keys: u64,
    pub checkpoint_every: usize,
    /// Keys form fixed pairs `(k, k + keys/2)` holding `(+x, −x)`:
    /// every consistent view sums to zero.
    pub paired: bool,
}

#[derive(Clone, Copy, Debug)]
pub enum Sut {
    /// One `WfUniversal<Counter>`, checkpointed at this cadence.
    Counter {
        checkpoint_every: usize,
    },
    Kv(KvShape),
}

/// Batches per chunk per client, at [`RUN_SECONDS`], for the four
/// phases in their fixed order. A phase is `CHUNKS × this × BATCH` ops
/// per client — frozen, because several paths are non-stationary
/// (tombstones, log retention), so two commits must do identical work.
#[derive(Clone, Copy, Debug)]
pub struct Counts {
    pub warm: u32,
    pub duo: u32,
    pub lat: u32,
    pub solo: u32,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub sut: Sut,
    /// Per-cent shares; sums to 100.
    pub mix: &'static [(Kind, u32)],
    pub zipf: bool,
    /// Every this-many-th op of a client is a `snapshot()` instead of
    /// its mix draw (0 = never).
    pub snap_every: u64,
    /// Set-ups per run (`setup_s` is their median), sized to ≈ 1 s but
    /// fixed, so every run allocates and frees the same.
    pub setups: usize,
    pub counts: Counts,
}

const fn kv(keys: u64, checkpoint_every: usize, paired: bool) -> Sut {
    Sut::Kv(KvShape { shards: 4, keys, checkpoint_every, paired })
}

/// The workloads, names final. Counts were sized at the seed commit on
/// the 2-vCPU reference host to warm ≈ 2 s, duo ≈ 4.5 s, latency ≈ 3 s,
/// solo ≈ 2.5 s.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "uni_counter",
        sut: Sut::Counter { checkpoint_every: 64 },
        mix: &[(Kind::Add, 80), (Kind::CtrRead, 20)],
        zipf: false,
        snap_every: 0,
        setups: 201,
        counts: Counts { warm: 185, duo: 420, lat: 256, solo: 1170 },
    },
    Workload {
        name: "kv_write",
        sut: kv(65_536, 4096, false),
        mix: &[(Kind::Put, 90), (Kind::Get, 10)],
        zipf: false,
        snap_every: 0,
        setups: 21,
        counts: Counts { warm: 58, duo: 120, lat: 75, solo: 235 },
    },
    Workload {
        name: "kv_read",
        sut: kv(65_536, 4096, false),
        mix: &[(Kind::Get, 99), (Kind::Put, 1)],
        zipf: true,
        snap_every: 0,
        setups: 21,
        counts: Counts { warm: 920, duo: 2070, lat: 1090, solo: 1240 },
    },
    Workload {
        name: "kv_txn",
        sut: kv(4096, 512, true),
        mix: &[(Kind::MultiPut2, 73), (Kind::MultiGet2, 25), (Kind::Snapshot, 2)],
        zipf: false,
        snap_every: 0,
        setups: 101,
        counts: Counts { warm: 4, duo: 5, lat: 2, solo: 4 },
    },
    Workload {
        name: "kv_big",
        sut: kv(1_048_576, 16_384, false),
        mix: &[(Kind::Get, 50), (Kind::Put, 50)],
        zipf: false,
        snap_every: 262_144,
        setups: 3,
        counts: Counts { warm: 44, duo: 97, lat: 65, solo: 115 },
    },
];

#[must_use]
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    #[must_use]
    pub fn keys(&self) -> u64 {
        match self.sut {
            Sut::Counter { .. } => 0,
            Sut::Kv(s) => s.keys,
        }
    }

    /// The share of `kind` in the executed stream, `snap_every`
    /// included.
    #[must_use]
    pub fn share(&self, kind: Kind) -> f64 {
        let by_index = if self.snap_every == 0 { 0.0 } else { 1.0 / self.snap_every as f64 };
        if kind == Kind::Snapshot && self.snap_every != 0 {
            return by_index;
        }
        let pct = self.mix.iter().find(|(k, _)| *k == kind).map_or(0, |&(_, p)| p);
        f64::from(pct) / 100.0 * (1.0 - by_index)
    }
}

/// One client's op stream: a pure function of `(workload, seed,
/// client)`, drawn from a `splitmix64` stream of its own.
#[derive(Clone, Debug)]
pub struct OpGen {
    w: &'static Workload,
    rng: SplitMix64,
    zipf: Option<Arc<Zipf>>,
    tag: u64,
    index: u64,
}

impl OpGen {
    /// `zipf` must be `Some` exactly when the workload is skewed; the
    /// table is built once and shared (it is 768 KiB).
    #[must_use]
    pub fn new(w: &'static Workload, seed: u64, client: usize, zipf: Option<Arc<Zipf>>) -> Self {
        assert_eq!(w.zipf, zipf.is_some());
        assert_eq!(w.mix.iter().map(|&(_, p)| p).sum::<u32>(), 100);
        OpGen { w, rng: SplitMix64::for_client(seed, client as u64), zipf, tag: client as u64 + 1, index: 0 }
    }

    /// The same stream under another writer tag (the ladder's).
    #[must_use]
    pub fn tagged(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    fn key(&mut self, space: u64) -> u64 {
        match &self.zipf {
            Some(z) => z.key(self.rng.next_u64()),
            None => self.rng.below(space),
        }
    }

    /// One op of kind `kind` at the stream's current index.
    pub fn op_of(&mut self, kind: Kind) -> Op {
        let keys = self.w.keys();
        self.index += 1;
        match kind {
            Kind::Add => Op::Add,
            Kind::CtrRead => Op::CtrRead,
            Kind::Snapshot => Op::Snapshot,
            Kind::Get => Op::Get(self.key(keys)),
            Kind::MultiGet2 => Op::MultiGet2(self.key(keys / 2)),
            Kind::Put | Kind::Cas | Kind::FetchUpdate | Kind::MultiPut2 => {
                let paired = kind == Kind::MultiPut2;
                let k = self.key(if paired { keys / 2 } else { keys });
                let v = encode(k, self.tag, self.index);
                match kind {
                    Kind::Put => Op::Put(k, v),
                    // Expects the preload; the ladder re-aims it.
                    Kind::Cas => Op::Cas(k, initial_value(k), v),
                    Kind::FetchUpdate => Op::FetchUpdate(k),
                    _ => Op::MultiPut2(k, v),
                }
            }
        }
    }

    pub fn next_op(&mut self) -> Op {
        if self.w.snap_every != 0 && (self.index + 1).is_multiple_of(self.w.snap_every) {
            return self.op_of(Kind::Snapshot);
        }
        let mut draw = self.rng.below(100) as u32;
        let mut kind = self.w.mix[0].0;
        for &(k, pct) in self.w.mix {
            if draw < pct {
                kind = k;
                break;
            }
            draw -= pct;
        }
        self.op_of(kind)
    }

    /// Replace `buf` with the next `n` ops.
    pub fn fill(&mut self, buf: &mut Vec<Op>, n: usize) {
        buf.clear();
        buf.extend((0..n).map(|_| self.next_op()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(name: &str, seed: u64, client: usize, n: usize) -> Vec<Op> {
        let w = by_name(name).unwrap();
        let zipf = w.zipf.then(|| Arc::new(Zipf::new(w.keys(), 0.99)));
        let mut g = OpGen::new(w, seed, client, zipf);
        let mut buf = Vec::new();
        g.fill(&mut buf, n);
        buf
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in &WORKLOADS {
            assert_eq!(stream(w.name, 1, 0, 5000), stream(w.name, 1, 0, 5000), "{}", w.name);
            assert_ne!(stream(w.name, 1, 0, 5000), stream(w.name, 2, 0, 5000), "{}", w.name);
            assert_ne!(stream(w.name, 1, 0, 5000), stream(w.name, 1, 1, 5000), "{}", w.name);
        }
    }

    #[test]
    fn mixes_come_out_at_their_shares() {
        for w in &WORKLOADS {
            let ops = stream(w.name, 9, 0, 300_000);
            for &(kind, pct) in w.mix {
                let got = ops.iter().filter(|o| o.kind() == kind).count() as f64 / 300_000.0;
                assert!((got - w.share(kind)).abs() < 0.005, "{} {kind:?}: {got} vs {pct} %", w.name);
            }
            let total: f64 = KINDS.iter().map(|&k| w.share(k)).sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
        let big = stream("kv_big", 9, 0, 600_000);
        let snaps: Vec<usize> = big.iter().enumerate().filter(|(_, o)| **o == Op::Snapshot).map(|(i, _)| i).collect();
        assert_eq!(snaps, vec![262_143, 524_287]);
    }

    #[test]
    fn values_carry_their_key_and_are_unique() {
        assert_eq!(key_of(encode(1_048_575, 2, 77)), 1_048_575);
        assert!(encode(0, 1, 1) > 0 && encode(MAX_KEYS - 1, 3, 1 << 38) > 0);
        let mut seen = std::collections::BTreeSet::new();
        for c in 0..CLIENTS {
            for op in stream("kv_write", 5, c, 20_000) {
                if let Op::Put(k, v) = op {
                    assert_eq!(key_of(v), k);
                    assert!(k < 65_536);
                    assert!(seen.insert(v), "value {v} written twice");
                }
            }
        }
        for op in stream("kv_txn", 5, 0, 20_000) {
            match op {
                Op::MultiPut2(k, x) => assert!(k < 2048 && key_of(x) == k && x > 0),
                Op::MultiGet2(k) => assert!(k < 2048),
                Op::Snapshot => {}
                o => panic!("{o:?} is not in kv_txn's mix"),
            }
        }
    }
}
