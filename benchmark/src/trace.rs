//! The traced run: spans around calls into each layer, from outside.
//!
//! The workload's own op stream (client 0's, continued) is replayed in
//! batches of 4 096 through a *ladder* of public entry points, one rung
//! per module: `router::route` alone → `ShardState::apply`/`peek` on a
//! local replica → `WfHandle::invoke_ref`/`read` of the same `ShardOp`
//! on a bare `WfUniversal<ShardState>` → the full `StoreHandle` call.
//! Each rung of each batch is one span; a timer pair costs tens of ns —
//! the order of one `route()` — so per-call spans would measure the
//! clock (`bench.timer_ns` says how much). Within a batch the ops are
//! grouped by kind, one span per kind per rung, so every op kind gets a
//! cost of its own. Kinds the mix lacks (or has too few of) are topped
//! up with probe batches through the same rungs.
//!
//! Rungs of one batch share `batch_id`; the parent of every rung is
//! that batch's outermost (`store.*` / `universal.*`) span of the same
//! kind: the rung replays the part of its parent's work that its layer
//! does. A layer's self time is its rung minus the rung below.

use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

use crate::report::Metrics;
use crate::stats::median;
use crate::sut::{Client, Direct, DirectCounter, DirectKv, System};
use crate::workload::{Kind, Op, OpGen, Sut, Workload, KINDS};

/// Ops per ladder batch.
pub const TRACE_BATCH: usize = 4096;

#[derive(Clone, Debug)]
pub struct Span {
    pub layer: &'static str,
    pub batch_id: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls into the layer that the span covers.
    pub ops: u32,
}

/// Spans are kept in memory and written out when the run ends.
pub struct Tracer {
    workload: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    next_batch: u32,
    /// `decides` spent inside `store.multi_put2` spans, and their ops.
    multi_decides: (u64, u64),
}

impl Tracer {
    #[must_use]
    pub fn new(workload: &'static str, epoch: Instant) -> Self {
        Tracer { workload, epoch, spans: Vec::new(), next_batch: 0, multi_decides: (0, 0) }
    }

    fn batch(&mut self) -> u32 {
        self.next_batch += 1;
        self.next_batch - 1
    }

    /// Time `f` as one span; returns the span's id.
    fn span(&mut self, layer: &'static str, batch_id: u32, parent: Option<u32>, ops: usize, f: impl FnOnce()) -> u32 {
        let start = Instant::now();
        f();
        let end = Instant::now();
        let ns = |t: Instant| (t - self.epoch).as_nanos() as u64;
        self.spans.push(Span { layer, batch_id, parent, start_ns: ns(start), end_ns: ns(end), ops: ops as u32 });
        self.spans.len() as u32 - 1
    }

    fn of<'a>(&'a self, layer: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.layer == layer && s.ops > 0)
    }

    /// Median over the layer's spans of ns per call.
    #[must_use]
    pub fn per_op_ns(&self, layer: &str) -> Option<f64> {
        let v: Vec<f64> = self.of(layer).map(|s| (s.end_ns - s.start_ns) as f64 / f64::from(s.ops)).collect();
        (!v.is_empty()).then(|| median(&v))
    }

    /// `multi_put` decides per op, from the handle counters around the
    /// `store.multi_put2` spans.
    #[must_use]
    pub fn decides_per_multi(&self) -> Option<f64> {
        let (decides, ops) = self.multi_decides;
        (ops > 0).then(|| decides as f64 / ops as f64)
    }

    /// Total `(ns, calls)` of the layer's spans.
    #[must_use]
    pub fn total(&self, layer: &str) -> (u64, u64) {
        self.of(layer).fold((0, 0), |(ns, ops), s| (ns + s.end_ns - s.start_ns, ops + u64::from(s.ops)))
    }

    /// One JSON object per span, one per line.
    ///
    /// # Errors
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"layer\":\"{}\",\"workload\":\"{}\",\"batch_id\":{},\"span_id\":{id},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"ops\":{}}}",
                s.layer, self.workload, s.batch_id, s.start_ns, s.end_ns, s.ops
            )?;
        }
        out.flush()
    }
}

/// Cost of reading the clock once, in ns: read it beside every `*_ns`.
#[must_use]
pub fn timer_ns() -> f64 {
    const N: u32 = 1_000_000;
    let t = Instant::now();
    for _ in 0..N {
        black_box(Instant::now());
    }
    t.elapsed().as_nanos() as f64 / f64::from(N)
}

fn kinds_of(w: &Workload) -> &'static [Kind] {
    match w.sut {
        Sut::Counter { .. } => &[Kind::Add, Kind::CtrRead],
        Sut::Kv(_) => {
            &[Kind::Get, Kind::Put, Kind::Cas, Kind::FetchUpdate, Kind::MultiPut2, Kind::MultiGet2, Kind::Snapshot]
        }
    }
}

/// Fewest calls of a kind the ladder wants, and the probe batch that
/// tops it up.
fn floor_of(kind: Kind) -> (u64, usize) {
    match kind {
        Kind::Snapshot => (3, 3),
        Kind::MultiPut2 => (2048, 2048),
        _ => (TRACE_BATCH as u64, TRACE_BATCH),
    }
}

/// The rungs below the outermost call.
pub trait LowerRungs {
    /// Span names of the lower rungs for `kind`, outside in; empty if
    /// the kind is measured at the outermost rung only.
    fn rungs(&self, kind: Kind) -> &'static [&'static str];
    /// Run rung `r` (an index into [`Self::rungs`]) of `kind` for one
    /// batch, as one span under `parent`.
    fn rung(&mut self, r: usize, t: &mut Tracer, batch_id: u32, parent: u32, kind: Kind, ops: &[Op]);
    /// One state image per shard, three times over.
    fn image_probes(&self, _t: &mut Tracer) {}
}

/// The counter has nothing below `WfHandle::invoke`/`read`: `apply` is
/// free, and there is no router, spec or front-end.
impl LowerRungs for DirectCounter {
    fn rungs(&self, _: Kind) -> &'static [&'static str] {
        &[]
    }

    fn rung(&mut self, _: usize, _: &mut Tracer, _: u32, _: u32, _: Kind, _: &[Op]) {}
}

impl LowerRungs for DirectKv {
    fn rungs(&self, kind: Kind) -> &'static [&'static str] {
        match kind {
            Kind::Get => &["router.route", "spec.peek", "universal.read"],
            Kind::Put => &["router.route", "spec.apply_put", "universal.invoke_shardop"],
            Kind::MultiPut2 => &["router.route", "spec.apply_multi", "universal.invoke_multi"],
            Kind::Snapshot => &["spec.marker", "universal.invoke_marker"],
            Kind::Cas | Kind::FetchUpdate | Kind::MultiGet2 => &["router.route"],
            Kind::Add | Kind::CtrRead => &[],
        }
    }

    fn rung(&mut self, r: usize, t: &mut Tracer, batch_id: u32, parent: u32, kind: Kind, ops: &[Op]) {
        let layer = self.rungs(kind)[r];
        if layer == "router.route" {
            // One call per key the front-end routes.
            let calls = if matches!(kind, Kind::MultiPut2 | Kind::MultiGet2) { 2 * ops.len() } else { ops.len() };
            t.span(layer, batch_id, Some(parent), calls, || self.route_all(ops));
            return;
        }
        let steps = self.lower(ops);
        if layer.starts_with("spec.") {
            t.span(layer, batch_id, Some(parent), ops.len(), || steps.iter().for_each(|s| self.apply(s)));
        } else {
            t.span(layer, batch_id, Some(parent), ops.len(), || steps.iter().for_each(|s| self.step(0, s)));
        }
    }

    fn image_probes(&self, t: &mut Tracer) {
        for _ in 0..3 {
            for s in 0..self.logs() {
                let b = t.batch();
                t.span("spec.clone", b, None, 1, || self.clone_image(s));
            }
        }
    }
}

/// A ladder batch: the next [`TRACE_BATCH`] ops of the stream, or a
/// probe of `n` ops of one kind.
#[derive(Clone, Copy)]
enum BatchSpec {
    Stream,
    Probe(Kind, usize),
}

fn regenerate(spec: BatchSpec, gen: &mut OpGen, buf: &mut Vec<Op>) {
    match spec {
        BatchSpec::Stream => gen.fill(buf, TRACE_BATCH),
        BatchSpec::Probe(kind, n) => {
            buf.clear();
            buf.extend((0..n).map(|_| gen.op_of(kind)));
        }
    }
}

/// Replay `batches` batches of the stream through the ladder, topped
/// up with probe batches for every kind of the system that comes out
/// short.
///
/// **One rung at a time**, each over all batches (the generator is
/// deterministic, so every pass regenerates the same ops): a rung then
/// runs with the caches it would have in a real run. Interleaving the
/// rungs batch by batch makes each evict the other's replica — three
/// copies of the state — and read 20 % slow.
pub fn ladder<C: Client, L: LowerRungs>(
    t: &mut Tracer,
    w: &Workload,
    client: &mut C,
    gen: &mut OpGen,
    lower: &mut L,
    batches: u64,
) {
    let mut buf = Vec::with_capacity(TRACE_BATCH);
    let by_kind = |buf: &[Op], kind: Kind| -> Vec<Op> { buf.iter().copied().filter(|o| o.kind() == kind).collect() };

    // Pass 0, nothing executed: count kinds to plan the top-ups.
    let mut plan = vec![BatchSpec::Stream; batches as usize];
    let mut seen = [0u64; KINDS.len()];
    let start = gen.clone();
    let mut dry = start.clone();
    for _ in 0..batches {
        dry.fill(&mut buf, TRACE_BATCH);
        buf.iter().for_each(|o| seen[o.kind() as usize] += 1);
    }
    for &kind in kinds_of(w) {
        let (floor, n) = floor_of(kind);
        let short = floor.saturating_sub(seen[kind as usize]);
        plan.extend((0..short.div_ceil(n as u64)).map(|_| BatchSpec::Probe(kind, n)));
    }

    // Pass 1: the outermost rung. `outer[batch][kind]` is its span.
    let first_batch = t.next_batch;
    let mut outer = Vec::with_capacity(plan.len());
    for &spec in &plan {
        regenerate(spec, gen, &mut buf);
        let batch_id = t.batch();
        let mut ids = [None; KINDS.len()];
        for kind in KINDS {
            let mut ops = by_kind(&buf, kind);
            if ops.is_empty() {
                continue;
            }
            client.aim(&mut ops);
            let before = client.counters();
            ids[kind as usize] = Some(t.span(kind.outer_layer(), batch_id, None, ops.len(), || {
                ops.iter().for_each(|op| {
                    black_box(client.exec(op));
                });
            }));
            if kind == Kind::MultiPut2 {
                t.multi_decides.0 += client.counters().since(before).decides;
                t.multi_decides.1 += ops.len() as u64;
            }
        }
        outer.push(ids);
    }

    // Passes 2…: one per lower rung, outside in.
    for r in 0..KINDS.iter().map(|&k| lower.rungs(k).len()).max().unwrap_or(0) {
        let mut pass = start.clone();
        for (b, &spec) in plan.iter().enumerate() {
            regenerate(spec, &mut pass, &mut buf);
            for kind in KINDS {
                if let (Some(parent), true) = (outer[b][kind as usize], r < lower.rungs(kind).len()) {
                    lower.rung(r, t, first_batch + b as u32, parent, kind, &by_kind(&buf, kind));
                }
            }
        }
    }
}

/// Probes of the bare log that no op stream reaches: replay
/// amplification with 2 and 4 handles on one thread, a read that must
/// catch up, the worst invoke of a checkpoint window, registration.
pub fn log_probes<D: Direct>(t: &mut Tracer, d: &mut D, writes: &[Op], reads: &[Op], m: &mut Metrics) {
    const REPS: usize = 5;
    let writes = d.lower(writes);
    let reads = d.lower(reads);
    let n = writes.len().min(reads.len());
    let (writes, reads) = (&writes[..n], &reads[..n]);

    // 1, 2, 4 handles round-robin on one thread: zero contention, so
    // what grows is replay (every handle applies every decided op).
    for (handles, layer) in [(1, "universal.invoke_h1"), (2, "universal.invoke_h2"), (4, "universal.invoke_h4")] {
        d.handles(handles);
        for _ in 0..REPS {
            let b = t.batch();
            t.span(layer, b, None, n, || writes.iter().enumerate().for_each(|(i, s)| d.step(i % handles, s)));
        }
    }

    // A read right after one foreign write: (write, read) pairs minus
    // the writes alone, the reader registered both times.
    d.handles(2);
    let mut catchup = Vec::new();
    for _ in 0..REPS {
        let b = t.batch();
        let pairs = t.span("universal.write_then_read", b, None, n, || {
            for (w, r) in writes.iter().zip(reads) {
                d.step(0, w);
                d.step(1, r);
            }
        });
        let alone = t.span("universal.write_reader_idle", b, None, n, || writes.iter().for_each(|s| d.step(0, s)));
        d.step(1, &reads[0]);
        let dur = |id: u32| (t.spans[id as usize].end_ns - t.spans[id as usize].start_ns) as f64;
        catchup.push((dur(pairs) - dur(alone)) / n as f64);
    }
    m.push("universal.read_catchup_ns", median(&catchup), "ns");

    // The worst invoke of each checkpoint window (one cadence on every
    // log), timed per op: the clock is noise against an image.
    d.handles(1);
    let window = d.checkpoint_every() * d.logs();
    let windows = (200_000 / window).clamp(3, 200);
    let mut worst = Vec::new();
    let mut at = 0;
    for _ in 0..windows {
        let b = t.batch();
        let mut max = 0;
        t.span("universal.checkpoint_window", b, None, window, || {
            for _ in 0..window {
                let one = Instant::now();
                d.step(0, &writes[at % n]);
                max = max.max(one.elapsed().as_nanos());
                at += 1;
            }
        });
        worst.push(max as f64 / 1e3);
    }
    m.push("universal.checkpoint_us", median(&worst), "us");

    let b = t.batch();
    t.span("universal.register_retire", b, None, TRACE_BATCH, || d.register_retire_fresh(TRACE_BATCH));
    for _ in 0..REPS {
        let b = t.batch();
        t.span("universal.register", b, None, 1, || d.register_retire());
    }
}

/// A late client joining at the workload's state: register on every
/// shard, then retire.
pub fn handle_probes<S: System>(t: &mut Tracer, sys: &S) {
    for _ in 0..5 {
        let b = t.batch();
        t.span("store.handle", b, None, 1, || sys.client(0).retire());
    }
}
