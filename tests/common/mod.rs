//! Shared test plumbing: the universal object's configurations as a
//! table, so every fault-injection and helping-bound scenario runs with
//! and without checkpointed truncation live — one implementation
//! (`waitfree::sync::universal`), differing by a `UniversalConfig`.
#![allow(dead_code)] // each test binary uses a different subset

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use waitfree::model::{ObjectSpec, Pid};
use waitfree::objects::counter::{Counter, CounterOp, CounterResp};
use waitfree::sched::atomic::diag::{AtomicUsize, Ordering};
use waitfree::sync::universal::{UniversalConfig, WfHandle, WfUniversal};

/// A fresh object over `initial` with `n` handles registered in order:
/// sequential registration claims slots `0..n`, so `tid == index`.
pub fn register_n<S: ObjectSpec>(
    initial: S,
    n: usize,
    cfg: UniversalConfig,
) -> (WfUniversal<S>, Vec<WfHandle<S>>) {
    let obj = WfUniversal::with_config(initial, cfg);
    let handles = (0..n).map(|_| obj.register()).collect();
    (obj, handles)
}

/// One configuration under test: a leg of every scenario. All of them
/// place the same `universal::*` failpoint sites at the same algorithmic
/// steps, so a single adversary plan stresses any of them.
#[derive(Clone, Copy, Debug)]
pub struct Leg {
    /// Short label for assertion messages.
    pub name: &'static str,
    pub cfg: UniversalConfig,
}

/// Aggressive cadence so even short storm scenarios cross several
/// checkpoints and (usually) at least one segment reclaim.
pub const CHECKPOINT_EVERY: usize = 8;

impl Leg {
    /// The default configuration: one winning decide threads every
    /// currently-pending announced op.
    pub fn batched() -> Self {
        Leg { name: "batched", cfg: UniversalConfig::default() }
    }

    /// Batch combining with checkpointed log truncation: segments
    /// behind every handle's replay frontier are reclaimed mid-run — no
    /// fault-tolerance property may depend on the truncated history
    /// staying allocated.
    pub fn checkpointed() -> Self {
        Leg {
            name: "checkpointed",
            cfg: UniversalConfig {
                checkpoint_every: Some(CHECKPOINT_EVERY),
                ..UniversalConfig::default()
            },
        }
    }

    /// This leg with an explicit log-position cap, so
    /// `UniversalError::LogFull` is observable.
    pub fn capped(self, capacity: usize) -> Self {
        Leg { cfg: UniversalConfig { cap: Some(capacity), ..self.cfg }, ..self }
    }

    /// One counter handle per thread on a fresh object.
    pub fn counters(self, n: usize) -> Vec<WfHandle<Counter>> {
        register_n(Counter::new(0), n, self.cfg).1
    }
}

/// A [`Counter`] that counts every clone of itself, for tests that
/// price checkpoint images and bootstraps in state copies. All copies
/// share one tally, so `Arc::strong_count(&tally)` is also the number of
/// copies alive (the object's initial state, every replica, every
/// image). The tally is a `diag` atomic: counting must not add schedule
/// points to the runs it observes. Equality and hashing see the counter
/// alone.
#[derive(Debug)]
pub struct CloneCounted {
    pub counter: Counter,
    pub tally: Arc<AtomicUsize>,
}

impl CloneCounted {
    pub fn new(initial: i64) -> Self {
        CloneCounted { counter: Counter::new(initial), tally: Arc::new(AtomicUsize::new(0)) }
    }
}

impl Clone for CloneCounted {
    fn clone(&self) -> Self {
        self.tally.fetch_add(1, Ordering::SeqCst);
        CloneCounted { counter: self.counter.clone(), tally: Arc::clone(&self.tally) }
    }
}

impl PartialEq for CloneCounted {
    fn eq(&self, other: &Self) -> bool {
        self.counter == other.counter
    }
}

impl Eq for CloneCounted {}

impl Hash for CloneCounted {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.counter.hash(h);
    }
}

impl ObjectSpec for CloneCounted {
    type Op = CounterOp;
    type Resp = CounterResp;

    fn apply(&mut self, pid: Pid, op: &CounterOp) -> CounterResp {
        self.counter.apply(pid, op)
    }
}

// ---------------------------------------------------------------------
// Ordering-contract plumbing: load the workspace sources and extract
// the contract the same way `wf-lint` does, so tests can pin the pair
// graph statically and cross-validate it dynamically.
// ---------------------------------------------------------------------

use std::fs;
use std::path::Path;

/// Every `.rs` file in the workspace as `(workspace-relative path,
/// source)`, `/`-separated, sorted — the same corpus `wf-lint` scans.
/// The root test binaries run with the workspace root as
/// `CARGO_MANIFEST_DIR`, so no upward search is needed.
pub fn workspace_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    collect_rs(root, root, &mut out);
    out.sort();
    out
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(root, &path, out);
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .expect("walked path is under root")
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            let src = fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {rel}: {e}"));
            out.push((rel, src));
        }
    }
}

/// [`workspace_sources`] with one annotation mis-labeled: the acquire
/// `hint` load in `thread_entry` (`let mut k = self.shared.hint.load(…)`)
/// declares `[pairs: universal.hint_stale]`, a label no release site
/// carries, instead of `[pairs: universal.hint_pub]`. Line numbers and
/// code are unchanged, so the extracted contract is exactly the one a
/// build with that wrong annotation would ship. Panics unless exactly
/// one statement was rewritten.
pub fn mislabeled_hint_sources() -> Vec<(String, String)> {
    const FILE: &str = "crates/sync/src/universal/decide.rs";
    const STMT: &str = "let mut k = self.shared.hint.load(";
    let mut files = workspace_sources();
    let (_, src) = files
        .iter_mut()
        .find(|(rel, _)| rel == FILE)
        .unwrap_or_else(|| panic!("{FILE} not in the workspace walk"));
    let mut lines: Vec<String> = src.split_inclusive('\n').map(String::from).collect();
    let stmts: Vec<usize> = (0..lines.len()).filter(|&i| lines[i].contains(STMT)).collect();
    assert_eq!(stmts.len(), 1, "expected one `{STMT}…` statement in {FILE}, found {stmts:?}");
    let ann = (0..stmts[0])
        .rev()
        .find(|&i| lines[i].contains("// ordering:"))
        .unwrap_or_else(|| panic!("{FILE}:{}: hint load has no annotation", stmts[0] + 1));
    let rewritten = lines[ann].replace("[pairs: universal.hint_pub]", "[pairs: universal.hint_stale]");
    assert_ne!(rewritten, lines[ann], "{FILE}:{}: annotation names no hint_pub pair", ann + 1);
    lines[ann] = rewritten;
    *src = lines.concat();
    files
}
