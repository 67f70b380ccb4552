//! Shared test plumbing: the universal object's configurations as a
//! table, so every fault-injection and helping-bound scenario runs with
//! and without checkpointed truncation live — one implementation
//! (`waitfree::sync::universal`), differing by a `UniversalConfig`.
#![allow(dead_code)] // each test binary uses a different subset

use waitfree::model::ObjectSpec;
use waitfree::objects::counter::Counter;
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
