//! Labeled failpoints: named sites on hot paths where a test can inject
//! a fault — a yield, a bounded spin-delay, an indefinite stall, or a
//! crash (halt-failure, the paper's only fault class).
//!
//! Sites are compiled in by the [`failpoint!`](crate::failpoint) macro.
//! Without the `failpoints` cargo feature the macro expands to a call to
//! an inlined empty function: zero instructions on release hot paths.
//! With the feature on but no site configured, the cost is one relaxed
//! atomic load.
//!
//! All decisions are deterministic given [`set_seed`] and the order in
//! which threads reach the sites: probabilistic rules draw from a
//! per-config [`DetRng`](crate::rng::DetRng) seeded from the global seed
//! and the site name, and count-based rules ([`Fire::Nth`],
//! [`Fire::EveryNth`]) count only hits that pass the thread filter.
//!
//! The registry is global (failpoints are process-wide switchboards, as
//! in `libfail`/`fail-rs`); tests that configure sites must serialize on
//! [`exclusive`].
//!
//! # Known sites
//!
//! Sites are declared at their hot paths (the registry accepts any
//! name); the universal-object family (`waitfree_sync::universal`), one
//! adversary plan for every configuration:
//!
//! * `universal::register` — on entry to `register`, before any
//!   registry slot is claimed (a crash here has published nothing);
//! * `universal::retire` — after `retire` marks the slot departed,
//!   before reclamation (a crash here leaves a retired, quiescent slot
//!   for the next registrant to recycle);
//! * `universal::announce` / `universal::announced` — around the
//!   announce-slot publication;
//! * `universal::collect` — before the scan that gathers all pending
//!   announced ops into one batch candidate (a crash here proves
//!   collected entries stay helpable, since the scan writes nothing
//!   shared);
//! * `universal::cas` / `universal::decided` — around each consensus
//!   decide;
//! * `universal::replay` — per applied operation during replay;
//! * `universal::checkpoint` — before a checkpoint image is built and
//!   proposed (with a checkpoint cadence only; a crash here has
//!   published nothing — the cadence simply re-fires on a later op, by
//!   any handle);
//! * `universal::reclaim` — inside the segment reclaimer, after the
//!   try-lock is won but before any segment is detached (a crash here
//!   unwinds through the lock's RAII guard, so reclamation stays
//!   available — the next invoke retries it).
//!
//! The sharded-store front-end (`waitfree-store`) layers three sites
//! over the universal-object family:
//!
//! * `store::route` — before every single-key op routes to its shard
//!   (a crash here has decided nothing anywhere);
//! * `store::multi` — before *each per-shard step* of a multi-key op,
//!   prepares and resolves alike, so `Fire::Nth` lands a crash between
//!   any two involved shards (mid-prepare or mid-resolve; the crashed
//!   multi's locks are released by the next conflicting op, which
//!   helps it to resolution from the replicated descriptor);
//! * `store::snapshot` — before each per-shard marker decide (a crash
//!   mid-snapshot leaves at most unclaimed early captures; the store
//!   keeps serving and later snapshots are unaffected).
//!
//! `consensus::*`, `faa_queue::*` and `lockfree::*` follow the same
//! convention at their respective hot paths.

#[cfg(feature = "failpoints")]
use std::collections::HashMap;
#[cfg(feature = "failpoints")]
use std::sync::{Mutex, OnceLock};

// Registry state is instrumentation-plane: `diag` atomics are raw std
// atomics in both scheduler modes, so arming a site never perturbs the
// schedules being explored.
#[cfg(feature = "failpoints")]
use waitfree_sched::atomic::diag::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

#[cfg(feature = "failpoints")]
use crate::rng::DetRng;

/// What happens when a configured site fires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Yield via the thread facade (`waitfree_sched::thread::yield_now`):
    /// a real schedule point inside a scheduled run, an OS-level hint
    /// outside one.
    Yield,
    /// Busy-spin for this many `spin_loop` hints — models a stalled cache
    /// line or a preempted time slice without giving up determinism.
    SpinDelay(u32),
    /// Park until [`release_stalls`] (or [`clear`]) is called — models an
    /// arbitrarily long stall. The thread is *not* failed: it resumes and
    /// must still complete (wait-freedom is step-bounded, not time-bounded).
    Stall,
    /// Halt the thread at this point, mid-operation, by unwinding with a
    /// [`CrashSignal`] payload. The paper's halt-failure: the process
    /// simply stops taking steps; it never misbehaves.
    Crash,
}

/// When a configured site fires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fire {
    /// Every hit that passes the thread filter.
    Always,
    /// Exactly the `k`-th passing hit (1-based), once.
    Nth(u64),
    /// Every `k`-th passing hit.
    EveryNth(u64),
    /// Each passing hit independently with probability `p`/1000, drawn
    /// from the site's deterministic RNG.
    PerMille(u32),
}

/// A full site configuration.
#[derive(Clone, Debug)]
pub struct FailpointConfig {
    /// The injected fault.
    pub action: FaultAction,
    /// The firing rule.
    pub fire: Fire,
    /// Only fire for this harness thread id (set via [`set_tid`]).
    /// `None` matches every thread.
    pub tid: Option<usize>,
    /// Maximum number of times this config may fire. `None` is unlimited.
    pub budget: Option<u64>,
}

impl FailpointConfig {
    /// A config that always fires `action` for every thread, unbounded.
    #[must_use]
    pub fn always(action: FaultAction) -> Self {
        FailpointConfig { action, fire: Fire::Always, tid: None, budget: None }
    }

    /// A one-shot config: fire `action` on the `k`-th passing hit of
    /// thread `tid`, then never again.
    #[must_use]
    pub fn once_for(action: FaultAction, tid: usize, k: u64) -> Self {
        FailpointConfig { action, fire: Fire::Nth(k), tid: Some(tid), budget: Some(1) }
    }
}

/// The panic payload of a [`FaultAction::Crash`]. Harnesses downcast the
/// `catch_unwind` payload to this type to distinguish an injected
/// halt-failure from a genuine assertion failure.
///
/// The type itself lives in `waitfree-sched` (the scheduler must
/// recognise injected crashes without depending on this crate); this
/// re-export keeps `waitfree_faults::failpoints::CrashSignal` the
/// canonical path for harness code.
pub use waitfree_sched::crash::CrashSignal;

thread_local! {
    static CURRENT_TID: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Tag the current OS thread with a harness thread id, used by per-thread
/// site filters and recorded in [`CrashSignal`].
pub fn set_tid(tid: usize) {
    CURRENT_TID.with(|c| c.set(Some(tid)));
}

/// The current thread's harness id, if tagged.
#[must_use]
pub fn current_tid() -> Option<usize> {
    CURRENT_TID.with(std::cell::Cell::get)
}

/// Serialize scenarios that configure the global registry: hold the
/// returned guard for the whole scenario. (Injected crashes unwind inside
/// *worker* threads, never through this guard, so it cannot poison.)
/// Available in both feature modes so callers compile unchanged; without
/// `failpoints` there is nothing to serialize but the guard still works.
pub fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(feature = "failpoints")]
#[derive(Debug)]
struct ArmedConfig {
    cfg: FailpointConfig,
    /// Hits that passed this config's thread filter.
    matched: u64,
    fires: u64,
    rng: DetRng,
}

#[cfg(feature = "failpoints")]
#[derive(Debug, Default)]
struct SiteEntry {
    /// Total hits at this site (any thread) while configured.
    hits: u64,
    configs: Vec<ArmedConfig>,
}

#[cfg(feature = "failpoints")]
static ACTIVE_SITES: AtomicUsize = AtomicUsize::new(0);
#[cfg(feature = "failpoints")]
static STALLS_RELEASED: AtomicBool = AtomicBool::new(false);
#[cfg(feature = "failpoints")]
static STALLED_NOW: AtomicUsize = AtomicUsize::new(0);
#[cfg(feature = "failpoints")]
static SEED: AtomicU64 = AtomicU64::new(0xFA17);

#[cfg(feature = "failpoints")]
fn registry() -> &'static Mutex<HashMap<String, SiteEntry>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, SiteEntry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

#[cfg(feature = "failpoints")]
fn lock_registry() -> std::sync::MutexGuard<'static, HashMap<String, SiteEntry>> {
    registry().lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(feature = "failpoints")]
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01B3);
    }
    h
}

/// Set the global fault seed. Per-config RNG streams are derived from it
/// and the site name, so a whole adversarial scenario replays from one
/// number. Call before [`configure`].
#[cfg(feature = "failpoints")]
pub fn set_seed(seed: u64) {
    SEED.store(seed, Ordering::SeqCst);
}

/// Arm `site` with `cfg`. Multiple configs may be armed on one site (for
/// per-thread adversaries); on a hit they are evaluated in arming order
/// and the first that fires wins.
#[cfg(feature = "failpoints")]
pub fn configure(site: &str, cfg: FailpointConfig) {
    if cfg.action == FaultAction::Stall {
        STALLS_RELEASED.store(false, Ordering::SeqCst);
    }
    let rng = DetRng::new(SEED.load(Ordering::SeqCst) ^ fnv1a(site));
    let mut reg = lock_registry();
    let entry = reg.entry(site.to_string()).or_default();
    if entry.configs.is_empty() {
        ACTIVE_SITES.fetch_add(1, Ordering::SeqCst);
    }
    entry.configs.push(ArmedConfig { cfg, matched: 0, fires: 0, rng });
}

/// Disarm every config on `site` (hit statistics are dropped too).
#[cfg(feature = "failpoints")]
pub fn remove(site: &str) {
    let mut reg = lock_registry();
    if let Some(entry) = reg.remove(site) {
        if !entry.configs.is_empty() {
            ACTIVE_SITES.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Disarm every site and release all stalled threads. Always leave a
/// scenario through this (the [`harness`](crate::harness) does it for you).
#[cfg(feature = "failpoints")]
pub fn clear() {
    let mut reg = lock_registry();
    let armed = reg.values().filter(|e| !e.configs.is_empty()).count();
    reg.clear();
    ACTIVE_SITES.fetch_sub(armed, Ordering::SeqCst);
    drop(reg);
    STALLS_RELEASED.store(true, Ordering::SeqCst);
}

/// Release every thread currently parked in a [`FaultAction::Stall`], and
/// let future stall fires pass through immediately.
#[cfg(feature = "failpoints")]
pub fn release_stalls() {
    STALLS_RELEASED.store(true, Ordering::SeqCst);
}

/// Number of threads currently parked in a stall.
#[cfg(feature = "failpoints")]
#[must_use]
pub fn stalled_count() -> usize {
    STALLED_NOW.load(Ordering::SeqCst)
}

/// Total hits recorded at `site` while it was configured.
#[cfg(feature = "failpoints")]
#[must_use]
pub fn hits(site: &str) -> u64 {
    lock_registry().get(site).map_or(0, |e| e.hits)
}

/// Total fires across all configs of `site`.
#[cfg(feature = "failpoints")]
#[must_use]
pub fn fires(site: &str) -> u64 {
    lock_registry().get(site).map_or(0, |e| e.configs.iter().map(|c| c.fires).sum())
}

/// The instrumented-code entry point behind [`failpoint!`](crate::failpoint).
/// Prefer the macro in instrumented code.
#[cfg(feature = "failpoints")]
pub fn hit(site: &str) {
    // ordering: Relaxed [no-edge] — a pure fast-path counter check; a stale zero
    // only skips a site that was armed concurrently with the hit, which
    // the registry lock below would serialize anyway.
    if ACTIVE_SITES.load(Ordering::Relaxed) == 0 {
        return;
    }
    let action = {
        let mut reg = lock_registry();
        let Some(entry) = reg.get_mut(site) else { return };
        entry.hits += 1;
        let tid = current_tid();
        let mut chosen: Option<FaultAction> = None;
        for armed in &mut entry.configs {
            if let Some(want) = armed.cfg.tid {
                if tid != Some(want) {
                    continue;
                }
            }
            armed.matched += 1;
            let fire = match armed.cfg.fire {
                Fire::Always => true,
                Fire::Nth(k) => armed.matched == k,
                Fire::EveryNth(k) => k > 0 && armed.matched % k == 0,
                Fire::PerMille(p) => armed.rng.per_mille(p),
            };
            if !fire || armed.cfg.budget.is_some_and(|b| armed.fires >= b) {
                continue;
            }
            armed.fires += 1;
            chosen = Some(armed.cfg.action.clone());
            break;
        }
        match chosen {
            Some(a) => a,
            None => return,
        }
        // Registry lock drops here: actions run outside it, so a Crash
        // unwind can never poison the registry.
    };
    perform(site, action);
}

#[cfg(feature = "failpoints")]
fn perform(site: &str, action: FaultAction) {
    match action {
        // The facade's yield_now is a real schedule point inside a
        // scheduled run and `std::thread::yield_now` outside one — no
        // hook indirection needed now that this crate sits above the
        // scheduler.
        FaultAction::Yield => waitfree_sched::thread::yield_now(),
        FaultAction::SpinDelay(n) => {
            for _ in 0..n {
                std::hint::spin_loop();
            }
        }
        FaultAction::Stall => {
            STALLED_NOW.fetch_add(1, Ordering::SeqCst);
            while !STALLS_RELEASED.load(Ordering::SeqCst) {
                waitfree_sched::thread::park_timeout(std::time::Duration::from_micros(50));
            }
            STALLED_NOW.fetch_sub(1, Ordering::SeqCst);
        }
        FaultAction::Crash => {
            std::panic::panic_any(CrashSignal { site: site.to_string(), tid: current_tid() });
        }
    }
}

// ---------------------------------------------------------------------------
// Feature-off stubs: same API, no state, no cost.
// ---------------------------------------------------------------------------

/// No-op without the `failpoints` feature.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn hit(_site: &str) {}

/// No-op without the `failpoints` feature.
#[cfg(not(feature = "failpoints"))]
pub fn set_seed(_seed: u64) {}

/// No-op without the `failpoints` feature.
#[cfg(not(feature = "failpoints"))]
pub fn configure(_site: &str, _cfg: FailpointConfig) {}

/// No-op without the `failpoints` feature.
#[cfg(not(feature = "failpoints"))]
pub fn remove(_site: &str) {}

/// No-op without the `failpoints` feature.
#[cfg(not(feature = "failpoints"))]
pub fn clear() {}

/// No-op without the `failpoints` feature.
#[cfg(not(feature = "failpoints"))]
pub fn release_stalls() {}

/// Always zero without the `failpoints` feature.
#[cfg(not(feature = "failpoints"))]
#[must_use]
pub fn stalled_count() -> usize {
    0
}

/// Always zero without the `failpoints` feature.
#[cfg(not(feature = "failpoints"))]
#[must_use]
pub fn hits(_site: &str) -> u64 {
    0
}

/// Always zero without the `failpoints` feature.
#[cfg(not(feature = "failpoints"))]
#[must_use]
pub fn fires(_site: &str) -> u64 {
    0
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;

    #[test]
    fn unconfigured_site_is_inert() {
        let _guard = exclusive();
        clear();
        hit("nothing::here");
        assert_eq!(hits("nothing::here"), 0);
    }

    #[test]
    fn nth_fires_exactly_once() {
        let _guard = exclusive();
        clear();
        configure(
            "t::nth",
            FailpointConfig { action: FaultAction::Yield, fire: Fire::Nth(3), tid: None, budget: None },
        );
        for _ in 0..10 {
            hit("t::nth");
        }
        assert_eq!(hits("t::nth"), 10);
        assert_eq!(fires("t::nth"), 1);
        clear();
    }

    #[test]
    fn per_mille_is_deterministic_under_seed() {
        let _guard = exclusive();
        let run = || {
            clear();
            set_seed(99);
            configure(
                "t::pm",
                FailpointConfig {
                    action: FaultAction::SpinDelay(1),
                    fire: Fire::PerMille(300),
                    tid: None,
                    budget: None,
                },
            );
            for _ in 0..200 {
                hit("t::pm");
            }
            let f = fires("t::pm");
            clear();
            f
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same fire pattern");
        assert!(a > 20 && a < 120, "~30% of 200, got {a}");
    }

    #[test]
    fn tid_filter_counts_only_matching_hits() {
        let _guard = exclusive();
        clear();
        configure("t::tid", FailpointConfig::once_for(FaultAction::Yield, 7, 2));
        set_tid(3);
        for _ in 0..5 {
            hit("t::tid");
        }
        assert_eq!(fires("t::tid"), 0, "wrong thread never fires");
        set_tid(7);
        hit("t::tid");
        assert_eq!(fires("t::tid"), 0, "first matching hit is not the 2nd");
        hit("t::tid");
        assert_eq!(fires("t::tid"), 1, "second matching hit fires");
        hit("t::tid");
        assert_eq!(fires("t::tid"), 1, "budget of one");
        clear();
    }

    #[test]
    fn crash_unwinds_with_signal_payload() {
        let _guard = exclusive();
        clear();
        configure("t::crash", FailpointConfig::always(FaultAction::Crash));
        set_tid(5);
        let result = std::panic::catch_unwind(|| hit("t::crash"));
        let payload = result.expect_err("crash must unwind");
        let signal = payload.downcast_ref::<CrashSignal>().expect("crash payload");
        assert_eq!(signal.site, "t::crash");
        assert_eq!(signal.tid, Some(5));
        clear();
    }

    #[test]
    fn stall_parks_until_released() {
        let _guard = exclusive();
        clear();
        configure("t::stall", FailpointConfig::always(FaultAction::Stall));
        let worker = waitfree_sched::thread::spawn(|| hit("t::stall"));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while stalled_count() == 0 && std::time::Instant::now() < deadline {
            waitfree_sched::thread::yield_now();
        }
        assert_eq!(stalled_count(), 1, "worker parked at the site");
        release_stalls();
        worker.join().expect("stalled thread resumes, not fails");
        assert_eq!(stalled_count(), 0);
        clear();
    }
}
