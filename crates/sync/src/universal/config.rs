//! Construction: the one configuration value, the one constructor, and
//! the typed errors an operation can return.

use std::cell::UnsafeCell;
use std::fmt;
use std::sync::Arc;
use waitfree_sched::atomic::{AtomicPtr, AtomicUsize};

use waitfree_model::ObjectSpec;

use super::log::Segment;
use super::registry::RegSegment;
use super::{Shared, WfUniversal};

/// Why a universal-object operation could not complete. These are the
/// resource-exhaustion edges of the bounded renderings of §4 — not
/// concurrency failures, which the construction tolerates by design.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UniversalError {
    /// The log reached its opt-in position cap
    /// ([`UniversalConfig::cap`]) with no undecided position left.
    /// The operation was already announced and *may still take effect*
    /// through helping; the object as a whole cannot accept further
    /// operations. Never returned without a cap: the log then grows
    /// without bound.
    LogFull {
        /// First position past the cap.
        position: usize,
        /// The configured position cap.
        capacity: usize,
    },
    /// This registration used its whole [`UniversalConfig::max_ops`]
    /// budget; the operation was not announced and has no effect.
    BudgetExhausted {
        /// The invoking thread.
        tid: usize,
        /// Its per-thread operation budget.
        max_ops: usize,
    },
    /// This handle was retired
    /// ([`WfHandle::retire`](super::WfHandle::retire)); the operation
    /// was not announced and has no effect. Register a fresh handle to
    /// keep operating on the object.
    Retired {
        /// The registry slot the handle occupied.
        tid: usize,
    },
}

impl fmt::Display for UniversalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UniversalError::LogFull { position, capacity } => {
                write!(f, "log arena exhausted at position {position} (capacity {capacity})")
            }
            UniversalError::BudgetExhausted { tid, max_ops } => {
                write!(f, "thread {tid} exceeded its budget of {max_ops} operations")
            }
            UniversalError::Retired { tid } => {
                write!(f, "handle on registry slot {tid} is retired")
            }
        }
    }
}

impl std::error::Error for UniversalError {}

/// Everything that can differ between two [`WfUniversal`] objects over
/// the same specification. `Default` is the plain hot path: no
/// truncation, no cap, a budget no process outlives.
///
/// | field | `Default` | effect |
/// |-------|-----------|--------|
/// | `checkpoint_every` | `None` | `Some(e)`: decide a checkpoint every `e` positions and reclaim the segments behind it |
/// | `cap` | `None` | `Some(c)`: positions `≥ c` do not exist ([`UniversalError::LogFull`]); excludes `checkpoint_every` |
/// | `max_ops` | `usize::MAX >> 8` | operations per registration before [`UniversalError::BudgetExhausted`] |
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UniversalConfig {
    /// Checkpoint cadence: decide a
    /// [`LogEntry::Checkpoint`](super::LogEntry::Checkpoint) once a
    /// handle's replay frontier is this many positions past the latest
    /// one, and free the segments behind every frontier. `None`
    /// disables truncation entirely (the reclaim bound stays 0 and the
    /// chain root never moves).
    pub checkpoint_every: Option<usize>,
    /// Opt-in position cap, for tests that need to observe
    /// [`UniversalError::LogFull`]; `None` lets the log grow without
    /// bound. The log still grows segment by segment; only the cap is
    /// enforced eagerly.
    pub cap: Option<usize>,
    /// Per-*registration* operation budget: each `register` grants this
    /// many fresh announce sequence numbers on the claimed slot. It
    /// sizes nothing.
    pub max_ops: usize,
}

impl Default for UniversalConfig {
    fn default() -> Self {
        UniversalConfig {
            checkpoint_every: None,
            cap: None,
            // 2⁵⁶ on a 64-bit target — centuries at any achievable
            // rate. A slot's budget ends at (ops its earlier occupants
            // actually ran) + this, which therefore cannot overflow.
            max_ops: usize::MAX >> 8,
        }
    }
}

impl<S: ObjectSpec> WfUniversal<S> {
    /// Build the object over `initial` as `cfg` describes (see
    /// [`UniversalConfig`] for the fields and their defaults). No
    /// process set is fixed: each [`WfUniversal::register`] call claims
    /// (or recycles) a registry slot and grants a fresh `cfg.max_ops`
    /// operation budget.
    ///
    /// The log starts as a single [`SEGMENT_SIZE`](super::SEGMENT_SIZE)
    /// segment and grows lazily: memory is O(positions actually
    /// decided). Without `checkpoint_every` it is never truncated.
    ///
    /// # Panics
    ///
    /// If `cfg.checkpoint_every` is `Some(0)`, or is set together with
    /// `cfg.cap`: a capped log never truncates, so the pair has no
    /// meaning.
    #[must_use]
    pub fn with_config(initial: S, cfg: UniversalConfig) -> Self {
        assert!(cfg.checkpoint_every != Some(0), "checkpoint_every must be at least 1");
        assert!(
            cfg.checkpoint_every.is_none() || cfg.cap.is_none(),
            "checkpoint_every and cap are mutually exclusive"
        );
        WfUniversal {
            shared: Arc::new(Shared {
                cfg,
                reg_head: RegSegment::new(0),
                slots_hi: AtomicUsize::new(0),
                active: AtomicUsize::new(0),
                peak_active: AtomicUsize::new(0),
                arrivals: AtomicUsize::new(0),
                oldest: AtomicPtr::new(Box::into_raw(Segment::new(0))),
                segments: AtomicUsize::new(1),
                reclaimed: AtomicUsize::new(0),
                checkpoints: AtomicUsize::new(0),
                cp_pos: AtomicUsize::new(0),
                reclaimed_upto: AtomicUsize::new(0),
                reclaim_lock: AtomicUsize::new(0),
                limbo: UnsafeCell::new(Vec::new()),
                hint: AtomicUsize::new(0),
            }),
            initial,
        }
    }

    /// [`WfUniversal::with_config`] with `checkpoint_every: Some(every)`
    /// and the given budget. Exists only because the repository's
    /// benchmark (`benchmark/src/sut.rs`, frozen between benchmark PRs)
    /// spells the checkpointed configuration this way; new code passes
    /// a [`UniversalConfig`].
    #[must_use]
    pub fn new_dynamic_checkpointed(initial: S, max_ops: usize, every: usize) -> Self {
        Self::with_config(
            initial,
            UniversalConfig { checkpoint_every: Some(every), max_ops, ..UniversalConfig::default() },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universal::fixtures::{budget_of_two, checkpointed};
    use waitfree_model::Pid;
    use waitfree_objects::counter::{Counter, CounterOp};

    #[test]
    #[should_panic(expected = "checkpoint_every must be at least 1")]
    fn zero_checkpoint_cadence_is_rejected_by_name() {
        let _ = WfUniversal::with_config(Counter::new(0), checkpointed(0));
    }

    #[test]
    #[should_panic(expected = "checkpoint_every and cap are mutually exclusive")]
    fn cap_with_checkpointing_is_rejected_by_name() {
        let cfg = UniversalConfig { cap: Some(64), ..checkpointed(8) };
        let _ = WfUniversal::with_config(Counter::new(0), cfg);
    }

    #[test]
    fn benchmark_pinned_constructor_is_the_checkpointed_config() {
        let pinned = WfUniversal::new_dynamic_checkpointed(Counter::new(0), 77, 16);
        let cfg = UniversalConfig { max_ops: 77, ..checkpointed(16) };
        let spelled = WfUniversal::with_config(Counter::new(0), cfg);
        assert_eq!(format!("{pinned:?}"), format!("{spelled:?}"));
        assert!(format!("{pinned:?}").contains(&format!("{cfg:?}")), "{pinned:?}");
    }

    #[test]
    #[should_panic(expected = "budget")]
    fn op_budget_is_enforced() {
        let mut h = WfUniversal::with_config(Counter::new(0), budget_of_two()).register();
        h.invoke(CounterOp::Add(1));
        h.invoke(CounterOp::Add(1));
        h.invoke(CounterOp::Add(1));
    }

    #[test]
    fn budget_error_is_typed_stable_and_effect_free() {
        let mut h = WfUniversal::with_config(Counter::new(0), budget_of_two()).register();
        h.invoke(CounterOp::Add(1));
        h.invoke(CounterOp::Add(1));
        for _ in 0..3 {
            assert_eq!(
                h.try_invoke(CounterOp::Add(1)),
                Err(UniversalError::BudgetExhausted { tid: 0, max_ops: 2 })
            );
        }
        // The failed attempts announced nothing: a fresh handle's replay
        // sees exactly two additions.
        assert_eq!(h.refresh(), {
            let mut c = Counter::new(0);
            c.apply(Pid(0), &CounterOp::Add(1));
            c.apply(Pid(0), &CounterOp::Add(1));
            c
        });
    }

    #[test]
    fn budget_renews_per_registration_and_seqs_continue() {
        let obj = WfUniversal::with_config(Counter::new(0), budget_of_two());
        let mut h = obj.register();
        h.invoke(CounterOp::Add(1));
        h.invoke(CounterOp::Add(1));
        assert_eq!(
            h.try_invoke(CounterOp::Add(1)),
            Err(UniversalError::BudgetExhausted { tid: 0, max_ops: 2 })
        );
        h.retire();
        // Re-registering the same slot grants a fresh budget; sequence
        // numbers continue (the `announced` watermark is per-slot, not
        // per-registration), so the replay dedup stays sound across
        // reuse.
        let mut h = obj.register();
        assert_eq!(h.tid(), 0);
        h.invoke(CounterOp::Add(1));
        h.invoke(CounterOp::Add(1));
        assert_eq!(
            h.try_invoke(CounterOp::Add(1)),
            Err(UniversalError::BudgetExhausted { tid: 0, max_ops: 2 })
        );
        assert_eq!(h.refresh(), {
            let mut c = Counter::new(0);
            for _ in 0..4 {
                c.apply(Pid(0), &CounterOp::Add(1));
            }
            c
        });
    }

    #[test]
    fn error_display_names_the_resource() {
        let log = UniversalError::LogFull { position: 9, capacity: 9 };
        assert!(log.to_string().contains("log arena exhausted"));
        let budget = UniversalError::BudgetExhausted { tid: 3, max_ops: 7 };
        assert!(budget.to_string().contains("budget"));
    }

    #[test]
    fn retired_error_display_names_the_slot() {
        let e = UniversalError::Retired { tid: 5 };
        assert!(e.to_string().contains("retired"));
        assert!(e.to_string().contains('5'));
    }
}
