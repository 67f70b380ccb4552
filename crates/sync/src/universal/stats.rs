//! Diagnostics, one `Copy` snapshot per layer: [`ObjectStats`] for the
//! shared object, [`HandleStats`] for one client. This module decides
//! which counters exist, what they are called (the names `wfbench`
//! reports them under) and how each is loaded; the other layers only
//! bump them. A snapshot only loads: it writes no shared word and
//! allocates nothing, so the counters stay on in every build.

use waitfree_model::ObjectSpec;
use waitfree_sched::atomic::Ordering;

use super::{Shared, WfHandle, WfUniversal};

/// The object-wide counters, from [`WfUniversal::stats`]. Each field is
/// loaded on its own, so a snapshot taken under traffic is not one
/// instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObjectStats {
    /// Checkpoint entries decided into the log.
    pub checkpoints: usize,
    /// Log segments still allocated (installed minus reclaimed;
    /// hazard-pinned limbo segments count). The bounded-memory witness:
    /// under checkpointed traffic it flattens out at O(frontier spread /
    /// [`SEGMENT_SIZE`](super::SEGMENT_SIZE)).
    pub live_segments: usize,
    /// One past the highest registry slot index ever claimed: the `n`
    /// of the helping bound. Slot reuse keeps it bounded by peak
    /// *concurrently active* handles (plus claim races), never by
    /// `total_arrivals`.
    pub registry_slots: usize,
    /// Log segments ever installed, reclaimed ones included. Starts at 1.
    pub installed_segments: usize,
    /// Log segments detached and freed by checkpointed reclamation.
    /// Always 0 without checkpointing.
    pub reclaimed_segments: usize,
    /// Registered handles. One dropped without [`WfHandle::retire`] (a
    /// crashed client) stays counted: it still occupies its slot.
    pub active_handles: usize,
    /// High-water mark of `active_handles`.
    pub peak_active: usize,
    /// Total [`WfUniversal::register`] calls over the object's life.
    pub total_arrivals: usize,
}

/// One handle's counters, from [`WfHandle::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HandleStats {
    /// Consensus decides (CAS attempts). Under contention batch
    /// combining drives `decides / invokes` toward 1/n.
    pub decides: usize,
    /// Decides whose CAS lost to a concurrent winner: each is a wasted
    /// RMW on the contended slot.
    pub cas_failures: usize,
    /// Completed (`Ok`) invocations.
    pub invokes: usize,
    /// Log positions replayed (a batch is one position). A registrant
    /// that adopted a checkpoint starts past its position.
    pub replayed: usize,
    /// Most decides any one invoke spent threading its operation.
    /// Wait-freedom (§4.1) bounds it by O(n) whatever the other threads
    /// do, crashes included.
    pub max_threading_steps: usize,
    /// Log position of the batch that carried the latest completed op
    /// (`None` before the first): how layered protocols relate their
    /// entries to log order, e.g. the store's decided reads.
    pub last_decided_position: Option<usize>,
}

impl<S: ObjectSpec> Shared<S> {
    /// The one place the object's counters are loaded.
    pub(super) fn stats(&self) -> ObjectStats {
        // `reclaimed` first: a segment is counted installed before it
        // can be freed, so a later `segments` load is at least this
        // one. The other order underflows when an observer stalls
        // between the loads while a writer reclaims segments.
        let reclaimed_segments = self.reclaimed.load(Ordering::SeqCst);
        // ordering: Acquire [pairs: universal.seg_count] — pairs with
        // the AcqRel fetch_add in `seg_for`, so a count of `n` implies
        // the `n`th install is visible to this reader.
        let installed_segments = self.segments.load(Ordering::Acquire);
        ObjectStats {
            checkpoints: self.checkpoints.load(Ordering::SeqCst),
            live_segments: installed_segments - reclaimed_segments,
            registry_slots: self.registered(),
            installed_segments,
            reclaimed_segments,
            active_handles: self.active.load(Ordering::SeqCst),
            peak_active: self.peak_active.load(Ordering::SeqCst),
            total_arrivals: self.arrivals.load(Ordering::SeqCst),
        }
    }
}

impl<S: ObjectSpec> WfUniversal<S> {
    /// A snapshot of the object's counters.
    #[must_use]
    pub fn stats(&self) -> ObjectStats {
        self.shared.stats()
    }

    /// [`ObjectStats::checkpoints`].
    #[must_use]
    pub fn checkpoints(&self) -> usize {
        self.stats().checkpoints
    }

    /// [`ObjectStats::live_segments`].
    #[must_use]
    pub fn live_segments(&self) -> usize {
        self.stats().live_segments
    }

    /// [`ObjectStats::registry_slots`].
    #[must_use]
    pub fn registry_slots(&self) -> usize {
        self.stats().registry_slots
    }
}

impl<S: ObjectSpec> WfHandle<S> {
    /// A snapshot of this handle's counters.
    #[must_use]
    pub fn stats(&self) -> HandleStats {
        HandleStats { replayed: self.cursor, ..self.counters }
    }

    /// [`HandleStats::decides`].
    #[must_use]
    pub fn decides(&self) -> usize {
        self.stats().decides
    }

    /// [`HandleStats::cas_failures`].
    #[must_use]
    pub fn cas_failures(&self) -> usize {
        self.stats().cas_failures
    }

    /// [`HandleStats::invokes`].
    #[must_use]
    pub fn invokes(&self) -> usize {
        self.stats().invokes
    }

    /// [`HandleStats::replayed`].
    #[must_use]
    pub fn replayed(&self) -> usize {
        self.stats().replayed
    }

    /// [`HandleStats::max_threading_steps`].
    #[must_use]
    pub fn max_threading_steps(&self) -> usize {
        self.stats().max_threading_steps
    }
}
