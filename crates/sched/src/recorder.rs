//! History recorder: collects invoke/response events from scheduled
//! runs into a `waitfree-model` [`History`] for the linearizability
//! checker.
//!
//! The recorder is shared by cloning (an `Arc` inside); each virtual
//! thread records under its own [`Pid`]. The internal lock is never held
//! across a schedule point — `invoke`/`respond` only push one event —
//! so recording does not perturb the explored interleavings, and an
//! injected crash between an invoke and its respond simply leaves the
//! operation pending (which
//! [`waitfree_model::PendingPolicy::MayTakeEffect`] then treats
//! correctly: the crashed operation may or may not have taken effect).

use std::sync::{Arc, Mutex, PoisonError};

use waitfree_model::{History, ObjectSpec, Pid};

/// A cloneable recorder of one concurrent history over the object
/// specification `S`.
#[derive(Debug)]
pub struct HistoryRecorder<S: ObjectSpec> {
    inner: Arc<Mutex<History<S::Op, S::Resp>>>,
}

impl<S: ObjectSpec> Clone for HistoryRecorder<S> {
    fn clone(&self) -> Self {
        Self { inner: Arc::clone(&self.inner) }
    }
}

impl<S: ObjectSpec> Default for HistoryRecorder<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: ObjectSpec> HistoryRecorder<S> {
    /// An empty recorder.
    pub fn new() -> Self {
        Self { inner: Arc::new(Mutex::new(History::new())) }
    }

    /// Record that `pid` invoked `op`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` already has a pending invocation (each virtual
    /// thread must record under its own pid).
    pub fn invoke(&self, pid: Pid, op: S::Op) {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).invoke(pid, op);
    }

    /// Record that `pid` received `resp`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` has no pending invocation.
    pub fn respond(&self, pid: Pid, resp: S::Resp) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .respond(pid, resp)
            .expect("respond without a pending invocation");
    }

    /// Record `op`, run `f` (the real concurrent operation), record and
    /// return its response. If `f` unwinds — e.g. an injected crash —
    /// the operation stays pending in the history.
    pub fn record(&self, pid: Pid, op: S::Op, f: impl FnOnce() -> S::Resp) -> S::Resp {
        self.invoke(pid, op);
        let resp = f();
        self.respond(pid, resp.clone());
        resp
    }

    /// A snapshot of the recorded history.
    pub fn snapshot(&self) -> History<S::Op, S::Resp> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }
}
