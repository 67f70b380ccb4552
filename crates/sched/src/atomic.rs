//! Atomics facade: `std::sync::atomic` by default, instrumented shims
//! under the `sched` feature.
//!
//! With the feature off this module is nothing but `pub use` re-exports —
//! the types *are* the std types, so code written against the facade
//! compiles to exactly what it compiled to before the facade existed.
//!
//! With the feature on, each type wraps its std counterpart and calls
//! `crate::runtime`'s schedule point before performing the real
//! hardware operation. Outside a scheduled run the shims skip straight
//! to the hardware op, so ordinary `std::thread` tests keep working even
//! when the feature is enabled.
//!
//! The shims are sequentially-consistent at *schedule granularity*: the
//! scheduler explores interleavings of whole atomic operations, not weak
//! memory reorderings. Each operation's `Ordering` (and, for
//! compare-exchange, the failure ordering and the outcome) is recorded
//! in the run trace and passed through to the underlying std op
//! unchanged; the happens-before pass (`crate::hb`) replays the trace
//! and checks that every observed value is justified by those declared
//! orderings alone.
//!
//! Every traced method is `#[track_caller]`, so the trace records the
//! *workload's* source location for each op — the key that lets
//! `crate::hb` resolve observed synchronization edges against the
//! ordering contract `wf-lint` extracts from the audit comments.
//!
//! [`diag`] is the deliberate escape hatch for instrumentation-plane
//! atomics (fault registries, harness counters): plain std atomics in
//! both feature modes, never schedule points — see its docs.

#[cfg(not(feature = "sched"))]
pub use std::sync::atomic::{
    fence, AtomicBool, AtomicI64, AtomicPtr, AtomicU64, AtomicUsize, Ordering,
};

#[cfg(feature = "sched")]
pub use instrumented::{fence, AtomicBool, AtomicI64, AtomicPtr, AtomicU64, AtomicUsize};
#[cfg(feature = "sched")]
pub use std::sync::atomic::Ordering;

/// Instrumentation-plane atomics: always the raw std types, never
/// schedule points.
///
/// The failpoint registry, stress-harness counters and similar
/// diagnostics must not perturb the schedules being explored — a
/// registry check that were itself a schedule point would change every
/// interleaving whenever a test arms a site (the same principle that
/// keeps the history recorder's lock off the schedule-point graph).
/// Algorithm state never belongs here: the lint in `waitfree-analyze`
/// treats `diag` as part of the facade, so imports of it are allowed
/// workspace-wide, but anything whose interleavings should be *explored*
/// must use the instrumented types above.
pub mod diag {
    pub use std::sync::atomic::{AtomicBool, AtomicI64, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
}

#[cfg(feature = "sched")]
mod instrumented {
    use std::fmt;
    use std::sync::atomic::Ordering;

    use crate::runtime::{cas_outcome, fence_point, trace_point, AtomicOp};

    /// An atomic fence; a schedule point inside a scheduled run (traced
    /// as [`crate::runtime::TraceEvent::Fence`]), the std fence either
    /// way.
    pub fn fence(order: Ordering) {
        fence_point(order);
        std::sync::atomic::fence(order);
    }

    macro_rules! int_atomic {
        ($(#[$meta:meta])* $name:ident, $std:ty, $prim:ty, $tag:literal) => {
        $(#[$meta])*
        #[derive(Default)]
        pub struct $name {
            inner: $std,
        }

        impl $name {
            /// Creates a new atomic holding `v`.
            pub const fn new(v: $prim) -> Self {
                Self { inner: <$std>::new(v) }
            }

            fn addr(&self) -> usize {
                self as *const Self as usize
            }

            /// Atomic load; a schedule point inside a scheduled run.
            #[track_caller]
            pub fn load(&self, order: Ordering) -> $prim {
                trace_point($tag, AtomicOp::Load, order, None, self.addr());
                self.inner.load(order)
            }

            /// Atomic store; a schedule point inside a scheduled run.
            #[track_caller]
            pub fn store(&self, val: $prim, order: Ordering) {
                trace_point($tag, AtomicOp::Store, order, None, self.addr());
                self.inner.store(val, order);
            }

            /// Atomic swap; a schedule point inside a scheduled run.
            #[track_caller]
            pub fn swap(&self, val: $prim, order: Ordering) -> $prim {
                trace_point($tag, AtomicOp::Swap, order, None, self.addr());
                self.inner.swap(val, order)
            }

            /// Atomic compare-exchange; a schedule point inside a
            /// scheduled run (the trace records both orderings and the
            /// outcome).
            #[track_caller]
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                trace_point($tag, AtomicOp::CompareExchange, success, Some(failure), self.addr());
                let r = self.inner.compare_exchange(current, new, success, failure);
                cas_outcome(r.is_ok());
                r
            }

            /// Atomic fetch-and-add; a schedule point inside a scheduled
            /// run.
            #[track_caller]
            pub fn fetch_add(&self, val: $prim, order: Ordering) -> $prim {
                trace_point($tag, AtomicOp::FetchAdd, order, None, self.addr());
                self.inner.fetch_add(val, order)
            }

            /// Atomic fetch-and-sub; a schedule point inside a scheduled
            /// run.
            #[track_caller]
            pub fn fetch_sub(&self, val: $prim, order: Ordering) -> $prim {
                trace_point($tag, AtomicOp::FetchSub, order, None, self.addr());
                self.inner.fetch_sub(val, order)
            }

            /// Atomic fetch-and-max; a schedule point inside a scheduled
            /// run.
            #[track_caller]
            pub fn fetch_max(&self, val: $prim, order: Ordering) -> $prim {
                trace_point($tag, AtomicOp::FetchMax, order, None, self.addr());
                self.inner.fetch_max(val, order)
            }

            /// Mutable access; no schedule point (requires `&mut self`,
            /// so no other thread can observe the access).
            pub fn get_mut(&mut self) -> &mut $prim {
                self.inner.get_mut()
            }

            /// Consumes the atomic, returning the contained value.
            pub fn into_inner(self) -> $prim {
                self.inner.into_inner()
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                // Not a schedule point: Debug formatting is diagnostic,
                // not part of the algorithm under test.
                fmt::Debug::fmt(&self.inner, f)
            }
        }

        impl From<$prim> for $name {
            fn from(v: $prim) -> Self {
                Self::new(v)
            }
        }
        };
    }

    int_atomic!(
        /// Instrumented stand-in for [`std::sync::atomic::AtomicUsize`].
        AtomicUsize,
        std::sync::atomic::AtomicUsize,
        usize,
        "AtomicUsize"
    );
    int_atomic!(
        /// Instrumented stand-in for [`std::sync::atomic::AtomicU64`].
        AtomicU64,
        std::sync::atomic::AtomicU64,
        u64,
        "AtomicU64"
    );
    int_atomic!(
        /// Instrumented stand-in for [`std::sync::atomic::AtomicI64`].
        AtomicI64,
        std::sync::atomic::AtomicI64,
        i64,
        "AtomicI64"
    );

    /// Instrumented stand-in for [`std::sync::atomic::AtomicBool`].
    #[derive(Default)]
    pub struct AtomicBool {
        inner: std::sync::atomic::AtomicBool,
    }

    impl AtomicBool {
        /// Creates a new atomic holding `v`.
        pub const fn new(v: bool) -> Self {
            Self { inner: std::sync::atomic::AtomicBool::new(v) }
        }

        fn addr(&self) -> usize {
            self as *const Self as usize
        }

        /// Atomic load; a schedule point inside a scheduled run.
        #[track_caller]
        pub fn load(&self, order: Ordering) -> bool {
            trace_point("AtomicBool", AtomicOp::Load, order, None, self.addr());
            self.inner.load(order)
        }

        /// Atomic store; a schedule point inside a scheduled run.
        #[track_caller]
        pub fn store(&self, val: bool, order: Ordering) {
            trace_point("AtomicBool", AtomicOp::Store, order, None, self.addr());
            self.inner.store(val, order);
        }

        /// Atomic swap; a schedule point inside a scheduled run.
        #[track_caller]
        pub fn swap(&self, val: bool, order: Ordering) -> bool {
            trace_point("AtomicBool", AtomicOp::Swap, order, None, self.addr());
            self.inner.swap(val, order)
        }

        /// Atomic compare-exchange; a schedule point inside a scheduled
        /// run (the trace records both orderings and the outcome).
        #[track_caller]
        pub fn compare_exchange(
            &self,
            current: bool,
            new: bool,
            success: Ordering,
            failure: Ordering,
        ) -> Result<bool, bool> {
            trace_point("AtomicBool", AtomicOp::CompareExchange, success, Some(failure), self.addr());
            let r = self.inner.compare_exchange(current, new, success, failure);
            cas_outcome(r.is_ok());
            r
        }

        /// Mutable access; no schedule point.
        pub fn get_mut(&mut self) -> &mut bool {
            self.inner.get_mut()
        }

        /// Consumes the atomic, returning the contained value.
        pub fn into_inner(self) -> bool {
            self.inner.into_inner()
        }
    }

    impl fmt::Debug for AtomicBool {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fmt::Debug::fmt(&self.inner, f)
        }
    }

    /// Instrumented stand-in for [`std::sync::atomic::AtomicPtr`].
    pub struct AtomicPtr<T> {
        inner: std::sync::atomic::AtomicPtr<T>,
    }

    impl<T> AtomicPtr<T> {
        /// Creates a new atomic holding `p`.
        pub const fn new(p: *mut T) -> Self {
            Self { inner: std::sync::atomic::AtomicPtr::new(p) }
        }

        fn addr(&self) -> usize {
            self as *const Self as usize
        }

        /// Atomic load; a schedule point inside a scheduled run.
        #[track_caller]
        pub fn load(&self, order: Ordering) -> *mut T {
            trace_point("AtomicPtr", AtomicOp::Load, order, None, self.addr());
            self.inner.load(order)
        }

        /// Atomic store; a schedule point inside a scheduled run.
        #[track_caller]
        pub fn store(&self, ptr: *mut T, order: Ordering) {
            trace_point("AtomicPtr", AtomicOp::Store, order, None, self.addr());
            self.inner.store(ptr, order);
        }

        /// Atomic swap; a schedule point inside a scheduled run.
        #[track_caller]
        pub fn swap(&self, ptr: *mut T, order: Ordering) -> *mut T {
            trace_point("AtomicPtr", AtomicOp::Swap, order, None, self.addr());
            self.inner.swap(ptr, order)
        }

        /// Atomic compare-exchange; a schedule point inside a scheduled
        /// run (the trace records both orderings and the outcome).
        #[track_caller]
        pub fn compare_exchange(
            &self,
            current: *mut T,
            new: *mut T,
            success: Ordering,
            failure: Ordering,
        ) -> Result<*mut T, *mut T> {
            trace_point("AtomicPtr", AtomicOp::CompareExchange, success, Some(failure), self.addr());
            let r = self.inner.compare_exchange(current, new, success, failure);
            cas_outcome(r.is_ok());
            r
        }

        /// Mutable access; no schedule point.
        pub fn get_mut(&mut self) -> &mut *mut T {
            self.inner.get_mut()
        }

        /// Consumes the atomic, returning the contained pointer.
        pub fn into_inner(self) -> *mut T {
            self.inner.into_inner()
        }
    }

    impl<T> Default for AtomicPtr<T> {
        fn default() -> Self {
            Self::new(std::ptr::null_mut())
        }
    }

    impl<T> fmt::Debug for AtomicPtr<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fmt::Debug::fmt(&self.inner, f)
        }
    }
}

#[cfg(all(test, feature = "sched"))]
mod tests {
    use super::{AtomicBool, AtomicUsize, Ordering};
    use crate::runtime::{run, AtomicOp, RunOptions};
    use crate::strategy::Script;

    /// Inside a scheduled run the facade records exactly the ordering
    /// the caller passed — never a stronger one. The happens-before pass
    /// judges a trace by these orderings alone, so its mutation gates
    /// (a `publish_hint` `fetch_max(Release)` rewritten to `Relaxed`)
    /// stand for a build only if a weak op is recorded weak.
    #[test]
    fn each_op_is_recorded_with_the_ordering_the_caller_passed() {
        use AtomicOp::{CompareExchange, FetchAdd, FetchMax, FetchSub, Load, Store, Swap};
        use Ordering::{AcqRel, Acquire, Relaxed, Release};
        let result = run(Script::new(Vec::new()), RunOptions::default(), || {
            let a = AtomicUsize::new(0);
            a.load(Relaxed);
            a.load(Acquire);
            a.store(1, Relaxed);
            a.store(2, Release);
            a.swap(3, Relaxed);
            a.swap(4, AcqRel);
            assert!(a.compare_exchange(4, 5, Relaxed, Relaxed).is_ok());
            assert!(a.compare_exchange(0, 6, Release, Acquire).is_err());
            a.fetch_add(1, Relaxed);
            a.fetch_sub(1, Release);
            a.fetch_max(9, Relaxed);
            a.fetch_max(10, Acquire);
            let b = AtomicBool::new(false);
            b.store(true, Relaxed);
            b.load(Relaxed);
        });
        assert!(result.error.is_none(), "{:?}", result.error);
        let got: Vec<_> =
            result.ops().map(|e| (e.op, e.ordering, e.failure_ordering, e.cas_success)).collect();
        assert_eq!(
            got,
            vec![
                (Load, Relaxed, None, None),
                (Load, Acquire, None, None),
                (Store, Relaxed, None, None),
                (Store, Release, None, None),
                (Swap, Relaxed, None, None),
                (Swap, AcqRel, None, None),
                (CompareExchange, Relaxed, Some(Relaxed), Some(true)),
                (CompareExchange, Release, Some(Acquire), Some(false)),
                (FetchAdd, Relaxed, None, None),
                (FetchSub, Release, None, None),
                (FetchMax, Relaxed, None, None),
                (FetchMax, Acquire, None, None),
                (Store, Relaxed, None, None),
                (Load, Relaxed, None, None),
            ]
        );
    }
}
