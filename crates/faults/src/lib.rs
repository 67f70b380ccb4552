//! # waitfree-faults
//!
//! Fault injection for the hardware layer: the machinery that turns the
//! paper's central claim — wait-freedom tolerates any number of
//! halt-failures (§3) — from a model-checked statement (see
//! `waitfree-explorer`) into an empirically validated property of the
//! shipped `waitfree-sync` library.
//!
//! Two pieces:
//!
//! * [`failpoints`] — labeled sites compiled into hot paths via
//!   [`failpoint!`]; a test arms a site with a [`FaultAction`]
//!   (yield, spin-delay, stall, crash) under a deterministic firing rule.
//!   Without the `failpoints` cargo feature every site is an inlined
//!   empty function: zero cost in production builds.
//! * [`harness`] — spawns real threads, classifies injected crashes
//!   apart from genuine panics, releases stalled victims before joining,
//!   and plans deterministic adversaries ("crash thread 3 at its 2nd CAS").
//!
//! Seeded firing rules and adversaries draw from the workspace's PRNG,
//! `waitfree_sched::rng::DetRng`.
//!
//! [`FaultAction`]: failpoints::FaultAction

#![warn(missing_docs)]

pub mod failpoints;
pub mod harness;

/// Mark a failpoint site. `site` should be a `&str` literal, namespaced
/// like `"universal::cas"`.
///
/// With the `failpoints` feature off this expands to a call to an
/// `#[inline(always)]` empty function — no registry, no atomics, nothing.
///
/// ```
/// waitfree_faults::failpoint!("docs::example");
/// ```
#[macro_export]
macro_rules! failpoint {
    ($site:expr) => {
        $crate::failpoints::hit($site)
    };
}
