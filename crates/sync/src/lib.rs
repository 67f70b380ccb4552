//! # waitfree-sync
//!
//! The practical runtime: the paper's constructions on real hardware
//! atomics, with real threads.
//!
//! The paper closes (§5) noting that "little is known about practical
//! techniques" for wait-free synchronization; this crate is the practical
//! half of the reproduction:
//!
//! * [`consensus`] — hardware consensus objects: one-shot n-process
//!   consensus from `compare_exchange` (Theorem 7 on silicon), plus the
//!   two-process fetch-and-add and swap variants of Theorem 4;
//! * [`universal`] — a wait-free universal object: any
//!   [`ObjectSpec`](waitfree_model::ObjectSpec) shared among dynamically
//!   registering clients via a segmented log of pointer-CAS consensus
//!   slots with announce-registry helping (the practical shape of §4's
//!   construction — boxed entries owned by their log slot, single-CAS
//!   batch-combining decides, lazy log growth, checkpointed
//!   truncation), built from one [`universal::UniversalConfig`];
//! * [`lockfree`] — specialized lock-free baselines (Treiber stack,
//!   Michael–Scott queue) on raw `AtomicPtr` CAS with drop-deferred
//!   reclamation;
//! * [`faa_queue`] — the Herlihy–Wing FAA/swap queue (the paper's \[10\]),
//!   whose missing wait-free `peek` is Corollary 13's subject;
//! * [`locked`] — lock-based baselines (`std::sync::Mutex`) for the
//!   benchmark comparisons;
//! * [`wrappers`] — typed wait-free objects (queue, stack, counter,
//!   register) instantiating the universal construction.
//!
//! # Fault injection (feature `failpoints`)
//!
//! The hot paths of [`universal`], [`consensus`], [`faa_queue`] and
//! [`lockfree`] carry named [`waitfree_faults::failpoint!`] sites at their
//! linearization-relevant steps. With the `failpoints` feature disabled
//! (the default) every site compiles to an empty inline function; enabled,
//! tests can inject crashes, stalls and delays per site and per thread —
//! see `waitfree-faults` and the workspace's `tests/fault_tolerance.rs`.
//!
//! # Deterministic schedules (feature `sched`)
//!
//! Every atomic in this crate goes through the `waitfree_sched::atomic`
//! facade. With the `sched` feature disabled (the default) the facade is
//! a pure re-export of `std::sync::atomic` — this crate compiles to the
//! same code it did before the facade existed. Enabled, each atomic op
//! becomes a scheduling point of `waitfree-sched`'s cooperative
//! deterministic scheduler, so the *same* source that runs on hardware
//! can be driven through chosen interleavings and its histories checked
//! for linearizability — see the workspace's
//! `tests/sched_linearizability.rs`.

#![warn(missing_docs)]

pub mod consensus;
pub mod faa_queue;
pub mod lockfree;
pub mod locked;
pub mod universal;
pub mod wrappers;
