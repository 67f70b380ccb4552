//! The segmented chain: §4.1's two unbounded arrays, the log and the
//! announce array, as one structure.
//!
//! Following Bonin–Mostéfaoui–Perrin (PAPERS.md), an unbounded array is
//! a linked list of fixed-size segments, grown lazily: a thread that
//! walks off the end allocates the next segment and installs it with
//! one CAS on the link; the loser of that race frees its duplicate and
//! follows the winner — growth is itself wait-free (one CAS attempt,
//! then proceed). The log ([`SEGMENT_SIZE`](super::SEGMENT_SIZE)
//! positions of `LogSlot`) and the handle registry
//! ([`REGISTRY_SEGMENT`](super::REGISTRY_SEGMENT) `HandleSlot`s) are
//! its two instantiations. A segment's size is its slice's length; a
//! grown segment copies it from its predecessor.
//!
//! A segment owns its slots and nothing else: each slot type frees its
//! own payload in its `Drop`, and a segment never follows `next` when it
//! drops — a segment that reclamation detached from the log still links
//! into the live chain. [`Seg::free`] frees a whole chain, iteratively.
//!
//! The chain's one invariant, which every walk here relies on: a
//! segment a caller holds keeps every segment after it allocated as long
//! as the caller holds it. The registry frees nothing before its object
//! drops; the log's reclaimer frees only segments wholly behind every
//! published frontier, so a handle's cached segment (whose `end()`
//! exceeds its frontier) pins everything after it. The reclaimer's own
//! walk from the chain root, whose root may be detached under it, is
//! the hazard-validated `Shared::walk_retained`, not these.
//!
//! Orderings: the `next` links are `Release` install / `Acquire`
//! follow, so a segment's header and fresh slots are visible before
//! the segment is reachable. A missing link below an index the caller
//! knows to be installed breaks that edge, and panics rather than skip
//! the slots behind it.

use std::ptr;
use waitfree_sched::atomic::{AtomicPtr, Ordering};

/// One fixed-size block of a segmented chain: `slots[0]` has index
/// `base`. Reachable only through its chain's root and `next` links
/// installed by CAS.
pub(super) struct Seg<T> {
    pub(super) base: usize,
    pub(super) slots: Box<[T]>,
    pub(super) next: AtomicPtr<Seg<T>>,
}

impl<T: Default> Seg<T> {
    /// A chain root: `len` fresh slots from index `base`.
    pub(super) fn new(base: usize, len: usize) -> Box<Self> {
        Box::new(Seg {
            base,
            slots: (0..len).map(|_| T::default()).collect(),
            next: AtomicPtr::new(ptr::null_mut()),
        })
    }

    /// The segment holding index `k`, walking forward from this one
    /// (which must satisfy `base <= k`) and growing the chain as needed;
    /// `on_install` runs once per segment this call installed.
    ///
    /// Wait-free: every iteration advances one segment (a lost install
    /// CAS means the winner's link is there to follow), and `k` is a
    /// bounded number of segments ahead.
    #[inline]
    pub(super) fn find_or_grow(&self, k: usize, mut on_install: impl FnMut()) -> &Self {
        debug_assert!(self.base <= k);
        let mut s = self;
        // progress: wait-free — each iteration follows one link, after
        // at most one install attempt that leaves the link set.
        while k >= s.end() {
            match s.next() {
                Some(n) => s = n,
                None => {
                    if s.install() {
                        on_install();
                    }
                }
            }
        }
        s
    }

    /// One install attempt of the segment after this one; whether it
    /// was ours. Either way the link is set on return.
    #[cold]
    fn install(&self) -> bool {
        let fresh = Box::into_raw(Seg::new(self.end(), self.slots.len()));
        // ordering: Release on success [site: universal.seg_install;
        // pairs: universal.seg_install] — publishes the fully built
        // segment (its header and fresh slots) with the link; Acquire
        // on failure to safely follow the winner's segment.
        match self.next.compare_exchange(
            ptr::null_mut(),
            fresh,
            Ordering::Release,
            Ordering::Acquire,
        ) {
            Ok(_) => true,
            Err(_) => {
                // SAFETY: the CAS failed, so `fresh` was never
                // published; we still own it exclusively.
                drop(unsafe { Box::from_raw(fresh) });
                false
            }
        }
    }
}

impl<T> Seg<T> {
    /// One past the last index this segment covers.
    #[inline]
    pub(super) fn end(&self) -> usize {
        self.base + self.slots.len()
    }

    /// The slot of index `k`, which this segment must hold.
    #[inline]
    pub(super) fn at(&self, k: usize) -> &T {
        debug_assert!(self.base <= k && k < self.end());
        &self.slots[k - self.base]
    }

    /// The installed segment after this one, if any.
    #[inline]
    fn next(&self) -> Option<&Self> {
        // ordering: Acquire [pairs: universal.seg_install] — pairs with
        // the Release install, so the segment's header and slots are
        // initialized before the link is observable.
        let n = self.next.load(Ordering::Acquire);
        // SAFETY: a non-null link was installed by `install` from a
        // `Box`, and by the chain invariant it stays allocated while
        // the caller holds `self`.
        unsafe { n.as_ref() }
    }

    /// The segment holding index `k`, walking forward from this one;
    /// every segment up to it must already be installed.
    ///
    /// # Panics
    ///
    /// If the chain ends before `k`.
    #[inline]
    fn seek(&self, k: usize) -> &Self {
        let mut s = self;
        // progress: bounded — one hop per installed segment below `k`.
        while k >= s.end() {
            s = s
                .next()
                .unwrap_or_else(|| panic!("index {k} beyond the installed chain"));
        }
        s
    }

    /// The slot of index `k`, which must already be installed: the
    /// lookup. Walks forward from this segment (`base <= k`).
    ///
    /// # Panics
    ///
    /// If the chain ends before `k`.
    #[inline]
    pub(super) fn get(&self, k: usize) -> &T {
        self.seek(k).at(k)
    }

    /// Visit the slots of indices `from..to` in order, walking forward
    /// from this segment (`base <= from`): the range walk. Every index
    /// below `to` must already be installed.
    ///
    /// # Panics
    ///
    /// If the chain ends before `to`.
    #[inline]
    pub(super) fn for_range(&self, from: usize, to: usize, mut f: impl FnMut(usize, &T)) {
        let mut s = self;
        for k in from..to {
            s = s.seek(k);
            f(k, s.at(k));
        }
    }

    /// Free the chain from `seg` on, iteratively (a long chain must not
    /// recurse once per segment). A null `seg` frees nothing.
    ///
    /// # Safety
    ///
    /// `seg` and every segment after it came from `Box::into_raw`, are
    /// owned by the caller alone, and are not used again.
    pub(super) unsafe fn free(mut seg: *mut Self) {
        // progress: bounded — one iteration per segment of the chain.
        while !seg.is_null() {
            // SAFETY: the caller's contract: `seg` is an owned,
            // unaliased `Box` allocation, freed exactly once here.
            let mut b = unsafe { Box::from_raw(seg) };
            seg = *b.next.get_mut();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universal::log::LogSlot;
    use crate::universal::registry::HandleSlot;
    use crate::universal::{UniversalConfig, WfUniversal, REGISTRY_SEGMENT, SEGMENT_SIZE};
    use std::sync::{Arc, Barrier};
    use waitfree_objects::counter::{Counter, CounterOp};
    use waitfree_sched::thread;

    /// Segments in the chain from `root` on.
    fn chain_len<T>(root: &Seg<T>) -> usize {
        let mut n = 1;
        let mut s = root;
        // progress: bounded — one hop per installed segment.
        while let Some(next) = s.next() {
            n += 1;
            s = next;
        }
        n
    }

    /// The log's root segment of `obj`, alive while `obj` is and
    /// nothing checkpoints.
    fn log_root(obj: &WfUniversal<Counter>) -> &Seg<LogSlot<Counter>> {
        // SAFETY: without checkpointing nothing is reclaimed, so the
        // base-0 root lives as long as `obj`.
        unsafe { &*obj.shared.oldest.load(Ordering::SeqCst) }
    }

    /// `threads` threads race to grow both chains of one object to index
    /// `k`, released together by a barrier.
    fn race_growth(threads: usize, k: usize) -> WfUniversal<Counter> {
        let obj = WfUniversal::with_config(Counter::new(0), UniversalConfig::default());
        let go = Arc::new(Barrier::new(threads));
        let racers: Vec<_> = (0..threads)
            .map(|_| {
                let (obj, go) = (obj.clone(), Arc::clone(&go));
                thread::spawn(move || {
                    go.wait();
                    // SAFETY: `seg_for` returns a segment of the chain,
                    // alive while `obj` is (nothing is reclaimed).
                    let seg = unsafe { &*obj.shared.seg_for(log_root(&obj), k) };
                    assert!(seg.base <= k && k < seg.end());
                    let reg = obj.shared.reg_head.find_or_grow(k, || {});
                    assert!(reg.base <= k && k < reg.end());
                })
            })
            .collect();
        for r in racers {
            r.join().unwrap();
        }
        obj
    }

    #[test]
    fn racing_growth_installs_each_segment_once() {
        let k = 3 * SEGMENT_SIZE + 5;
        let obj = race_growth(4, k);
        assert_eq!(chain_len(log_root(&obj)), k / SEGMENT_SIZE + 1);
        assert_eq!(
            obj.stats().installed_segments,
            k / SEGMENT_SIZE + 1,
            "one count per log install"
        );
        assert_eq!(chain_len(&obj.shared.reg_head), k / REGISTRY_SEGMENT + 1);
        // The grown registry slots are fresh and the object still works.
        assert_eq!(
            obj.shared.reg_head.get(k).frontier.load(Ordering::SeqCst),
            usize::MAX
        );
        obj.register().invoke(CounterOp::Add(1));
    }

    #[test]
    #[should_panic(expected = "beyond the installed chain")]
    fn range_walk_past_the_installed_chain_panics() {
        let root = Seg::<LogSlot<Counter>>::new(0, SEGMENT_SIZE);
        root.for_range(0, SEGMENT_SIZE + 1, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "index 8 beyond the installed chain")]
    fn lookup_past_the_installed_chain_panics() {
        let root = Seg::<HandleSlot<()>>::new(0, REGISTRY_SEGMENT);
        let _ = root.get(REGISTRY_SEGMENT);
    }

    /// Both chains grown past one segment by two racing threads, small
    /// enough for `cargo miri test` (CI's analyze job runs every
    /// `miri_smoke_*` test under miri): the install CAS, the losing
    /// copy's free and the object's chain frees against the real
    /// memory model, with miri's leak check over all of them.
    #[test]
    fn miri_smoke_chain_growth() {
        let k = SEGMENT_SIZE + 1;
        let obj = race_growth(2, k);
        assert_eq!(obj.stats().installed_segments, 2);
        assert_eq!(chain_len(&obj.shared.reg_head), k / REGISTRY_SEGMENT + 1);
    }
}
