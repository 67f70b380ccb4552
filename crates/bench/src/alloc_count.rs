//! A counting global allocator: allocations/op and bytes/op, the cost
//! column ROADMAP aim 1 asks of every layer.
//!
//! [`CountingAlloc`] forwards to [`System`] and counts the allocating
//! calls (`alloc`, `alloc_zeroed`, `realloc`) and the bytes they ask
//! for, and the freeing calls (`dealloc`, `realloc`) and the bytes they
//! return, **per thread** — plain `Cell`s, no atomics — so a measurement
//! sees only the allocations of the thread that took it and parallel
//! tests in one binary do not pollute each other. A `realloc` counts as
//! freeing the old size and allocating the new one. A binary opts in with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc;
//! ```
//!
//! and prices a region with [`allocs_during`], or weighs what it left
//! live with [`net_live_during`]. Without that line every region reads
//! `(0, 0)`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialized and destructor-free: touching them allocates
    // nothing, so the allocator can use them re-entrantly.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
    static FREED: Cell<u64> = const { Cell::new(0) };
}

/// [`System`], counting per thread. See the module docs.
pub struct CountingAlloc;

fn count(bytes: usize) {
    // `try_with`: an allocation during thread teardown goes uncounted
    // instead of panicking inside the allocator.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

fn count_free(bytes: usize) {
    let _ = FREES.try_with(|c| c.set(c.get() + 1));
    let _ = FREED.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// thread-local `Cell`s and never allocates or unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `GlobalAlloc::alloc` obligations, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_free(layout.size());
        count(new_size);
        // SAFETY: the caller's `GlobalAlloc::realloc` obligations, passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_free(layout.size());
        // SAFETY: the caller's `GlobalAlloc::dealloc` obligations, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Run `body` and return its result with the `(allocating calls, bytes
/// requested)` the calling thread made meanwhile.
pub fn allocs_during<R>(body: impl FnOnce() -> R) -> (R, (u64, u64)) {
    let reading = || (CALLS.with(Cell::get), BYTES.with(Cell::get));
    let (calls, bytes) = reading();
    let out = body();
    let (calls_after, bytes_after) = reading();
    (out, (calls_after - calls, bytes_after - bytes))
}

/// Run `body` and return its result with the `(blocks, bytes)` the
/// calling thread left live meanwhile: allocating calls minus freeing
/// calls, bytes requested minus bytes freed. Negative when `body` frees
/// more than it allocates; memory one thread allocates and another
/// frees is counted on each side by the thread that touched it.
pub fn net_live_during<R>(body: impl FnOnce() -> R) -> (R, (i64, i64)) {
    let reading = || (FREES.with(Cell::get), FREED.with(Cell::get));
    let (frees, freed) = reading();
    let (out, (calls, bytes)) = allocs_during(body);
    let (frees_after, freed_after) = reading();
    let net = |alloc: u64, free: u64| alloc as i64 - free as i64;
    (out, (net(calls, frees_after - frees), net(bytes, freed_after - freed)))
}
