//! Typed wait-free objects instantiating the universal construction —
//! "a wait-free implementation of any sequential object" (§4), made
//! concrete: queue, stack, counter and register handles over
//! [`WfUniversal`] instances.
//!
//! [`WfUniversal`]: crate::universal::WfUniversal
//!
//! The point of these wrappers is the corollary users actually care
//! about: none of these objects can be built wait-free from reads and
//! writes alone (Corollaries 5 and 10), but all of them fall out of *one*
//! construction given a consensus primitive.
//!
//! Each wrapper is a cloneable front-end (`WfQueue`, `WfStack`,
//! `WfCounter`, `WfRegister`) built from a [`UniversalConfig`], whose
//! `register()` hands out handles to arriving clients and whose handles
//! `retire()` on departure, riding `universal`'s slot registry. Every
//! wrapper decides by batch combining: under contention one winning
//! consensus decide threads every currently-pending announced operation
//! (see `universal`'s module docs). The `sched`-tier campaigns in
//! `tests/sched_linearizability.rs` explore ≥ 1000 random-walk and
//! ≥ 1000 PCT schedules over each wrapper with
//! `UniversalConfig::default()`.

use waitfree_model::Val;
use waitfree_objects::counter::{Counter, CounterOp, CounterResp};
use waitfree_objects::queue::{FifoQueue, QueueOp, QueueResp};
use waitfree_objects::register::{RegOp, RegResp, RwRegister};
use waitfree_objects::stack::{Stack, StackOp, StackResp};

use crate::universal::{UniversalConfig, WfHandle, WfUniversal};

/// Define a dynamic-membership front-end over one typed wrapper: a
/// cloneable object with `register()` → handle, plus `retire()` /
/// `is_retired()` / `tid()` on the handle itself.
macro_rules! dynamic_front_end {
    ($(#[$doc:meta])* $front:ident, $handle:ident, $spec:ty) => {
        $(#[$doc])*
        #[derive(Clone, Debug)]
        pub struct $front(WfUniversal<$spec>);

        impl $front {
            /// Register an arriving client: claim (or recycle) a
            /// registry slot and return its handle with a fresh
            /// `max_ops` budget.
            #[must_use]
            pub fn register(&self) -> $handle {
                $handle(self.0.register())
            }

            /// Currently registered handles.
            #[must_use]
            pub fn active_handles(&self) -> usize {
                self.0.active_handles()
            }

            /// One past the highest registry slot ever claimed —
            /// bounded by peak active handles, not total arrivals.
            #[must_use]
            pub fn registry_slots(&self) -> usize {
                self.0.registry_slots()
            }
        }

        impl $handle {
            /// Depart: mark this handle retired so its registry slot
            /// can be recycled. Idempotent.
            pub fn retire(&mut self) {
                self.0.retire();
            }

            /// Whether [`Self::retire`] was called.
            #[must_use]
            pub fn is_retired(&self) -> bool {
                self.0.is_retired()
            }

            /// This handle's registry slot index.
            #[must_use]
            pub fn tid(&self) -> usize {
                self.0.tid()
            }
        }
    };
}

dynamic_front_end!(
    /// A wait-free FIFO queue: clients
    /// [`register`](WfQueue::register) to obtain a [`WfQueueHandle`]
    /// and retire it on departure.
    WfQueue,
    WfQueueHandle,
    FifoQueue
);

impl WfQueue {
    /// Create an empty wait-free queue; `cfg` picks the log truncation,
    /// cap and budget (see [`UniversalConfig`]).
    #[must_use]
    pub fn new(cfg: UniversalConfig) -> Self {
        WfQueue(WfUniversal::with_config(FifoQueue::new(), cfg))
    }
}

dynamic_front_end!(
    /// A wait-free LIFO stack.
    WfStack,
    WfStackHandle,
    Stack
);

impl WfStack {
    /// Create an empty wait-free stack (see [`WfQueue::new`]).
    #[must_use]
    pub fn new(cfg: UniversalConfig) -> Self {
        WfStack(WfUniversal::with_config(Stack::new(), cfg))
    }
}

dynamic_front_end!(
    /// A wait-free counter.
    WfCounter,
    WfCounterHandle,
    Counter
);

impl WfCounter {
    /// Create a wait-free counter starting at 0 (see [`WfQueue::new`]).
    #[must_use]
    pub fn new(cfg: UniversalConfig) -> Self {
        WfCounter(WfUniversal::with_config(Counter::new(0), cfg))
    }
}

dynamic_front_end!(
    /// A wait-free multi-writer register.
    WfRegister,
    WfRegisterHandle,
    RwRegister
);

impl WfRegister {
    /// Create a wait-free register initialized to `initial` (see
    /// [`WfQueue::new`]).
    #[must_use]
    pub fn new(initial: Val, cfg: UniversalConfig) -> Self {
        WfRegister(WfUniversal::with_config(RwRegister::new(initial), cfg))
    }
}

/// One client's handle to a wait-free FIFO queue of [`Val`]s.
#[derive(Debug)]
pub struct WfQueueHandle(WfHandle<FifoQueue>);

impl WfQueueHandle {
    /// Enqueue a value (wait-free).
    pub fn enq(&mut self, v: Val) {
        let _ = self.0.invoke(QueueOp::Enq(v));
    }

    /// Dequeue the oldest value (wait-free, total: `None` when empty).
    pub fn deq(&mut self) -> Option<Val> {
        match self.0.invoke(QueueOp::Deq) {
            QueueResp::Item(v) => Some(v),
            QueueResp::Empty => None,
            QueueResp::Ack => unreachable!("deq never acks"),
        }
    }
}

/// One client's handle to a wait-free LIFO stack of [`Val`]s.
#[derive(Debug)]
pub struct WfStackHandle(WfHandle<Stack>);

impl WfStackHandle {
    /// Push a value (wait-free).
    pub fn push(&mut self, v: Val) {
        let _ = self.0.invoke(StackOp::Push(v));
    }

    /// Pop the most recent value (wait-free, total).
    pub fn pop(&mut self) -> Option<Val> {
        match self.0.invoke(StackOp::Pop) {
            StackResp::Item(v) => Some(v),
            StackResp::Empty => None,
            StackResp::Ack => unreachable!("pop never acks"),
        }
    }
}

/// One client's handle to a wait-free counter.
#[derive(Debug)]
pub struct WfCounterHandle(WfHandle<Counter>);

impl WfCounterHandle {
    /// Add `delta`, returning the previous value (wait-free).
    pub fn fetch_add(&mut self, delta: Val) -> Val {
        match self.0.invoke(CounterOp::FetchAndAdd(delta)) {
            CounterResp::Value(v) => v,
            CounterResp::Ack => unreachable!("fetch-and-add returns a value"),
        }
    }

    /// Current value (wait-free linearizable read).
    pub fn get(&mut self) -> Val {
        match self.0.invoke(CounterOp::Get) {
            CounterResp::Value(v) => v,
            CounterResp::Ack => unreachable!("get returns a value"),
        }
    }
}

/// One client's handle to a wait-free multi-writer register.
#[derive(Debug)]
pub struct WfRegisterHandle(WfHandle<RwRegister>);

impl WfRegisterHandle {
    /// Write a value (wait-free).
    pub fn write(&mut self, v: Val) {
        let _ = self.0.invoke(RegOp::Write(v));
    }

    /// Read the current value (wait-free linearizable read).
    pub fn read(&mut self) -> Val {
        match self.0.invoke(RegOp::Read) {
            RegResp::Read(v) => v,
            RegResp::Written => unreachable!("read returns a value"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waitfree_sched::thread;

    #[test]
    fn wf_queue_conserves_items_across_threads() {
        let queue = WfQueue::new(UniversalConfig::default());
        let joins: Vec<_> = (0..4)
            .map(|t| {
                let mut h = queue.register();
                thread::spawn(move || {
                    let mut got = Vec::new();
                    for i in 0..150 {
                        h.enq((t * 1000 + i) as Val);
                        if let Some(v) = h.deq() {
                            got.push(v);
                        }
                    }
                    got
                })
            })
            .collect();
        let mut all: Vec<Val> = joins.into_iter().flat_map(|j| j.join().unwrap()).collect();
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "no duplicates");
    }

    #[test]
    fn wf_stack_round_trip() {
        let mut h = WfStack::new(UniversalConfig::default()).register();
        h.push(1);
        h.push(2);
        assert_eq!(h.pop(), Some(2));
        assert_eq!(h.pop(), Some(1));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn wf_counter_tickets_unique() {
        let counter = WfCounter::new(UniversalConfig::default());
        let joins: Vec<_> = (0..3)
            .map(|_| counter.register())
            .map(|mut h| thread::spawn(move || (0..100).map(|_| h.fetch_add(1)).collect::<Vec<_>>()))
            .collect();
        let mut all: Vec<Val> = joins.into_iter().flat_map(|j| j.join().unwrap()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..300).collect::<Vec<Val>>());
    }

    #[test]
    fn wf_counter_churn_recycles_slots() {
        let counter = WfCounter::new(UniversalConfig::default());
        for _ in 0..20 {
            let mut h = counter.register();
            h.fetch_add(1);
            h.retire();
            assert!(h.is_retired());
        }
        assert_eq!(counter.registry_slots(), 1, "sequential churn reuses one slot");
        assert_eq!(counter.active_handles(), 0);
        let mut probe = counter.register();
        assert_eq!(probe.get(), 20);
    }

    #[test]
    fn wf_counter_checkpointed_stays_exact_and_bounded() {
        let counter =
            WfCounter::new(UniversalConfig { checkpoint_every: Some(16), ..UniversalConfig::default() });
        let mut h = counter.register();
        for _ in 0..400 {
            h.fetch_add(1);
        }
        assert_eq!(h.get(), 400);
        // Truncation ran: a fresh registration adopts a checkpoint
        // instead of replaying 400 positions from the origin.
        let mut late = counter.register();
        assert_eq!(late.get(), 400);
    }

    #[test]
    fn wf_queue_survives_client_turnover() {
        let queue = WfQueue::new(UniversalConfig::default());
        let mut producer = queue.register();
        producer.enq(1);
        producer.enq(2);
        producer.retire();
        let mut consumer = queue.register();
        assert_eq!(consumer.deq(), Some(1));
        assert_eq!(consumer.deq(), Some(2));
        assert_eq!(consumer.deq(), None);
    }

    #[test]
    fn wf_register_reads_latest_write() {
        let reg = WfRegister::new(0, UniversalConfig::default());
        let (mut h0, mut h1) = (reg.register(), reg.register());
        h0.write(42);
        assert_eq!(h1.read(), 42);
        h1.write(7);
        assert_eq!(h0.read(), 7);
    }
}
