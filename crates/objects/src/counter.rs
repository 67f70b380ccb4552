//! A shared counter — the running example for the universal construction
//! (§4: "behaviors as disparate as those of queues, databases, counters").
//!
//! With a `fetch-and-increment`-style response the counter sits at level 2
//! (it is a fetch-and-add specialization); with only blind `inc` and `read`
//! it is still not implementable from registers.

use waitfree_model::{ObjectSpec, Pid, Val};

/// Operation on a counter.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum CounterOp {
    /// Add `delta` (may be negative) and respond with the *old* value.
    FetchAndAdd(Val),
    /// Add `delta` blindly (responds with nothing).
    Add(Val),
    /// Read the current value.
    Get,
}

/// Response of a counter operation.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum CounterResp {
    /// A blind `Add` completed.
    Ack,
    /// The value returned by `FetchAndAdd` (old value) or `Get` (current).
    Value(Val),
}

/// A shared integer counter.
///
/// # Example
///
/// ```
/// use waitfree_model::{ObjectSpec, Pid};
/// use waitfree_objects::counter::{Counter, CounterOp, CounterResp};
///
/// let mut c = Counter::new(0);
/// assert_eq!(c.apply(Pid(0), &CounterOp::FetchAndAdd(5)), CounterResp::Value(0));
/// assert_eq!(c.apply(Pid(1), &CounterOp::Get), CounterResp::Value(5));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct Counter {
    value: Val,
}

impl Counter {
    /// A counter holding `initial`.
    #[must_use]
    pub fn new(initial: Val) -> Self {
        Counter { value: initial }
    }

    /// Current value: what a replica-side read (`WfHandle::read`)
    /// answers without deciding a `Get`.
    #[must_use]
    pub fn value(&self) -> Val {
        self.value
    }
}

impl ObjectSpec for Counter {
    type Op = CounterOp;
    type Resp = CounterResp;

    fn apply(&mut self, _pid: Pid, op: &CounterOp) -> CounterResp {
        match *op {
            CounterOp::FetchAndAdd(d) => {
                let old = self.value;
                self.value = self.value.wrapping_add(d);
                CounterResp::Value(old)
            }
            CounterOp::Add(d) => {
                self.value = self.value.wrapping_add(d);
                CounterResp::Ack
            }
            CounterOp::Get => CounterResp::Value(self.value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_and_add_returns_old() {
        let mut c = Counter::new(10);
        assert_eq!(c.apply(Pid(0), &CounterOp::FetchAndAdd(-3)), CounterResp::Value(10));
        assert_eq!(c.value(), 7);
    }

    #[test]
    fn blind_add_acks() {
        let mut c = Counter::new(0);
        assert_eq!(c.apply(Pid(0), &CounterOp::Add(2)), CounterResp::Ack);
        assert_eq!(c.apply(Pid(0), &CounterOp::Add(2)), CounterResp::Ack);
        assert_eq!(c.apply(Pid(0), &CounterOp::Get), CounterResp::Value(4));
    }

    #[test]
    fn get_is_side_effect_free() {
        let mut c = Counter::new(1);
        let before = c.clone();
        c.apply(Pid(0), &CounterOp::Get);
        assert_eq!(c, before);
    }
}
