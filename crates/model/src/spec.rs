//! Sequential object specifications.

use std::fmt::Debug;
use std::hash::Hash;

use crate::Pid;

/// A deterministic sequential object specification.
///
/// This is the executable form of the paper's "sequential object" (§2.2):
/// a set of states with **total** operations, specified by the effect each
/// operation has when executed alone. All objects in this workspace have
/// total operations — e.g. `deq` on an empty queue returns an explicit
/// *empty* response rather than blocking, exactly as the paper requires
/// ("a total deq would return an exception").
///
/// Implementations must be deterministic: the response and successor state
/// are functions of `(state, pid, op)`. The `pid` parameter exists because
/// a few objects in the paper are process-aware (e.g. `fetch-and-cons`
/// trims the caller's own previous operation; consensus objects record the
/// proposer).
///
/// States, operations and responses must be `Eq + Hash` so the explorer can
/// memoize global configurations and the linearizability checker can cache
/// partial linearizations.
pub trait ObjectSpec: Clone + Eq + Hash + Debug {
    /// Operations (invocations, including argument values).
    type Op: Clone + Eq + Hash + Debug;
    /// Responses (result values).
    type Resp: Clone + Eq + Hash + Debug;

    /// Apply one operation atomically, mutating the state and returning the
    /// response. Operations are total: this never fails and never blocks.
    fn apply(&mut self, pid: Pid, op: &Self::Op) -> Self::Resp;

    /// Apply an operation to a copy of the state, returning the successor
    /// state and the response. Convenience for explorers that keep states
    /// immutable.
    #[must_use]
    fn applied(&self, pid: Pid, op: &Self::Op) -> (Self, Self::Resp) {
        let mut next = self.clone();
        let resp = next.apply(pid, op);
        (next, resp)
    }
}

/// A finitely nondeterministic sequential object specification.
///
/// The paper's automata may be nondeterministic; the key example in this
/// workspace is an *unordered* message channel (the Dolev–Dwork–Stockmeyer
/// comparison in §3.1), where `recv` may deliver any pending message, and a
/// *safe* register, where a read overlapping a write may return anything.
/// An adversarial scheduler resolves the nondeterminism, so the explorer
/// branches over every outcome of [`BranchingSpec::apply_all`].
///
/// Every [`ObjectSpec`] is a `BranchingSpec` with exactly one branch.
pub trait BranchingSpec: Clone + Eq + Hash + Debug {
    /// Operations (invocations, including argument values).
    type Op: Clone + Eq + Hash + Debug;
    /// Responses (result values).
    type Resp: Clone + Eq + Hash + Debug;

    /// All `(successor state, response)` outcomes the operation may have.
    ///
    /// The returned vector is never empty (operations are total).
    fn apply_all(&self, pid: Pid, op: &Self::Op) -> Vec<(Self, Self::Resp)>;
}

impl<O: ObjectSpec> BranchingSpec for O {
    type Op = O::Op;
    type Resp = O::Resp;

    fn apply_all(&self, pid: Pid, op: &Self::Op) -> Vec<(Self, Self::Resp)> {
        vec![self.applied(pid, op)]
    }
}

/// Adapter giving a nondeterministic specification by composing a
/// deterministic object with an explicit outcome-enumeration function.
///
/// Useful in tests for building small nondeterministic specs without a new
/// type. The enumeration function is carried as a plain `fn` pointer so the
/// adapter stays `Eq + Hash`.
#[derive(Clone, Debug)]
pub struct Nondet<O: ObjectSpec> {
    /// Underlying deterministic state.
    pub state: O,
    /// Enumerates outcomes; supersedes the deterministic `apply`.
    pub branches: BranchFn<O>,
}

/// Outcome-enumeration function carried by [`Nondet`]: all
/// `(successor, response)` pairs an operation may produce from a state.
pub type BranchFn<O> = fn(&O, Pid, &<O as ObjectSpec>::Op) -> Vec<(O, <O as ObjectSpec>::Resp)>;

impl<O: ObjectSpec> PartialEq for Nondet<O> {
    fn eq(&self, other: &Self) -> bool {
        self.state == other.state && std::ptr::fn_addr_eq(self.branches, other.branches)
    }
}

impl<O: ObjectSpec> Eq for Nondet<O> {}

impl<O: ObjectSpec> Hash for Nondet<O> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.state.hash(state);
    }
}

impl<O: ObjectSpec> BranchingSpec for Nondet<O> {
    type Op = O::Op;
    type Resp = O::Resp;

    fn apply_all(&self, pid: Pid, op: &Self::Op) -> Vec<(Self, Self::Resp)> {
        (self.branches)(&self.state, pid, op)
            .into_iter()
            .map(|(state, resp)| {
                (
                    Nondet {
                        state,
                        branches: self.branches,
                    },
                    resp,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct Counter(i64);

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    enum Op {
        Inc,
        Get,
    }

    impl ObjectSpec for Counter {
        type Op = Op;
        type Resp = i64;
        fn apply(&mut self, _pid: Pid, op: &Op) -> i64 {
            match op {
                Op::Inc => {
                    self.0 += 1;
                    self.0
                }
                Op::Get => self.0,
            }
        }
    }

    #[test]
    fn applied_leaves_original_untouched() {
        let c = Counter(0);
        let (next, resp) = c.applied(Pid(0), &Op::Inc);
        assert_eq!(c, Counter(0));
        assert_eq!(next, Counter(1));
        assert_eq!(resp, 1);
    }

    #[test]
    fn deterministic_spec_has_single_branch() {
        let c = Counter(5);
        let branches = c.apply_all(Pid(0), &Op::Get);
        assert_eq!(branches, vec![(Counter(5), 5)]);
    }

    #[test]
    fn nondet_adapter_branches() {
        fn coin(state: &Counter, _pid: Pid, _op: &Op) -> Vec<(Counter, i64)> {
            vec![(state.clone(), 0), (state.clone(), 1)]
        }
        let nd = Nondet {
            state: Counter(0),
            branches: coin,
        };
        let out = nd.apply_all(Pid(0), &Op::Get);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].1, 0);
        assert_eq!(out[1].1, 1);
    }

    #[test]
    fn nondet_equality_ignores_fn_identity_only_if_same() {
        fn coin(state: &Counter, _pid: Pid, _op: &Op) -> Vec<(Counter, i64)> {
            vec![(state.clone(), 0)]
        }
        let a = Nondet {
            state: Counter(0),
            branches: coin,
        };
        let b = a.clone();
        assert_eq!(a, b);
    }
}
