//! Atomic read/write registers — level 1 of the hierarchy (Figure 1-1).
//!
//! The paper's central negative result (Theorem 2) is that these objects
//! cannot solve two-process consensus; consequently (Corollary 3) they
//! cannot implement any object that can. Note that `write` returns *no
//! information* — a write that returned the previous value would be the
//! read-modify-write `swap`, a strictly stronger object (§3.2).

use waitfree_model::{ObjectSpec, Pid, Val};

/// Response of a register operation.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum RegResp {
    /// A write completed (no information is returned).
    Written,
    /// A read returned this value.
    Read(Val),
}

/// Operation on a single register.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum RegOp {
    /// Read the register.
    Read,
    /// Overwrite the register with a value.
    Write(Val),
}

/// A single atomic read/write register.
///
/// # Example
///
/// ```
/// use waitfree_model::{ObjectSpec, Pid};
/// use waitfree_objects::register::{RegOp, RegResp, RwRegister};
///
/// let mut r = RwRegister::new(0);
/// assert_eq!(r.apply(Pid(0), &RegOp::Write(9)), RegResp::Written);
/// assert_eq!(r.apply(Pid(1), &RegOp::Read), RegResp::Read(9));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RwRegister {
    value: Val,
}

impl RwRegister {
    /// A register holding `initial`.
    #[must_use]
    pub fn new(initial: Val) -> Self {
        RwRegister { value: initial }
    }

    /// Current contents: what a replica-side read (`WfHandle::read`)
    /// answers without deciding a `Read`.
    #[must_use]
    pub fn value(&self) -> Val {
        self.value
    }
}

impl ObjectSpec for RwRegister {
    type Op = RegOp;
    type Resp = RegResp;

    fn apply(&mut self, _pid: Pid, op: &RegOp) -> RegResp {
        match *op {
            RegOp::Read => RegResp::Read(self.value),
            RegOp::Write(v) => {
                self.value = v;
                RegResp::Written
            }
        }
    }
}

/// Operation on a bank of registers.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum BankOp {
    /// Read register `0`-indexed `idx`.
    Read(usize),
    /// Overwrite register `idx` with a value.
    Write(usize, Val),
}

/// A fixed-size array of atomic read/write registers, each operation
/// touching exactly one register.
///
/// Protocols in the paper invariably use several registers
/// (`announce[i]`, `r[i,j]`, …); a bank keeps them in one [`ObjectSpec`]
/// so the explorer sees a single shared object.
///
/// # Example
///
/// ```
/// use waitfree_model::{ObjectSpec, Pid};
/// use waitfree_objects::register::{BankOp, RegResp, RegisterBank};
///
/// let mut bank = RegisterBank::new(3, -1);
/// bank.apply(Pid(0), &BankOp::Write(2, 42));
/// assert_eq!(bank.apply(Pid(1), &BankOp::Read(2)), RegResp::Read(42));
/// assert_eq!(bank.apply(Pid(1), &BankOp::Read(0)), RegResp::Read(-1));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RegisterBank {
    cells: Vec<Val>,
}

impl RegisterBank {
    /// A bank of `len` registers, all holding `initial`.
    #[must_use]
    pub fn new(len: usize, initial: Val) -> Self {
        RegisterBank {
            cells: vec![initial; len],
        }
    }

    /// A bank with explicit initial contents.
    #[must_use]
    pub fn from_values(cells: Vec<Val>) -> Self {
        RegisterBank { cells }
    }

    /// Number of registers in the bank.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the bank has no registers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Contents of register `idx` (test/debug convenience).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    #[must_use]
    pub fn value(&self, idx: usize) -> Val {
        self.cells[idx]
    }
}

impl ObjectSpec for RegisterBank {
    type Op = BankOp;
    type Resp = RegResp;

    /// # Panics
    ///
    /// Panics if the register index is out of bounds — protocols address a
    /// statically sized bank, so an out-of-range index is a protocol bug.
    fn apply(&mut self, _pid: Pid, op: &BankOp) -> RegResp {
        match *op {
            BankOp::Read(i) => RegResp::Read(self.cells[i]),
            BankOp::Write(i, v) => {
                self.cells[i] = v;
                RegResp::Written
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_returns_no_information() {
        let mut r = RwRegister::new(3);
        // Writes by different processes with different prior contents all
        // return the same response — this is what keeps registers weak.
        assert_eq!(r.apply(Pid(0), &RegOp::Write(5)), RegResp::Written);
        assert_eq!(r.apply(Pid(1), &RegOp::Write(6)), RegResp::Written);
    }

    #[test]
    fn read_is_side_effect_free() {
        let mut r = RwRegister::new(4);
        let before = r.clone();
        r.apply(Pid(0), &RegOp::Read);
        assert_eq!(r, before);
    }

    #[test]
    fn last_write_wins() {
        let mut r = RwRegister::new(0);
        r.apply(Pid(0), &RegOp::Write(1));
        r.apply(Pid(1), &RegOp::Write(2));
        assert_eq!(r.apply(Pid(0), &RegOp::Read), RegResp::Read(2));
    }

    #[test]
    fn bank_cells_are_independent() {
        let mut b = RegisterBank::new(4, 0);
        b.apply(Pid(0), &BankOp::Write(1, 11));
        b.apply(Pid(0), &BankOp::Write(3, 33));
        assert_eq!(b.apply(Pid(1), &BankOp::Read(0)), RegResp::Read(0));
        assert_eq!(b.apply(Pid(1), &BankOp::Read(1)), RegResp::Read(11));
        assert_eq!(b.apply(Pid(1), &BankOp::Read(3)), RegResp::Read(33));
    }

    #[test]
    fn bank_from_values() {
        let b = RegisterBank::from_values(vec![7, 8]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.value(0), 7);
        assert_eq!(b.value(1), 8);
    }

    #[test]
    #[should_panic]
    fn bank_out_of_bounds_panics() {
        let mut b = RegisterBank::new(1, 0);
        b.apply(Pid(0), &BankOp::Read(5));
    }
}
