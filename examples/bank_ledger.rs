//! A custom linearizable object from scratch: a bank ledger with atomic
//! transfers and audits.
//!
//! ```text
//! cargo run --example bank_ledger
//! ```
//!
//! This is the universality result used the way a downstream application
//! would: define the *sequential* semantics once (an `ObjectSpec`), get a
//! wait-free concurrent version for free. The `Audit` operation returns
//! the total across all accounts atomically — an operation that is
//! notoriously racy with per-account locks, and trivially correct here
//! because every operation is one log entry.

use waitfree::model::{ObjectSpec, Pid, Val};
use waitfree::sync::universal::{UniversalConfig, WfUniversal};

/// Sequential specification of the ledger.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct Ledger {
    accounts: Vec<Val>,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum LedgerOp {
    /// Move `amount` from one account to another; fails (atomically,
    /// with no effect) on insufficient funds.
    Transfer { from: usize, to: usize, amount: Val },
    /// Read one balance.
    Balance(usize),
    /// Atomically sum every account.
    Audit,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum LedgerResp {
    Ok,
    InsufficientFunds,
    Amount(Val),
}

impl ObjectSpec for Ledger {
    type Op = LedgerOp;
    type Resp = LedgerResp;

    fn apply(&mut self, _pid: Pid, op: &LedgerOp) -> LedgerResp {
        match *op {
            LedgerOp::Transfer { from, to, amount } => {
                if self.accounts[from] < amount {
                    LedgerResp::InsufficientFunds
                } else {
                    self.accounts[from] -= amount;
                    self.accounts[to] += amount;
                    LedgerResp::Ok
                }
            }
            LedgerOp::Balance(i) => LedgerResp::Amount(self.accounts[i]),
            LedgerOp::Audit => LedgerResp::Amount(self.accounts.iter().sum()),
        }
    }
}

fn main() {
    let accounts = 8;
    let initial_each: Val = 1_000;
    let threads = 4;
    let transfers_per_thread = 5_000;

    let ledger = Ledger {
        accounts: vec![initial_each; accounts],
    };
    let expected_total = initial_each * accounts as Val;

    let bank = WfUniversal::with_config(ledger, UniversalConfig::default());
    let joins: Vec<_> = (0..threads)
        .map(|_| {
            let mut h = bank.register();
            waitfree::sched::thread::spawn(move || {
                // A deterministic pseudo-random walk of transfers, plus
                // periodic audits *while transfers are in flight*.
                let mut x: u64 = 0x9E37_79B9 ^ (h.tid() as u64);
                let mut rejected = 0u32;
                let mut audits_ok = 0u32;
                for i in 0..transfers_per_thread {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let from = (x >> 13) as usize % 8;
                    let to = (x >> 29) as usize % 8;
                    let amount = (x >> 47) as Val % 200;
                    match h.invoke(LedgerOp::Transfer { from, to, amount }) {
                        LedgerResp::InsufficientFunds => rejected += 1,
                        LedgerResp::Ok => {}
                        LedgerResp::Amount(_) => unreachable!(),
                    }
                    if i % 500 == 0 {
                        match h.invoke(LedgerOp::Audit) {
                            LedgerResp::Amount(total) => {
                                assert_eq!(total, 8_000, "money conserved mid-flight");
                                audits_ok += 1;
                            }
                            other => unreachable!("{other:?}"),
                        }
                        // Spot-check a single balance too: it must never
                        // be negative (transfers are all-or-nothing).
                        match h.invoke(LedgerOp::Balance(from)) {
                            LedgerResp::Amount(b) => assert!(b >= 0, "no overdrafts"),
                            other => unreachable!("{other:?}"),
                        }
                    }
                }
                (rejected, audits_ok)
            })
        })
        .collect();

    let mut total_rejected = 0;
    let mut total_audits = 0;
    for j in joins {
        let (r, a) = j.join().expect("worker finished");
        total_rejected += r;
        total_audits += a;
    }

    println!("bank ledger: {threads} threads × {transfers_per_thread} transfers");
    println!("  insufficient-funds rejections: {total_rejected}");
    println!("  concurrent audits, all seeing exactly {expected_total}: {total_audits}");
    println!("  money was conserved at every linearization point — ok");
}
