//! Transaction transparency (§9.3).
//!
//! "Transaction transparency cannot be achieved by [channel components]
//! alone. The correct operation of the transaction function requires the
//! reporting of the execution (or undo-ing) of certain actions of
//! interest (e.g. reading or writing a piece of transaction-managed
//! data)… transaction transparency must involve the refinement of a
//! transaction-transparent specification into a specification which
//! reports the execution of these actions of interest to the transaction
//! function."
//!
//! [`TxContext`] is that refinement: application code reads and writes
//! through it as if the data were plain state; every access is reported
//! to the resource manager, which provides isolation, atomicity and
//! recovery. [`in_transaction`] brackets the application code, commits on
//! success, aborts on error, and retries deadlock victims — the
//! application never sees the coordination.

use std::fmt;

use rmodp_core::id::TxId;
use rmodp_core::value::Value;
use rmodp_transactions::rm::{ResourceManager, RmError};

/// The handle application code uses inside a transaction: every read and
/// write is an *action of interest* reported to the transaction function.
#[derive(Debug)]
pub struct TxContext<'a> {
    rm: &'a mut ResourceManager,
    tx: TxId,
    reported: Vec<String>,
}

impl<'a> TxContext<'a> {
    /// Reads a transaction-managed item.
    ///
    /// # Errors
    ///
    /// Lock conflicts or deadlock (handled by [`in_transaction`]).
    pub fn read(&mut self, item: &str) -> Result<Option<Value>, RmError> {
        self.reported.push(format!("read {item}"));
        self.rm.read(self.tx, item)
    }

    /// Writes a transaction-managed item.
    ///
    /// # Errors
    ///
    /// Lock conflicts or deadlock (handled by [`in_transaction`]).
    pub fn write(&mut self, item: &str, value: Value) -> Result<(), RmError> {
        self.reported.push(format!("write {item}"));
        self.rm.write(self.tx, item, value)
    }
}

/// Why a transparent transaction ultimately failed.
#[derive(Debug, Clone, PartialEq)]
pub enum TxError {
    /// Deadlock persisted across every retry.
    RetriesExhausted { attempts: u32 },
    /// The application body failed (its error text).
    Application(String),
    /// The resource manager failed outside deadlock handling.
    Resource(RmError),
}

impl fmt::Display for TxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxError::RetriesExhausted { attempts } => {
                write!(f, "transaction failed after {attempts} attempt(s)")
            }
            TxError::Application(e) => write!(f, "application error: {e}"),
            TxError::Resource(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TxError {}

/// Runs application code transactionally: begin, run, commit — aborting
/// on any error and retrying automatically when the transaction was a
/// deadlock victim. The application body never touches transaction ids,
/// locks or logs.
///
/// # Errors
///
/// [`TxError`] when retries are exhausted or the body fails for a
/// non-deadlock reason (after the transaction is rolled back).
pub fn in_transaction<T>(
    rm: &mut ResourceManager,
    max_attempts: u32,
    mut body: impl FnMut(&mut TxContext<'_>) -> Result<T, String>,
) -> Result<T, TxError> {
    use rmodp_observe::{bus, event, EventKind, Layer};
    let mut attempts = 0;
    loop {
        attempts += 1;
        let tx = rm.begin();
        let mut ctx = TxContext {
            rm,
            tx,
            reported: Vec::new(),
        };
        match body(&mut ctx) {
            Ok(out) => {
                rm.commit(tx).map_err(TxError::Resource)?;
                event(Layer::Transparency, EventKind::TxCommit)
                    .in_context()
                    .detail_fmt(format_args!("tx={tx} attempts={attempts}"))
                    .emit();
                bus::counter_add("transparency.tx_commits", 1);
                return Ok(out);
            }
            Err(app_err) => {
                // Distinguish deadlock (retry) from genuine failure.
                let was_deadlock = app_err.contains("deadlock");
                // The victim of a deadlock is already aborted; everything
                // else must be rolled back here.
                let _ = rm.abort(tx);
                event(Layer::Transparency, EventKind::TxAbort)
                    .in_context()
                    .detail_fmt(format_args!("tx={tx} attempt={attempts}: {app_err}"))
                    .emit();
                bus::counter_add("transparency.tx_aborts", 1);
                if was_deadlock && attempts < max_attempts {
                    continue;
                }
                return if was_deadlock {
                    Err(TxError::RetriesExhausted { attempts })
                } else {
                    Err(TxError::Application(app_err))
                };
            }
        }
    }
}

/// Transfers money between two accounts transparently: the paper's
/// canonical transactional state change, written with no visible
/// transaction machinery.
///
/// # Errors
///
/// Transaction failures, or an application error when funds are missing.
pub fn transfer(
    rm: &mut ResourceManager,
    from: &str,
    to: &str,
    amount: i64,
) -> Result<(), TxError> {
    in_transaction(rm, 5, |ctx| {
        let from_balance = ctx
            .read(from)
            .map_err(|e| e.to_string())?
            .and_then(|v| v.as_int())
            .unwrap_or(0);
        if from_balance < amount {
            return Err(format!("insufficient funds: {from_balance} < {amount}"));
        }
        let to_balance = ctx
            .read(to)
            .map_err(|e| e.to_string())?
            .and_then(|v| v.as_int())
            .unwrap_or(0);
        ctx.write(from, Value::Int(from_balance - amount))
            .map_err(|e| e.to_string())?;
        ctx.write(to, Value::Int(to_balance + amount))
            .map_err(|e| e.to_string())?;
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmodp_transactions::rm::TxProfile;

    fn bank() -> ResourceManager {
        let mut rm = ResourceManager::new("bank", TxProfile::acid());
        let tx = rm.begin();
        rm.write(tx, "alice", Value::Int(100)).unwrap();
        rm.write(tx, "bob", Value::Int(50)).unwrap();
        rm.commit(tx).unwrap();
        rm
    }

    #[test]
    fn transfer_moves_money_atomically() {
        let mut rm = bank();
        transfer(&mut rm, "alice", "bob", 30).unwrap();
        assert_eq!(rm.read_committed("alice"), Some(Value::Int(70)));
        assert_eq!(rm.read_committed("bob"), Some(Value::Int(80)));
    }

    #[test]
    fn failed_transfer_changes_nothing() {
        let mut rm = bank();
        let err = transfer(&mut rm, "alice", "bob", 1_000).unwrap_err();
        assert!(matches!(err, TxError::Application(_)));
        assert_eq!(rm.read_committed("alice"), Some(Value::Int(100)));
        assert_eq!(rm.read_committed("bob"), Some(Value::Int(50)));
    }

    #[test]
    fn actions_of_interest_are_reported() {
        let mut rm = bank();
        let mut observed = Vec::new();
        in_transaction(&mut rm, 1, |ctx| {
            ctx.read("alice").map_err(|e| e.to_string())?;
            ctx.write("alice", Value::Int(0))
                .map_err(|e| e.to_string())?;
            observed = ctx.reported.clone();
            Ok(())
        })
        .unwrap();
        assert_eq!(observed, vec!["read alice", "write alice"]);
    }

    #[test]
    fn conservation_across_many_transfers() {
        let mut rm = bank();
        for i in 0..20 {
            let (from, to) = if i % 2 == 0 {
                ("alice", "bob")
            } else {
                ("bob", "alice")
            };
            let _ = transfer(&mut rm, from, to, 7 + i % 5);
        }
        let total = rm.read_committed("alice").unwrap().as_int().unwrap()
            + rm.read_committed("bob").unwrap().as_int().unwrap();
        assert_eq!(total, 150, "money is conserved");
    }

    #[test]
    fn retry_count_is_bounded() {
        let mut rm = bank();
        let mut attempts = 0;
        let err = in_transaction(&mut rm, 3, |ctx| {
            attempts += 1;
            // Each attempt locks alice; a skipped abort would leave the
            // lock behind and fail the next attempt's write.
            ctx.write("alice", Value::Int(0))
                .map_err(|e| e.to_string())?;
            Err::<(), _>("deadlock: synthetic".to_owned())
        })
        .unwrap_err();
        assert_eq!(err, TxError::RetriesExhausted { attempts: 3 });
        assert_eq!(attempts, 3);
        // All three attempts were aborted cleanly: nothing was written
        // and their locks are free.
        assert_eq!(rm.read_committed("alice"), Some(Value::Int(100)));
        assert!(transfer(&mut rm, "alice", "bob", 1).is_ok());
    }

    #[test]
    fn commit_happens_exactly_once_per_success() {
        let mut rm = bank();
        let mut runs = 0;
        in_transaction(&mut rm, 3, |ctx| {
            runs += 1;
            ctx.write("alice", Value::Int(1)).map_err(|e| e.to_string())
        })
        .unwrap();
        assert_eq!(runs, 1);
        assert_eq!(rm.read_committed("alice"), Some(Value::Int(1)));
    }
}
