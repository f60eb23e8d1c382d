//! Strict two-phase locking with deadlock detection.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use rmodp_core::id::TxId;

/// The lock mode requested for an item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Shared (read) — compatible with other shared locks.
    Shared,
    /// Exclusive (write) — compatible with nothing.
    Exclusive,
}

/// The outcome of a lock request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock was granted.
    Granted,
    /// The requester must wait for the given holders.
    Wait {
        /// Transactions currently blocking the request.
        blockers: Vec<TxId>,
    },
    /// Granting would create a waits-for cycle; the requester should
    /// abort.
    Deadlock {
        /// The detected cycle.
        cycle: Vec<TxId>,
    },
}

#[derive(Debug, Default)]
struct ItemLocks {
    holders: BTreeMap<TxId, LockMode>,
    /// FIFO wait queue of (tx, mode).
    waiters: Vec<(TxId, LockMode)>,
}

/// A strict two-phase lock manager: locks are only released en masse at
/// commit/abort ([`release_all`](LockManager::release_all)).
#[derive(Debug, Default)]
pub struct LockManager {
    items: BTreeMap<String, ItemLocks>,
    /// waits_for[a] = set of transactions a is waiting on.
    waits_for: BTreeMap<TxId, BTreeSet<TxId>>,
}

impl fmt::Display for LockManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LockManager({} items, {} waiting txs)",
            self.items.len(),
            self.waits_for.len()
        )
    }
}

impl LockManager {
    /// Creates an empty lock manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests a lock. Re-requests by a holder upgrade where possible
    /// (shared → exclusive succeeds only if it is the sole holder).
    pub fn acquire(&mut self, tx: TxId, item: &str, mode: LockMode) -> LockOutcome {
        let locks = self.items.entry(item.to_owned()).or_default();

        // Already holding?
        if let Some(&held) = locks.holders.get(&tx) {
            match (held, mode) {
                (LockMode::Exclusive, _) | (LockMode::Shared, LockMode::Shared) => {
                    return LockOutcome::Granted
                }
                (LockMode::Shared, LockMode::Exclusive) => {
                    if locks.holders.len() == 1 {
                        locks.holders.insert(tx, LockMode::Exclusive);
                        return LockOutcome::Granted;
                    }
                    // Upgrade blocked by other shared holders.
                }
            }
        }

        let compatible = match mode {
            LockMode::Shared => locks
                .holders
                .iter()
                .all(|(t, m)| *t == tx || *m == LockMode::Shared),
            LockMode::Exclusive => locks.holders.keys().all(|t| *t == tx),
        };
        // FIFO fairness: even a compatible request waits behind queued
        // waiters (prevents writer starvation).
        if compatible && locks.waiters.is_empty() {
            locks.holders.insert(tx, mode);
            return LockOutcome::Granted;
        }

        let blockers: Vec<TxId> = locks
            .holders
            .keys()
            .copied()
            .filter(|t| *t != tx)
            .chain(locks.waiters.iter().map(|(t, _)| *t).filter(|t| *t != tx))
            .collect();
        // Record the wait edge, then check for a cycle.
        self.waits_for
            .entry(tx)
            .or_default()
            .extend(blockers.iter().copied());
        if let Some(cycle) = self.find_cycle(tx) {
            // Withdraw the edges we just added; the caller should abort.
            self.waits_for.remove(&tx);
            return LockOutcome::Deadlock { cycle };
        }
        let locks = self.items.get_mut(item).expect("created above");
        if !locks.waiters.iter().any(|(t, m)| *t == tx && *m == mode) {
            locks.waiters.push((tx, mode));
        }
        LockOutcome::Wait { blockers }
    }

    /// Releases every lock held or awaited by a transaction (commit or
    /// abort), granting newly compatible waiters FIFO. Returns the
    /// transactions that acquired locks as a result.
    pub fn release_all(&mut self, tx: TxId) -> Vec<TxId> {
        self.waits_for.remove(&tx);
        for edges in self.waits_for.values_mut() {
            edges.remove(&tx);
        }
        let mut woken = Vec::new();
        for locks in self.items.values_mut() {
            locks.holders.remove(&tx);
            locks.waiters.retain(|(t, _)| *t != tx);
            // Grant from the head of the queue while compatible.
            while let Some(&(waiter, mode)) = locks.waiters.first() {
                // A waiter's own held lock (upgrade case) never conflicts
                // with its request.
                let compatible = match mode {
                    LockMode::Shared => locks
                        .holders
                        .iter()
                        .all(|(t, m)| *t == waiter || *m == LockMode::Shared),
                    LockMode::Exclusive => locks.holders.keys().all(|t| *t == waiter),
                };
                if !compatible {
                    break;
                }
                locks.waiters.remove(0);
                locks.holders.insert(waiter, mode);
                woken.push(waiter);
            }
        }
        for w in &woken {
            self.waits_for.remove(w);
        }
        self.items
            .retain(|_, l| !l.holders.is_empty() || !l.waiters.is_empty());
        woken
    }

    fn find_cycle(&self, start: TxId) -> Option<Vec<TxId>> {
        // DFS from start following waits-for edges, looking for a path
        // back to start.
        let mut stack = vec![(start, vec![start])];
        let mut visited = BTreeSet::new();
        while let Some((node, path)) = stack.pop() {
            for &next in self.waits_for.get(&node).into_iter().flatten() {
                if next == start {
                    return Some(path);
                }
                if visited.insert(next) {
                    let mut p = path.clone();
                    p.push(next);
                    stack.push((next, p));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Current holders of an item's locks.
    fn holders(lm: &LockManager, item: &str) -> Vec<(TxId, LockMode)> {
        lm.items
            .get(item)
            .map(|l| l.holders.iter().map(|(t, m)| (*t, *m)).collect())
            .unwrap_or_default()
    }

    /// Whether `tx` holds `item` in at least `mode`.
    fn holds(lm: &LockManager, tx: TxId, item: &str, mode: LockMode) -> bool {
        let strong_enough = |held| mode == LockMode::Shared || held == LockMode::Exclusive;
        holders(lm, item)
            .iter()
            .any(|&(t, held)| t == tx && strong_enough(held))
    }

    const T1: TxId = TxId::new(1);
    const T2: TxId = TxId::new(2);
    const T3: TxId = TxId::new(3);

    #[test]
    fn shared_locks_are_compatible() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(T1, "x", LockMode::Shared), LockOutcome::Granted);
        assert_eq!(lm.acquire(T2, "x", LockMode::Shared), LockOutcome::Granted);
        assert!(holds(&lm, T1, "x", LockMode::Shared));
        assert!(!holds(&lm, T1, "x", LockMode::Exclusive));
    }

    #[test]
    fn exclusive_conflicts_queue() {
        let mut lm = LockManager::new();
        assert_eq!(
            lm.acquire(T1, "x", LockMode::Exclusive),
            LockOutcome::Granted
        );
        match lm.acquire(T2, "x", LockMode::Shared) {
            LockOutcome::Wait { blockers } => assert_eq!(blockers, vec![T1]),
            other => panic!("expected wait, got {other:?}"),
        }
        // Release grants the waiter.
        let woken = lm.release_all(T1);
        assert_eq!(woken, vec![T2]);
        assert!(holds(&lm, T2, "x", LockMode::Shared));
    }

    #[test]
    fn reacquire_and_upgrade() {
        let mut lm = LockManager::new();
        assert_eq!(lm.acquire(T1, "x", LockMode::Shared), LockOutcome::Granted);
        assert_eq!(lm.acquire(T1, "x", LockMode::Shared), LockOutcome::Granted);
        // Sole-holder upgrade succeeds.
        assert_eq!(
            lm.acquire(T1, "x", LockMode::Exclusive),
            LockOutcome::Granted
        );
        assert!(holds(&lm, T1, "x", LockMode::Exclusive));
        // Exclusive holder may "downgrade-request" shared: still granted.
        assert_eq!(lm.acquire(T1, "x", LockMode::Shared), LockOutcome::Granted);
        assert!(holds(&lm, T1, "x", LockMode::Exclusive));
    }

    #[test]
    fn upgrade_with_other_holders_waits() {
        let mut lm = LockManager::new();
        lm.acquire(T1, "x", LockMode::Shared);
        lm.acquire(T2, "x", LockMode::Shared);
        match lm.acquire(T1, "x", LockMode::Exclusive) {
            LockOutcome::Wait { blockers } => assert_eq!(blockers, vec![T2]),
            other => panic!("expected wait, got {other:?}"),
        }
        lm.release_all(T2);
        // T1's queued upgrade is granted on release.
        assert!(holds(&lm, T1, "x", LockMode::Exclusive));
    }

    #[test]
    fn deadlock_is_detected() {
        let mut lm = LockManager::new();
        lm.acquire(T1, "x", LockMode::Exclusive);
        lm.acquire(T2, "y", LockMode::Exclusive);
        assert!(matches!(
            lm.acquire(T1, "y", LockMode::Exclusive),
            LockOutcome::Wait { .. }
        ));
        match lm.acquire(T2, "x", LockMode::Exclusive) {
            LockOutcome::Deadlock { cycle } => assert!(cycle.contains(&T2)),
            other => panic!("expected deadlock, got {other:?}"),
        }
        // T2 aborts; T1 proceeds.
        let woken = lm.release_all(T2);
        assert_eq!(woken, vec![T1]);
        assert!(holds(&lm, T1, "y", LockMode::Exclusive));
    }

    #[test]
    fn three_party_deadlock() {
        let mut lm = LockManager::new();
        lm.acquire(T1, "a", LockMode::Exclusive);
        lm.acquire(T2, "b", LockMode::Exclusive);
        lm.acquire(T3, "c", LockMode::Exclusive);
        assert!(matches!(
            lm.acquire(T1, "b", LockMode::Exclusive),
            LockOutcome::Wait { .. }
        ));
        assert!(matches!(
            lm.acquire(T2, "c", LockMode::Exclusive),
            LockOutcome::Wait { .. }
        ));
        assert!(matches!(
            lm.acquire(T3, "a", LockMode::Exclusive),
            LockOutcome::Deadlock { .. }
        ));
    }

    #[test]
    fn fifo_prevents_writer_starvation() {
        let mut lm = LockManager::new();
        lm.acquire(T1, "x", LockMode::Shared);
        // Writer queues.
        assert!(matches!(
            lm.acquire(T2, "x", LockMode::Exclusive),
            LockOutcome::Wait { .. }
        ));
        // A later reader must queue behind the writer, not sneak in.
        assert!(matches!(
            lm.acquire(T3, "x", LockMode::Shared),
            LockOutcome::Wait { .. }
        ));
        let woken = lm.release_all(T1);
        assert_eq!(woken, vec![T2]);
        assert!(holds(&lm, T2, "x", LockMode::Exclusive));
        let woken = lm.release_all(T2);
        assert_eq!(woken, vec![T3]);
    }

    #[test]
    fn release_all_is_idempotent_and_cleans_up() {
        let mut lm = LockManager::new();
        lm.acquire(T1, "x", LockMode::Exclusive);
        lm.release_all(T1);
        assert!(lm.release_all(T1).is_empty());
        assert!(holders(&lm, "x").is_empty());
    }

    #[derive(Debug, Clone)]
    enum LockOp {
        Acquire { tx: u8, item: u8, exclusive: bool },
        Release { tx: u8 },
    }

    fn arb_lock_ops() -> impl Strategy<Value = Vec<LockOp>> {
        proptest::collection::vec(
            prop_oneof![
                (0u8..6, 0u8..4, any::<bool>()).prop_map(|(tx, item, exclusive)| {
                    LockOp::Acquire {
                        tx,
                        item,
                        exclusive,
                    }
                }),
                (0u8..6).prop_map(|tx| LockOp::Release { tx }),
            ],
            1..60,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Safety: at no point do two transactions hold conflicting locks.
        #[test]
        fn lock_manager_never_grants_conflicts(ops in arb_lock_ops()) {
            let mut lm = LockManager::new();
            for op in ops {
                match op {
                    LockOp::Acquire { tx, item, exclusive } => {
                        let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                        let _ = lm.acquire(TxId::new(tx as u64 + 1), &format!("i{item}"), mode);
                    }
                    LockOp::Release { tx } => {
                        lm.release_all(TxId::new(tx as u64 + 1));
                    }
                }
                for item in 0..4u8 {
                    let holders = holders(&lm, &format!("i{item}"));
                    let exclusives = holders
                        .iter()
                        .filter(|(_, m)| *m == LockMode::Exclusive)
                        .count();
                    prop_assert!(exclusives <= 1, "two exclusive holders on i{}", item);
                    if exclusives == 1 {
                        prop_assert_eq!(holders.len(), 1, "exclusive shared with others on i{}", item);
                    }
                }
            }
        }
    }
}
