//! Crash-at-every-prefix for the resource manager: truncate the log's
//! medium at *each byte* and check that recovery yields exactly the
//! committed prefix and exactly the in-doubt transactions of that prefix.
//!
//! The resource manager recovers through the same frames, scan and
//! classification as the store engine (`rmodp-store`'s `crash_prefix`
//! test is this property's twin), so a torn or damaged tail is dropped,
//! never misread, here too.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use rmodp_core::id::TxId;
use rmodp_core::value::Value;
use rmodp_transactions::log::{decode_frames, encode_frame, LogRecord, StableMedia};
use rmodp_transactions::rm::{ResourceManager, TxProfile};

const ITEMS: u8 = 4;

/// One step of a history. `slot` picks among the transactions begun so
/// far; a step the manager refuses (finished or prepared transaction,
/// lock wait, deadlock) is simply part of the history.
#[derive(Debug, Clone)]
enum Step {
    Begin,
    Write { slot: u8, item: u8, value: i64 },
    Prepare { slot: u8 },
    Commit { slot: u8 },
    Abort { slot: u8 },
}

fn write(slot: u8, item: u8, value: i64) -> Step {
    Step::Write { slot, item, value }
}

fn arb_history() -> impl Strategy<Value = Vec<Step>> {
    let arb_write = || (0u8..8, 0u8..ITEMS, -100i64..100).prop_map(|(s, i, v)| write(s, i, v));
    proptest::collection::vec(
        prop_oneof![
            Just(Step::Begin),
            // Twice: a history is mostly writes.
            arb_write(),
            arb_write(),
            (0u8..8).prop_map(|slot| Step::Prepare { slot }),
            (0u8..8).prop_map(|slot| Step::Commit { slot }),
            (0u8..8).prop_map(|slot| Step::Abort { slot }),
        ],
        1..40,
    )
}

fn item(i: u8) -> String {
    format!("i{i}")
}

fn run(history: &[Step]) -> ResourceManager {
    let mut rm = ResourceManager::new("crash", TxProfile::acid());
    let mut begun: Vec<TxId> = Vec::new();
    let pick = |begun: &[TxId], slot: u8| begun.get(slot as usize % begun.len().max(1)).copied();
    for step in history {
        match *step {
            Step::Begin => begun.push(rm.begin()),
            Step::Write {
                slot,
                item: i,
                value,
            } => {
                if let Some(tx) = pick(&begun, slot) {
                    let _ = rm.write(tx, &item(i), Value::Int(value));
                }
            }
            Step::Prepare { slot } => {
                if let Some(tx) = pick(&begun, slot) {
                    let _ = rm.prepare(tx);
                }
            }
            Step::Commit { slot } => {
                if let Some(tx) = pick(&begun, slot) {
                    let _ = rm.commit(tx);
                }
            }
            Step::Abort { slot } => {
                if let Some(tx) = pick(&begun, slot) {
                    let _ = rm.abort(tx);
                }
            }
        }
    }
    rm
}

/// What a log prefix promises, worked out the slow way and without the
/// crate's own classification: the committed state, and each unresolved
/// prepared transaction with the writes a later commit must apply.
type Expected = (
    BTreeMap<String, Value>,
    BTreeMap<TxId, Vec<(String, Value)>>,
);

fn expected(prefix: &[LogRecord]) -> Expected {
    let has = |wanted: &LogRecord| prefix.contains(wanted);
    let mut state = BTreeMap::new();
    let mut in_doubt: BTreeMap<TxId, Vec<(String, Value)>> = BTreeMap::new();
    let txs: BTreeSet<TxId> = prefix.iter().map(LogRecord::tx).collect();
    for tx in txs {
        let resolved = has(&LogRecord::Commit { tx }) || has(&LogRecord::Abort { tx });
        if has(&LogRecord::Prepare { tx }) && !resolved {
            in_doubt.insert(tx, Vec::new());
        }
    }
    for record in prefix {
        if let LogRecord::Write {
            tx, item, after, ..
        } = record
        {
            if has(&LogRecord::Commit { tx: *tx }) {
                state.insert(item.clone(), after.clone());
            }
            if let Some(writes) = in_doubt.get_mut(tx) {
                writes.push((item.clone(), after.clone()));
            }
        }
    }
    (state, in_doubt)
}

fn assert_every_prefix_recovers(history: &[Step]) {
    let mut rm = run(history);
    rm.media_mut().sync();
    let full = rm.media_mut().clone();
    let decoded = decode_frames(full.wal_bytes());
    assert!(!decoded.truncated_tail, "the manager writes whole frames");
    let mut boundaries = vec![0usize];
    for record in &decoded.records {
        boundaries.push(boundaries.last().unwrap() + encode_frame(record).len());
    }
    let total = full.wal_len();
    assert_eq!(*boundaries.last().unwrap(), total);

    for cut in 0..=total {
        let media = rm.media_mut();
        *media = full.clone();
        media.truncate_wal(cut);
        rm.crash();
        rm.recover();

        let whole_frames = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        let (state, in_doubt) = expected(&decoded.records[..whole_frames]);
        for i in 0..ITEMS {
            assert_eq!(
                rm.read_committed(&item(i)),
                state.get(&item(i)).cloned(),
                "cut at byte {cut}/{total}: {} must hold the committed prefix",
                item(i)
            );
        }
        assert_eq!(
            rm.in_doubt(),
            in_doubt.keys().copied().collect(),
            "cut at byte {cut}/{total}: in-doubt set"
        );
        // The decision arrives: an in-doubt transaction's writes were
        // rebuilt from the log and commit now.
        if let Some((tx, writes)) = in_doubt.first_key_value() {
            rm.commit(*tx).unwrap();
            let mut after = state.clone();
            after.extend(writes.iter().cloned());
            for i in 0..ITEMS {
                assert_eq!(
                    rm.read_committed(&item(i)),
                    after.get(&item(i)).cloned(),
                    "cut at byte {cut}/{total}: {tx} committed after recovery"
                );
            }
        }
        // Whatever the cut tore, what commits after recovery survives the
        // next crash: the torn tail was cut off the medium, so the new
        // frames sit behind whole frames and the next scan reaches them.
        let tx = rm.begin();
        rm.write(tx, "after-crash", Value::Int(cut as i64)).unwrap();
        rm.commit(tx).unwrap();
        rm.crash();
        rm.recover();
        assert_eq!(
            rm.read_committed("after-crash"),
            Some(Value::Int(cut as i64)),
            "cut at byte {cut}/{total}: a commit after recovery must survive the next crash"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn recovery_equals_committed_prefix_at_every_byte(history in arb_history()) {
        assert_every_prefix_recovers(&history);
    }
}

#[test]
fn recovery_equals_committed_prefix_for_a_dense_history() {
    // Deterministic exhaustive case: a committed overwrite, an abort, a
    // prepared transaction left in doubt, one prepared then committed,
    // and an active one that never resolves.
    use Step::{Abort, Begin, Commit, Prepare};
    let history = vec![
        Begin, // slot 0
        write(0, 0, 1),
        write(0, 1, 2),
        Commit { slot: 0 },
        Begin, // slot 1
        write(1, 0, 10),
        Abort { slot: 1 },
        Begin, // slot 2
        write(2, 2, 3),
        Prepare { slot: 2 },
        Begin, // slot 3
        write(3, 0, -5),
        Prepare { slot: 3 },
        Commit { slot: 3 },
        Begin, // slot 4
        write(4, 3, 4),
    ];
    assert_every_prefix_recovers(&history);
}
