//! Property tests for the transaction function: log replayability,
//! conservation under random transactional workloads, and 2PC atomicity
//! under message loss. Lock safety is `lock.rs`'s own property test.

use proptest::prelude::*;

use rmodp_core::id::TxId;
use rmodp_core::value::Value;
use rmodp_netsim::sim::{Addr, Sim};
use rmodp_netsim::time::SimDuration;
use rmodp_netsim::topology::{LinkConfig, Topology};
use rmodp_transactions::rm::{ResourceManager, RmError, TxProfile};
use rmodp_transactions::twopc::{Coordinator, Participant, TxOutcome, TxRequest};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Durability: after any sequence of committed/aborted transactions,
    /// crash + recover reproduces exactly the committed state.
    #[test]
    fn recovery_reproduces_committed_state(
        txs in proptest::collection::vec(
            (proptest::collection::vec((0u8..5, -100i64..100), 1..4), any::<bool>()),
            1..20,
        )
    ) {
        let mut rm = ResourceManager::new("p", TxProfile::acid());
        let mut expected = std::collections::BTreeMap::new();
        for (writes, commit) in txs {
            let tx = rm.begin();
            let mut ok = true;
            let mut staged = Vec::new();
            for (key, val) in writes {
                let item = format!("k{key}");
                match rm.write(tx, &item, Value::Int(val)) {
                    Ok(()) => staged.push((item, val)),
                    Err(_) => { ok = false; break; }
                }
            }
            if ok && commit {
                rm.commit(tx).unwrap();
                for (item, val) in staged {
                    expected.insert(item, val);
                }
            } else {
                let _ = rm.abort(tx);
            }
        }
        rm.crash();
        rm.recover();
        for (item, val) in &expected {
            prop_assert_eq!(rm.read_committed(item), Some(Value::Int(*val)), "{}", item);
        }
    }

    /// Isolation + atomicity: random interleaved transfers (some aborted)
    /// conserve the total.
    #[test]
    fn conservation_under_random_transfers(
        transfers in proptest::collection::vec((0u8..4, 0u8..4, 1i64..50, any::<bool>()), 1..30)
    ) {
        let mut rm = ResourceManager::new("bank", TxProfile::acid());
        let seed_tx = rm.begin();
        for i in 0..4u8 {
            rm.write(seed_tx, &format!("a{i}"), Value::Int(250)).unwrap();
        }
        rm.commit(seed_tx).unwrap();

        for (from, to, amount, abort) in transfers {
            if from == to { continue; }
            let tx = rm.begin();
            let run = (|| -> Result<(), RmError> {
                let f = format!("a{from}");
                let t = format!("a{to}");
                let fb = rm.read(tx, &f)?.and_then(|v| v.as_int()).unwrap_or(0);
                let tb = rm.read(tx, &t)?.and_then(|v| v.as_int()).unwrap_or(0);
                if fb < amount {
                    return Err(RmError::NotActive { tx }); // treated as failure
                }
                rm.write(tx, &f, Value::Int(fb - amount))?;
                rm.write(tx, &t, Value::Int(tb + amount))?;
                Ok(())
            })();
            if run.is_ok() && !abort {
                rm.commit(tx).unwrap();
            } else {
                let _ = rm.abort(tx);
            }
        }
        let total: i64 = (0..4u8)
            .map(|i| rm.read_committed(&format!("a{i}")).unwrap().as_int().unwrap())
            .sum();
        prop_assert_eq!(total, 1_000);
    }

    /// 2PC atomicity under random message loss: when the protocol
    /// terminates, either every participant committed the write or none
    /// did.
    #[test]
    fn two_phase_commit_is_atomic_under_loss(
        seed in 0u64..300,
        loss_permille in 0u16..500,
        participants in 2usize..5,
    ) {
        let link = LinkConfig::with_latency(SimDuration::from_millis(1))
            .loss(loss_permille as f64 / 1_000.0);
        let mut sim = Sim::with_topology(seed, Topology::full_mesh(link));
        let coord_node = sim.add_node();
        let coord = Addr::new(coord_node, 0);
        let mut parts = Vec::new();
        for i in 0..participants {
            let node = sim.add_node();
            let addr = Addr::new(node, 0);
            sim.attach(addr, Participant::new(format!("rm{i}")));
            parts.push(addr);
        }
        sim.attach(coord, Coordinator::new(parts.clone(), SimDuration::from_millis(20), 6));
        let request = TxRequest {
            writes: (0..participants).map(|p| (p, "x".to_owned(), Value::Int(7))).collect(),
        };
        let payload = Coordinator::submit_payload(TxId::new(1), &request);
        sim.send_from(Addr::EXTERNAL, coord, payload);
        sim.run_until_idle();

        let outcome = sim
            .inspect::<Coordinator>(coord)
            .unwrap()
            .outcome(TxId::new(1))
            .unwrap_or(TxOutcome::Pending);
        let committed: Vec<bool> = parts
            .iter()
            .map(|p| {
                sim.inspect::<Participant>(*p)
                    .unwrap()
                    .rm
                    .read_committed("x")
                    .is_some()
            })
            .collect();
        match outcome {
            TxOutcome::Committed => {
                // Commit decisions retransmit; with finite retries a
                // participant may be left in doubt, but no participant
                // may have *aborted* the write. Committed-at-some means
                // committed-or-in-doubt at all.
                for (i, p) in parts.iter().enumerate() {
                    let part = sim.inspect::<Participant>(*p).unwrap();
                    prop_assert!(
                        committed[i] || part.rm.is_prepared(TxId::new(1)),
                        "participant {} neither committed nor in doubt after global commit", i
                    );
                }
            }
            TxOutcome::Aborted | TxOutcome::Pending => {
                prop_assert!(
                    committed.iter().all(|c| !c),
                    "a participant committed despite global {:?}", outcome
                );
            }
        }
    }
}
