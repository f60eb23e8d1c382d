//! Two-phase commit over the simulated network.
//!
//! The coordinator and participants are simulator processes exchanging
//! PREPARE / VOTE / COMMIT / ABORT / ACK messages, with retransmission on
//! timeout. Participants wrap a [`ResourceManager`]; crash injection uses
//! the simulator's topology plus the manager's `crash`/`recover`.

use std::collections::{BTreeMap, BTreeSet};

use rmodp_core::codec::{syntax_for, SyntaxId};
use rmodp_core::id::TxId;
use rmodp_core::value::Value;
use rmodp_netsim::sim::{Addr, Ctx, Message, Process, TimerId};
use rmodp_netsim::time::SimDuration;
use rmodp_observe::{bus, event, EventKind, Layer};

use crate::rm::{ResourceManager, TxProfile};

/// One distributed transaction request: writes assigned to participants
/// by index.
#[derive(Debug, Clone, PartialEq)]
pub struct TxRequest {
    /// `(participant index, item, value)` triples.
    pub writes: Vec<(usize, String, Value)>,
}

/// The fate of a distributed transaction as known to the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOutcome {
    /// Still running the protocol.
    Pending,
    /// All participants voted yes and were told to commit.
    Committed,
    /// Some participant voted no, timed out, or the transaction was
    /// abandoned.
    Aborted,
}

fn encode(v: &Value) -> Vec<u8> {
    syntax_for(SyntaxId::Binary).encode(v)
}

fn decode(bytes: &[u8]) -> Option<Value> {
    syntax_for(SyntaxId::Binary).decode(bytes).ok()
}

fn msg(kind: &str, tx: TxId, extra: Vec<(&str, Value)>) -> Vec<u8> {
    let mut fields = vec![
        ("t", Value::text(kind)),
        ("tx", Value::Int(tx.raw() as i64)),
    ];
    fields.extend(extra);
    encode(&Value::record(fields))
}

fn msg_tx(v: &Value) -> Option<TxId> {
    Some(TxId::new(v.field("tx")?.as_int()? as u64))
}

#[derive(Debug)]
struct TxProgress {
    request: TxRequest,
    votes: BTreeMap<Addr, bool>,
    decided: Option<bool>,
    acked: BTreeSet<Addr>,
    attempts: u32,
    outcome: TxOutcome,
    /// The one retransmission timer armed for this transaction.
    timer: Option<TimerId>,
}

/// The two-phase-commit coordinator process.
#[derive(Debug)]
pub struct Coordinator {
    participants: Vec<Addr>,
    retry_after: SimDuration,
    max_attempts: u32,
    transactions: BTreeMap<TxId, TxProgress>,
}

impl Coordinator {
    /// Creates a coordinator for a fixed participant group.
    pub fn new(participants: Vec<Addr>, retry_after: SimDuration, max_attempts: u32) -> Self {
        Self {
            participants,
            retry_after,
            max_attempts,
            transactions: BTreeMap::new(),
        }
    }

    /// The outcome of a transaction, if the coordinator has seen it.
    pub fn outcome(&self, tx: TxId) -> Option<TxOutcome> {
        self.transactions.get(&tx).map(|p| p.outcome)
    }

    /// Serialises a client submission for [`Process::on_message`]; send
    /// this payload to the coordinator's address to start a transaction.
    pub fn submit_payload(tx: TxId, request: &TxRequest) -> Vec<u8> {
        let writes = Value::Seq(
            request
                .writes
                .iter()
                .map(|(p, item, value)| {
                    Value::record([
                        ("p", Value::Int(*p as i64)),
                        ("item", Value::text(item.clone())),
                        ("value", value.clone()),
                    ])
                })
                .collect(),
        );
        msg("submit", tx, vec![("writes", writes)])
    }

    fn writes_for(&self, tx: TxId, participant: usize) -> Value {
        let progress = &self.transactions[&tx];
        Value::record(
            progress
                .request
                .writes
                .iter()
                .filter(|(p, _, _)| *p == participant)
                .map(|(_, item, value)| (item.clone(), value.clone())),
        )
    }

    fn send_prepares(&mut self, ctx: &mut Ctx<'_>, tx: TxId) {
        for (i, addr) in self.participants.clone().iter().enumerate() {
            if self.transactions[&tx].votes.contains_key(addr) {
                continue;
            }
            event(Layer::Transactions, EventKind::TxPrepare)
                .in_context()
                .node(addr.node.0 as u64)
                .port(addr.port as u64)
                .detail_fmt(format_args!("{tx} prepare -> participant {i}"))
                .emit();
            bus::counter_add("transactions.prepares", 1);
            let writes = self.writes_for(tx, i);
            ctx.send(*addr, msg("prepare", tx, vec![("writes", writes)]));
        }
        self.arm(ctx, tx);
    }

    fn send_decision(&mut self, ctx: &mut Ctx<'_>, tx: TxId, commit: bool) {
        let kind = if commit { "commit" } else { "abort" };
        for addr in self.participants.clone() {
            if self.transactions[&tx].acked.contains(&addr) {
                continue;
            }
            ctx.send(addr, msg(kind, tx, vec![]));
        }
        self.arm(ctx, tx);
    }

    /// Arms `tx`'s retransmission timer, cancelling the one it replaces.
    fn arm(&mut self, ctx: &mut Ctx<'_>, tx: TxId) {
        let timer = ctx.set_timer(self.retry_after, tx.raw());
        let progress = self.transactions.get_mut(&tx).expect("known tx");
        if let Some(old) = progress.timer.replace(timer) {
            ctx.cancel_timer(old);
        }
    }

    fn decide(&mut self, ctx: &mut Ctx<'_>, tx: TxId, commit: bool) {
        let progress = self.transactions.get_mut(&tx).expect("known tx");
        if progress.decided.is_some() {
            return;
        }
        progress.decided = Some(commit);
        progress.attempts = 0;
        progress.outcome = if commit {
            TxOutcome::Committed
        } else {
            TxOutcome::Aborted
        };
        let kind = if commit {
            EventKind::TxCommit
        } else {
            EventKind::TxAbort
        };
        let votes = progress.votes.len();
        event(Layer::Transactions, kind)
            .in_context()
            .detail_fmt(format_args!("{tx} decided with {votes} vote(s) in"))
            .emit();
        bus::counter_add(
            if commit {
                "transactions.commits"
            } else {
                "transactions.aborts"
            },
            1,
        );
        ctx.note(|| format!("{tx} decided {}", if commit { "commit" } else { "abort" }));
        self.send_decision(ctx, tx, commit);
    }
}

impl Process for Coordinator {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, m: Message) {
        let Some(v) = decode(&m.payload) else { return };
        let Some(kind) = v.field("t").and_then(Value::as_text).map(str::to_owned) else {
            return;
        };
        let Some(tx) = msg_tx(&v) else { return };
        match kind.as_str() {
            "submit" => {
                if self.transactions.contains_key(&tx) {
                    return;
                }
                let writes = v
                    .field("writes")
                    .and_then(Value::as_seq)
                    .map(|items| {
                        items
                            .iter()
                            .filter_map(|w| {
                                Some((
                                    w.field("p")?.as_int()? as usize,
                                    w.field("item")?.as_text()?.to_owned(),
                                    w.field("value")?.clone(),
                                ))
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                self.transactions.insert(
                    tx,
                    TxProgress {
                        request: TxRequest { writes },
                        votes: BTreeMap::new(),
                        decided: None,
                        acked: BTreeSet::new(),
                        attempts: 0,
                        outcome: TxOutcome::Pending,
                        timer: None,
                    },
                );
                self.send_prepares(ctx, tx);
            }
            "vote" => {
                let yes = v.field("yes").and_then(Value::as_bool).unwrap_or(false);
                let Some(progress) = self.transactions.get_mut(&tx) else {
                    return;
                };
                if progress.decided.is_some() {
                    return;
                }
                progress.votes.insert(m.src, yes);
                event(Layer::Transactions, EventKind::TxVote)
                    .in_context()
                    .node(m.src.node.0 as u64)
                    .port(m.src.port as u64)
                    .detail_fmt(format_args!("{tx} vote yes={yes}"))
                    .emit();
                bus::counter_add("transactions.votes", 1);
                if !yes {
                    self.decide(ctx, tx, false);
                } else if self
                    .participants
                    .iter()
                    .all(|p| self.transactions[&tx].votes.get(p) == Some(&true))
                {
                    self.decide(ctx, tx, true);
                }
            }
            "ack" => {
                let Some(progress) = self.transactions.get_mut(&tx) else {
                    return;
                };
                progress.acked.insert(m.src);
                if progress.acked.len() >= self.participants.len() {
                    if let Some(timer) = progress.timer.take() {
                        ctx.cancel_timer(timer);
                    }
                    ctx.note(|| format!("{tx} fully acknowledged"));
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        let tx = TxId::new(tag);
        let Some(progress) = self.transactions.get_mut(&tx) else {
            return;
        };
        progress.timer = None;
        match progress.decided {
            None => {
                progress.attempts += 1;
                if progress.attempts >= self.max_attempts {
                    // Presumed abort after too many silent rounds.
                    self.decide(ctx, tx, false);
                } else {
                    self.send_prepares(ctx, tx);
                }
            }
            Some(commit) => {
                if progress.acked.len() < self.participants.len() {
                    progress.attempts += 1;
                    if progress.attempts < self.max_attempts * 4 {
                        self.send_decision(ctx, tx, commit);
                    }
                    // Past that, give up retransmitting; recovered
                    // participants resolve in-doubt state by asking.
                }
            }
        }
    }
}

/// A two-phase-commit participant wrapping a [`ResourceManager`].
#[derive(Debug)]
pub struct Participant {
    /// The transactional store (public so tests can crash/recover it).
    pub rm: ResourceManager,
    /// Decisions already applied (for idempotent re-acks).
    applied: BTreeMap<TxId, bool>,
}

impl Participant {
    /// Creates a participant with an ACID resource manager.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            rm: ResourceManager::new(name, TxProfile::acid()),
            applied: BTreeMap::new(),
        }
    }
}

impl Process for Participant {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, m: Message) {
        let Some(v) = decode(&m.payload) else { return };
        let Some(kind) = v.field("t").and_then(Value::as_text).map(str::to_owned) else {
            return;
        };
        let Some(tx) = msg_tx(&v) else { return };
        match kind.as_str() {
            "prepare" => {
                if let Some(&committed) = self.applied.get(&tx) {
                    // Already resolved: repeat the (implied) vote.
                    ctx.send(
                        m.src,
                        msg("vote", tx, vec![("yes", Value::Bool(committed))]),
                    );
                    return;
                }
                if self.rm.is_prepared(tx) {
                    ctx.send(m.src, msg("vote", tx, vec![("yes", Value::Bool(true))]));
                    return;
                }
                self.rm.begin_with_id(tx);
                let mut ok = true;
                if let Some(writes) = v.field("writes").and_then(Value::as_record) {
                    for (item, value) in writes {
                        if self.rm.write(tx, item, value.clone()).is_err() {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok && self.rm.prepare(tx).is_ok() {
                    ctx.send(m.src, msg("vote", tx, vec![("yes", Value::Bool(true))]));
                } else {
                    self.rm.abort(tx).ok();
                    self.applied.insert(tx, false);
                    ctx.send(m.src, msg("vote", tx, vec![("yes", Value::Bool(false))]));
                }
            }
            "commit" | "abort" => {
                let commit = kind == "commit";
                if self.applied.insert(tx, commit).is_none() {
                    if commit {
                        self.rm.commit(tx).ok();
                    } else {
                        self.rm.abort(tx).ok();
                    }
                }
                ctx.send(m.src, msg("ack", tx, vec![]));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmodp_netsim::sim::Sim;
    use rmodp_netsim::topology::{LinkConfig, Topology};

    struct Net {
        sim: Sim,
        coord: Addr,
        parts: Vec<Addr>,
    }

    fn build(seed: u64, n: usize, link: LinkConfig) -> Net {
        let mut sim = Sim::with_topology(seed, Topology::full_mesh(link));
        let coord_node = sim.add_node();
        let coord = Addr::new(coord_node, 0);
        let mut parts = Vec::new();
        for i in 0..n {
            let node = sim.add_node();
            let addr = Addr::new(node, 0);
            sim.attach(addr, Participant::new(format!("rm{i}")));
            parts.push(addr);
        }
        sim.attach(
            coord,
            Coordinator::new(parts.clone(), SimDuration::from_millis(20), 5),
        );
        Net { sim, coord, parts }
    }

    fn submit(net: &mut Net, tx: u64, writes: Vec<(usize, &str, i64)>) {
        let request = TxRequest {
            writes: writes
                .into_iter()
                .map(|(p, item, v)| (p, item.to_owned(), Value::Int(v)))
                .collect(),
        };
        let payload = Coordinator::submit_payload(TxId::new(tx), &request);
        net.sim.send_from(Addr::EXTERNAL, net.coord, payload);
    }

    fn outcome(net: &Net, tx: u64) -> TxOutcome {
        net.sim
            .inspect::<Coordinator>(net.coord)
            .unwrap()
            .outcome(TxId::new(tx))
            .unwrap_or(TxOutcome::Pending)
    }

    fn committed(net: &Net, p: usize, item: &str) -> Option<Value> {
        net.sim
            .inspect::<Participant>(net.parts[p])
            .unwrap()
            .rm
            .read_committed(item)
    }

    #[test]
    fn happy_path_commits_everywhere() {
        let mut net = build(1, 3, LinkConfig::with_latency(SimDuration::from_millis(1)));
        submit(&mut net, 1, vec![(0, "x", 10), (1, "y", 20), (2, "z", 30)]);
        net.sim.run_until_idle();
        assert_eq!(outcome(&net, 1), TxOutcome::Committed);
        assert_eq!(committed(&net, 0, "x"), Some(Value::Int(10)));
        assert_eq!(committed(&net, 1, "y"), Some(Value::Int(20)));
        assert_eq!(committed(&net, 2, "z"), Some(Value::Int(30)));
    }

    #[test]
    fn a_clean_round_leaves_no_timer_behind() {
        let mut net = build(8, 3, LinkConfig::with_latency(SimDuration::from_millis(1)));
        submit(&mut net, 1, vec![(0, "x", 1), (1, "y", 2), (2, "z", 3)]);
        let acked = |net: &Net| {
            let coordinator = net.sim.inspect::<Coordinator>(net.coord).unwrap();
            let progress = coordinator.transactions.get(&TxId::new(1));
            progress.map_or(0, |p| p.acked.len())
        };
        while acked(&net) < 3 {
            assert!(net.sim.step(), "the round ends with every ack in");
        }
        let done = net.sim.now();
        assert!(!net.sim.step(), "no timer is left armed");
        assert_eq!(net.sim.now(), done);
    }

    #[test]
    fn crashed_participant_forces_abort_and_atomicity_holds() {
        let mut net = build(2, 3, LinkConfig::with_latency(SimDuration::from_millis(1)));
        // Participant 2's node is down before the transaction starts.
        net.sim.topology_mut().crash(net.parts[2].node);
        submit(&mut net, 1, vec![(0, "x", 10), (2, "z", 30)]);
        net.sim.run_until_idle();
        assert_eq!(outcome(&net, 1), TxOutcome::Aborted);
        // Atomicity: the reachable participant must not have committed.
        assert_eq!(committed(&net, 0, "x"), None);
    }

    #[test]
    fn message_loss_is_masked_by_retransmission() {
        let link = LinkConfig::with_latency(SimDuration::from_millis(1)).loss(0.4);
        let mut net = build(3, 3, link);
        submit(&mut net, 1, vec![(0, "x", 1), (1, "y", 2), (2, "z", 3)]);
        net.sim.run_until_idle();
        assert_eq!(outcome(&net, 1), TxOutcome::Committed);
        for (p, item, v) in [(0, "x", 1), (1, "y", 2), (2, "z", 3)] {
            assert_eq!(committed(&net, p, item), Some(Value::Int(v)));
        }
    }

    #[test]
    fn participant_crash_after_prepare_is_in_doubt_then_resolved() {
        let mut net = build(4, 2, LinkConfig::with_latency(SimDuration::from_millis(1)));
        submit(&mut net, 1, vec![(0, "x", 10), (1, "y", 20)]);
        net.sim.run_until_idle();
        assert_eq!(outcome(&net, 1), TxOutcome::Committed);

        // Participant 1 crashes and loses volatile state; the stable log
        // survives and recovery restores the committed value.
        let p1 = net.parts[1];
        net.sim.topology_mut().crash(p1.node);
        {
            let part = net.sim.inspect_mut::<Participant>(p1).unwrap();
            part.rm.crash();
            part.rm.recover();
        }
        net.sim.topology_mut().restart(p1.node);
        assert_eq!(committed(&net, 1, "y"), Some(Value::Int(20)));
    }

    #[test]
    fn client_ids_past_i64_max_survive_a_participant_crash() {
        let mut net = build(7, 2, LinkConfig::with_latency(SimDuration::from_millis(1)));
        for (tx, v) in [(1 << 63, 1), (u64::MAX, 2), (3, 3)] {
            submit(&mut net, tx, vec![(0, "x", v), (1, "y", v)]);
            net.sim.run_until_idle();
            assert_eq!(outcome(&net, tx), TxOutcome::Committed);
        }
        let p1 = net.parts[1];
        net.sim.topology_mut().crash(p1.node);
        {
            let part = net.sim.inspect_mut::<Participant>(p1).unwrap();
            part.rm.crash();
            part.rm.recover();
        }
        net.sim.topology_mut().restart(p1.node);
        // The last commit, logged behind the two high ids, is kept.
        assert_eq!(committed(&net, 1, "y"), Some(Value::Int(3)));
    }

    #[test]
    fn sequential_transactions_on_same_items() {
        let mut net = build(5, 2, LinkConfig::with_latency(SimDuration::from_millis(1)));
        submit(&mut net, 1, vec![(0, "x", 1), (1, "x", 1)]);
        net.sim.run_until_idle();
        submit(&mut net, 2, vec![(0, "x", 2), (1, "x", 2)]);
        net.sim.run_until_idle();
        assert_eq!(outcome(&net, 1), TxOutcome::Committed);
        assert_eq!(outcome(&net, 2), TxOutcome::Committed);
        assert_eq!(committed(&net, 0, "x"), Some(Value::Int(2)));
        assert_eq!(committed(&net, 1, "x"), Some(Value::Int(2)));
    }

    #[test]
    fn concurrent_conflicting_transactions_one_aborts_or_serialises() {
        let mut net = build(6, 2, LinkConfig::with_latency(SimDuration::from_millis(1)));
        // Both transactions write the same items on both participants.
        submit(&mut net, 1, vec![(0, "x", 1), (1, "y", 1)]);
        submit(&mut net, 2, vec![(0, "x", 2), (1, "y", 2)]);
        net.sim.run_until_idle();
        let o1 = outcome(&net, 1);
        let o2 = outcome(&net, 2);
        // At least one commits; atomicity holds for whatever committed:
        // both participants agree on each transaction's fate.
        assert!(
            o1 == TxOutcome::Committed || o2 == TxOutcome::Committed,
            "{o1:?} {o2:?}"
        );
        let x = committed(&net, 0, "x");
        let y = committed(&net, 1, "y");
        match (o1, o2) {
            (TxOutcome::Committed, TxOutcome::Committed) => {
                // Serialised: final values come from the same transaction.
                assert_eq!(x, y);
            }
            (TxOutcome::Committed, _) => {
                assert_eq!(x, Some(Value::Int(1)));
                assert_eq!(y, Some(Value::Int(1)));
            }
            (_, TxOutcome::Committed) => {
                assert_eq!(x, Some(Value::Int(2)));
                assert_eq!(y, Some(Value::Int(2)));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn deterministic_given_seed() {
        fn run(seed: u64) -> (TxOutcome, Option<Value>) {
            let link = LinkConfig::with_latency(SimDuration::from_millis(1)).loss(0.3);
            let mut net = build(seed, 3, link);
            submit(&mut net, 1, vec![(0, "x", 1), (1, "y", 2), (2, "z", 3)]);
            net.sim.run_until_idle();
            (outcome(&net, 1), committed(&net, 0, "x"))
        }
        assert_eq!(run(42), run(42));
    }
}
