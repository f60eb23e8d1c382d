//! `engine-call` and `engine-call-observed`: a closed loop of one client
//! calling the bank branch through `Engine::call`.
//!
//! Text-native client, binary wire, sequence binder, the reliable retry
//! policy on a clean link. The population path hand-builds envelopes and
//! never goes through `Engine`, the channel stack, the text codec or the
//! information-schema behaviour; this path does. The observed variant
//! makes the same calls with the observe bus recording into a ring.

use rmodp::bank::deployment::{deploy_branch, BankDeployment};
use rmodp::core::codec::{syntax_for, SyntaxId};
use rmodp::core::id::ChannelId;
use rmodp::core::value::Value;
use rmodp::engineering::channel::{ChannelConfig, RetryPolicy};
use rmodp::engineering::engine::Engine;
use rmodp::observe::bus;
use rmodp_kernel::rng::mix;

use super::{
    check_bus_silent, fnv1a, set_bus, PassOutcome, Pin, Size, TraceView, Workload, FNV_BASIS,
};
use crate::spans::span;
use crate::stats;

/// Accounts the branch holds; every call names one of them.
pub const ACCOUNTS: u64 = 64;

/// Ring the observed variant records into: the issue's 65,536 slots for
/// 40,000 calls, scaled to the calls of one short pass, so that a pass
/// still spends most of its emits evicting.
pub const RING_CAPACITY: usize = 4_096;

/// Opening balance: high enough that the seeded withdrawals run into the
/// daily limit (`NotToday`, a valid termination) before the balance.
const OPENING: i64 = 100_000;

/// The channel every call goes through.
pub fn channel_config() -> ChannelConfig {
    ChannelConfig {
        wire_syntax: SyntaxId::Binary,
        sequence: true,
        audit: false,
        retry: Some(RetryPolicy::reliable()),
        breaker: None,
    }
}

/// `Engine::call` on the bank branch; `OBSERVED` turns the bus on.
pub struct EngineCall<const OBSERVED: bool> {
    seed: u64,
    calls: Vec<(&'static str, Value)>,
}

/// A deployed branch with its accounts open and a client bound to it.
pub struct Rig {
    pub engine: Engine,
    pub branch: BankDeployment,
    pub channel: ChannelId,
}

/// Deploys the branch (binary-native server), adds a text-native client,
/// opens the channel and creates the accounts.
pub fn rig(seed: u64) -> Rig {
    let mut engine = Engine::new(seed);
    let branch = deploy_branch(&mut engine, SyntaxId::Binary).expect("fresh engine");
    let client = engine.add_node(SyntaxId::Text);
    let channel = engine
        .open_channel(client, branch.manager.interface, channel_config())
        .expect("client and interface exist");
    for customer in 1..=ACCOUNTS {
        let t = engine
            .call(
                channel,
                "CreateAccount",
                &Value::record([
                    ("c", Value::Int(customer as i64)),
                    ("opening", Value::Int(OPENING)),
                ]),
            )
            .expect("clean link");
        assert!(t.is_ok(), "account {customer} not created: {}", t.name);
    }
    Rig {
        engine,
        branch,
        channel,
    }
}

/// The call at position `k`. The kind is fixed by position (Deposit 50%,
/// Withdraw 25%, GetBalance 25%, exactly), so every seed does the same
/// amount of each; the seed picks the account and the amount.
pub fn call_at(seed: u64, k: u64) -> (&'static str, Value) {
    let h = mix(seed, k);
    let account = Value::Int(1 + (h % ACCOUNTS) as i64);
    let amount = Value::Int(1 + ((h >> 8) % 200) as i64);
    match k % 4 {
        0 | 2 => ("Deposit", Value::record([("a", account), ("d", amount)])),
        1 => ("Withdraw", Value::record([("a", account), ("d", amount)])),
        _ => ("GetBalance", Value::record([("a", account)])),
    }
}

impl<const OBSERVED: bool> EngineCall<OBSERVED> {
    fn set_bus() {
        if OBSERVED {
            set_bus(true, Some(RING_CAPACITY));
        } else {
            set_bus(false, None);
        }
    }
}

impl<const OBSERVED: bool> Workload for EngineCall<OBSERVED> {
    type State = Rig;

    const NAME: &'static str = if OBSERVED {
        "engine-call-observed"
    } else {
        "engine-call"
    };

    fn new(seed: u64, size: Size) -> Self {
        let calls = match size {
            Size::Full => 3_000,
            Size::Quick => 300,
        };
        Self {
            seed,
            calls: (0..calls).map(|k| call_at(seed, k)).collect(),
        }
    }

    fn build(&self) -> Rig {
        // `Engine::new` resets the bus and keeps its settings, so they
        // are chosen before the engine exists.
        Self::set_bus();
        rig(self.seed)
    }

    fn pass(&self, mut rig: Rig) -> PassOutcome {
        Self::set_bus();
        let sent_before = rig.engine.sim().metrics();
        let (mut ok, mut not_today, mut error, mut other, mut failed) = (0u64, 0, 0, 0, 0);
        for (op, args) in &self.calls {
            let _call = span("engine.call");
            match rig.engine.call(rig.channel, op, args) {
                Ok(t) => match t.name.as_str() {
                    "OK" => ok += 1,
                    "NotToday" => not_today += 1,
                    "Error" => error += 1,
                    _ => other += 1,
                },
                Err(_) => failed += 1,
            }
        }
        let calls = self.calls.len() as u64;
        let net = rig.engine.sim().metrics();
        let delivered = net.delivered - sent_before.delivered;
        let timers = net.timers_fired - sent_before.timers_fired;
        // One request and one reply per call when nothing is retried.
        let retries = (net.sent - sent_before.sent).saturating_sub(2 * calls);

        let mut problems = Vec::new();
        let mut counts = vec![
            (
                "kernel.events_per_op",
                (delivered + timers) as f64 / calls as f64,
            ),
            ("netsim.delivered_per_op", delivered as f64 / calls as f64),
            ("engineering.retries", retries as f64),
        ];
        if OBSERVED {
            let evicted = bus::drop_stats().ring_evicted;
            let emitted = bus::event_count() as u64 + evicted;
            counts.push(("observe.events_per_call", emitted as f64 / calls as f64));
            counts.push(("observe.ring_evicted", evicted as f64));
        } else {
            check_bus_silent(&mut problems);
        }

        let state = rig
            .engine
            .object_state(rig.branch.node, rig.branch.object)
            .expect("branch node exists")
            .expect("branch object exists");
        let state_checksum = fnv1a(FNV_BASIS, &syntax_for(SyntaxId::Binary).encode(&state));
        PassOutcome {
            ops: ok + not_today + error + other,
            attempted: calls,
            failed,
            pinned: vec![
                ("calls", Pin::Count(calls)),
                ("ok", Pin::Count(ok)),
                ("not_today", Pin::Count(not_today)),
                ("error", Pin::Count(error)),
                ("other", Pin::Count(other)),
                ("call_errors", Pin::Count(failed)),
                ("state_checksum", Pin::Sum(state_checksum)),
            ],
            counts,
            problems,
        }
    }

    /// The final branch state must be the one the same calls produce when
    /// applied to the behaviour directly, with no channel in between.
    fn verify(&self, outcome: &PassOutcome) -> Vec<String> {
        set_bus(false, None);
        let mut engine = Engine::new(self.seed);
        let branch = deploy_branch(&mut engine, SyntaxId::Binary).expect("fresh engine");
        let iface = branch.manager.interface;
        for customer in 1..=ACCOUNTS {
            engine
                .invoke_local(
                    branch.node,
                    iface,
                    "CreateAccount",
                    &Value::record([
                        ("c", Value::Int(customer as i64)),
                        ("opening", Value::Int(OPENING)),
                    ]),
                )
                .expect("branch deployed");
        }
        for (op, args) in &self.calls {
            engine
                .invoke_local(branch.node, iface, op, args)
                .expect("branch deployed");
        }
        let state = engine
            .object_state(branch.node, branch.object)
            .expect("branch node exists")
            .expect("branch object exists");
        let direct = fnv1a(FNV_BASIS, &syntax_for(SyntaxId::Binary).encode(&state));
        if outcome.pin("state_checksum") == Some(Pin::Sum(direct)) {
            Vec::new()
        } else {
            vec![format!(
                "branch state after the calls ({:?}) differs from direct invocation ({direct:016x})",
                outcome.pin("state_checksum")
            )]
        }
    }

    fn layer_metrics(&self, view: &TraceView<'_>) -> Vec<(&'static str, f64)> {
        // Per-call latency: each pass's quantile over its own calls,
        // divided by that pass's slowdown; the median over passes.
        let quantile = |p: f64| {
            let per_pass: Vec<f64> = view
                .passes
                .iter()
                .map(|pass| {
                    stats::percentile(&view.durations_in(pass, "engine.call"), p)
                        / pass.timed.slowdown
                })
                .collect();
            stats::median(&per_pass) * 1e6
        };
        let samples: usize = view
            .passes
            .iter()
            .map(|pass| view.durations_in(pass, "engine.call").len())
            .sum();
        let count = |outcome: &PassOutcome, name: &str| {
            outcome
                .counts
                .iter()
                .find(|(k, _)| *k == name)
                .map_or(0.0, |(_, v)| *v)
        };
        let calls = view.outcome.attempted as f64;
        let mut metrics = vec![
            ("engineering.engine.call_p50_us", quantile(0.5)),
            ("engineering.engine.call_p99_us", quantile(0.99)),
            ("engineering.engine.call_samples", samples as f64),
            (
                "kernel.events_per_s",
                count(view.outcome, "kernel.events_per_op") * calls / view.pass_norm_s,
            ),
        ];
        if OBSERVED {
            // What recording costs: the same calls with the bus off,
            // against the traced passes' time per call.
            let off = EngineCall::<false> {
                seed: self.seed,
                calls: self.calls.clone(),
            };
            let mut clock = crate::clock::Clock::new();
            let per_pass: Vec<f64> = (0..3)
                .map(|_| {
                    let state = off.build();
                    clock.measure(|| off.pass(state)).1.norm_s()
                })
                .collect();
            metrics.push((
                "observe.overhead_share",
                1.0 - stats::median(&per_pass) / view.pass_norm_s,
            ));
        } else {
            // How many events a call would emit: counted on a short run
            // with the bus recording, for the attribution of the call.
            let on = EngineCall::<true> {
                seed: self.seed,
                calls: self.calls.iter().take(200).cloned().collect(),
            };
            let counted = on.pass(on.build());
            metrics.push((
                "observe.events_per_call",
                count(&counted, "observe.events_per_call"),
            ));
        }
        metrics
    }
}
