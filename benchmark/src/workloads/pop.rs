//! `pop-bank-s1` and `pop-bank-s4`: the population bank scenario on one
//! shard and on four serial shards.
//!
//! The world is the issue's 16-region bank scaled down in both capsule
//! count and arrival window, so the arrival rate per virtual second —
//! and with it the resident queue depth and the events per epoch — is
//! that of 2,048 capsules per region over 2 s, while a pass is short
//! enough to sit between two calibration loops.

use rmodp::netsim::time::SimDuration;
use rmodp::observe::bus;
use rmodp::workload::population::{
    run_population, PopulationConfig, PopulationOutcome, PopulationScenario,
};

use super::{check_bus_silent, set_bus, PassOutcome, Pin, Size, TraceView, Workload};

/// The bank population at `SHARDS` shards, serial.
pub struct PopBank<const SHARDS: usize> {
    config: PopulationConfig,
}

fn config(seed: u64, size: Size, shards: usize) -> PopulationConfig {
    let mut config = PopulationConfig::new(PopulationScenario::Bank, seed, shards);
    let (regions, capsules, ops, window_ms) = match size {
        Size::Full => (16, 256, 4, 250),
        Size::Quick => (4, 32, 2, 50),
    };
    config.regions = regions;
    config.capsules_per_region = capsules;
    config.ops_per_capsule = ops;
    config.arrival_window = SimDuration::from_millis(window_ms);
    // Serial on purpose: threaded runs do not repeat on 2 vCPUs (the
    // threaded-shard probe reports that spread as a layer number).
    config.threaded = false;
    config
}

fn run(config: &PopulationConfig) -> (PopulationOutcome, Vec<String>) {
    set_bus(false, None);
    let outcome = run_population(config);
    let mut problems = Vec::new();
    check_bus_silent(&mut problems);
    (outcome, problems)
}

impl<const SHARDS: usize> Workload for PopBank<SHARDS> {
    type State = ();

    const NAME: &'static str = if SHARDS == 1 {
        "pop-bank-s1"
    } else {
        "pop-bank-s4"
    };

    fn new(seed: u64, size: Size) -> Self {
        Self {
            config: config(seed, size, SHARDS),
        }
    }

    // `run_population` builds its world itself, inside the pass.
    fn build(&self) {}

    fn pass(&self, (): ()) -> PassOutcome {
        let (out, problems) = run(&self.config);
        let ops = out.stats.completed;
        PassOutcome {
            ops,
            attempted: out.stats.offered,
            failed: out.stats.lost + out.stats.rejected + out.stats.errors,
            pinned: vec![
                ("completed", Pin::Count(ops)),
                ("lost", Pin::Count(out.stats.lost)),
                ("events", Pin::Count(out.events)),
                ("state_checksum", Pin::Sum(out.state_checksum)),
                ("export_checksum", Pin::Sum(out.export_checksum)),
            ],
            counts: vec![
                ("kernel.events_per_op", out.events as f64 / ops as f64),
                ("kernel.shard.epochs", out.epochs as f64),
                (
                    "kernel.shard.events_per_epoch",
                    out.events as f64 / out.epochs as f64,
                ),
                (
                    "kernel.shard.cross_shard_messages",
                    out.cross_shard_messages as f64,
                ),
            ],
            problems,
        }
    }

    /// The sharded world must export what the single queue exports.
    fn verify(&self, outcome: &PassOutcome) -> Vec<String> {
        if SHARDS == 1 {
            return Vec::new();
        }
        let mut single = self.config.clone();
        single.shards = 1;
        let (reference, mut problems) = run(&single);
        for (key, got) in [
            ("completed", Pin::Count(reference.stats.completed)),
            ("events", Pin::Count(reference.events)),
            ("state_checksum", Pin::Sum(reference.state_checksum)),
            ("export_checksum", Pin::Sum(reference.export_checksum)),
        ] {
            if outcome.pin(key) != Some(got) {
                problems.push(format!(
                    "{key} differs between {SHARDS} shards ({:?}) and 1 shard ({got:?})",
                    outcome.pin(key)
                ));
            }
        }
        problems
    }

    fn layer_metrics(&self, view: &TraceView<'_>) -> Vec<(&'static str, f64)> {
        // The simulator's delivery and timer counts are only published
        // on the bus, so one extra pass runs with the bus recording into
        // a small ring: the counters are exact, the buffer stays small.
        set_bus(true, Some(1024));
        let counted = run_population(&self.config);
        let delivered = bus::counter("netsim.delivered");
        set_bus(false, None);
        let events = counted.events as f64;
        vec![
            (
                "netsim.delivered_per_op",
                delivered as f64 / counted.stats.completed as f64,
            ),
            ("kernel.events_per_s", events / view.pass_norm_s),
        ]
    }
}
