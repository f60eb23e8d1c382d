//! Scenario descriptions: *what* load to apply to *which* interface,
//! for how long, and what the environment contract demands of the result.
//!
//! A scenario is pure data plus a seed: replaying the same scenario on
//! the same deployment yields a byte-identical SLO report.

use rand::rngs::StdRng;
use rand::Rng;
use rmodp_core::contract::QosRequirement;
use rmodp_core::value::Value;
use rmodp_netsim::time::SimDuration;

use crate::arrival::ArrivalProcess;

/// One operation in the mix: name, argument template, relative weight.
#[derive(Debug, Clone, PartialEq)]
pub struct OpMixEntry {
    /// Operation name as the server behaviour expects it.
    pub op: String,
    /// Argument record sent with every invocation of this entry.
    pub args: Value,
    /// Relative weight among the mix's entries.
    pub weight: u32,
}

/// A weighted operation mix.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OperationMix {
    entries: Vec<OpMixEntry>,
}

impl OperationMix {
    /// An empty mix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: adds an operation with a weight.
    pub fn with(mut self, op: impl Into<String>, args: Value, weight: u32) -> Self {
        self.entries.push(OpMixEntry {
            op: op.into(),
            args,
            weight,
        });
        self
    }

    /// Whether the mix has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Draws one entry, weight-proportionally.
    ///
    /// # Panics
    ///
    /// Panics if the mix is empty or all weights are zero.
    pub fn sample(&self, rng: &mut StdRng) -> &OpMixEntry {
        let total: u64 = self.entries.iter().map(|e| u64::from(e.weight)).sum();
        assert!(total > 0, "operation mix is empty or zero-weighted");
        let mut pick = rng.gen_range(0..total);
        for e in &self.entries {
            let w = u64::from(e.weight);
            if pick < w {
                return e;
            }
            pick -= w;
        }
        unreachable!("weights summed above")
    }
}

/// How the client population generates load.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadModel {
    /// Open loop: requests arrive on the arrival process's schedule
    /// regardless of how fast the system answers — the model of "heavy
    /// traffic from millions of independent users". Latency is measured
    /// from the *scheduled* arrival, so server queueing shows up in it.
    Open {
        /// When requests arrive.
        arrivals: ArrivalProcess,
    },
    /// Closed loop: a fixed population of clients, each with at most one
    /// outstanding request, thinking for a fixed time between a reply
    /// and the next request. Throughput self-limits as latency grows.
    Closed {
        /// How many concurrent clients.
        population: usize,
        /// Pause between receiving a reply and sending the next request.
        think_time: SimDuration,
    },
}

impl LoadModel {
    /// A short human-readable description (used in reports).
    pub(crate) fn describe(&self) -> String {
        match self {
            LoadModel::Open { arrivals } => format!("open[{}]", arrivals.describe()),
            LoadModel::Closed {
                population,
                think_time,
            } => format!("closed[n={population} think={}us]", think_time.as_micros()),
        }
    }
}

/// A complete workload scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Name, carried into the report.
    pub name: String,
    /// Seed for the arrival stream and operation-mix draws.
    pub seed: u64,
    /// How long load is generated (virtual time).
    pub duration: SimDuration,
    /// Ramp-up: requests scheduled before this offset are driven but
    /// excluded from the latency histogram.
    pub warmup: SimDuration,
    /// Open or closed loop.
    pub load: LoadModel,
    /// What to invoke.
    pub mix: OperationMix,
    /// The QoS obligations the run is judged against.
    pub contract: QosRequirement,
}

impl Scenario {
    /// A scenario with a 1-second duration, no warmup, an empty mix and
    /// an empty contract — fill it in with the builder methods.
    pub fn new(name: impl Into<String>, seed: u64, load: LoadModel) -> Self {
        Self {
            name: name.into(),
            seed,
            duration: SimDuration::from_secs(1),
            warmup: SimDuration::ZERO,
            load,
            mix: OperationMix::new(),
            contract: QosRequirement::none(),
        }
    }

    /// Builder: sets the duration.
    pub fn lasting(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Builder: sets the warmup/ramp offset.
    pub fn with_warmup(mut self, warmup: SimDuration) -> Self {
        self.warmup = warmup;
        self
    }

    /// Builder: sets the operation mix.
    pub fn with_mix(mut self, mix: OperationMix) -> Self {
        self.mix = mix;
        self
    }

    /// Builder: sets the QoS contract.
    pub fn with_contract(mut self, contract: QosRequirement) -> Self {
        self.contract = contract;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn mix_sampling_is_weighted_and_deterministic() {
        let mix = OperationMix::new()
            .with("A", Value::Null, 3)
            .with("B", Value::Null, 1);
        let mut rng = StdRng::seed_from_u64(9);
        let mut a = 0;
        let mut b = 0;
        for _ in 0..4000 {
            match mix.sample(&mut rng).op.as_str() {
                "A" => a += 1,
                _ => b += 1,
            }
        }
        // 3:1 weighting within loose bounds.
        assert!(a > 2 * b, "a={a} b={b}");
        assert!(b > 0);

        let mut r1 = StdRng::seed_from_u64(5);
        let mut r2 = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(mix.sample(&mut r1).op, mix.sample(&mut r2).op);
        }
    }

    #[test]
    #[should_panic(expected = "zero-weighted")]
    fn empty_mix_panics_on_sample() {
        let mut rng = StdRng::seed_from_u64(0);
        OperationMix::new().sample(&mut rng);
    }

    #[test]
    fn builders_compose() {
        let s = Scenario::new(
            "s",
            1,
            LoadModel::Closed {
                population: 4,
                think_time: SimDuration::from_millis(5),
            },
        )
        .lasting(SimDuration::from_secs(2))
        .with_warmup(SimDuration::from_millis(100))
        .with_mix(OperationMix::new().with("Ping", Value::Null, 1));
        assert_eq!(s.duration, SimDuration::from_secs(2));
        assert_eq!(s.mix, OperationMix::new().with("Ping", Value::Null, 1));
        assert!(s.load.describe().starts_with("closed"));
    }
}
