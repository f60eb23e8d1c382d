//! Deterministic arrival processes.
//!
//! An [`ArrivalProcess`] describes *when* requests enter the system; an
//! [`ArrivalStream`] turns it into an infinite, seeded iterator of
//! offsets from the stream's origin. The same process and seed always
//! yield the same offsets, which is what makes a whole scenario replay
//! byte-identically.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmodp_netsim::time::SimDuration;

/// A stochastic (but seeded, hence deterministic) request arrival
/// process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Perfectly paced arrivals: one every `1/rate` seconds.
    Constant {
        /// Arrivals per second.
        rate_per_sec: f64,
    },
    /// Memoryless arrivals: exponential inter-arrival gaps.
    Poisson {
        /// Mean arrivals per second.
        rate_per_sec: f64,
    },
    /// A two-state on/off (interrupted Poisson) process: bursts of
    /// `on_rate_per_sec` traffic alternate with quiet periods of
    /// `off_rate_per_sec`, the phase lengths themselves exponentially
    /// distributed.
    BurstyOnOff {
        /// Arrival rate while the source is on.
        on_rate_per_sec: f64,
        /// Arrival rate while the source is off (often 0).
        off_rate_per_sec: f64,
        /// Mean length of an on phase.
        mean_on: SimDuration,
        /// Mean length of an off phase.
        mean_off: SimDuration,
    },
}

impl ArrivalProcess {
    /// A short human-readable description (used in reports).
    pub fn describe(&self) -> String {
        match *self {
            ArrivalProcess::Constant { rate_per_sec } => format!("constant {rate_per_sec}/s"),
            ArrivalProcess::Poisson { rate_per_sec } => format!("poisson {rate_per_sec}/s"),
            ArrivalProcess::BurstyOnOff {
                on_rate_per_sec,
                off_rate_per_sec,
                mean_on,
                mean_off,
            } => format!(
                "bursty on={on_rate_per_sec}/s({}us) off={off_rate_per_sec}/s({}us)",
                mean_on.as_micros(),
                mean_off.as_micros()
            ),
        }
    }

    /// Opens a seeded stream of arrival offsets.
    pub fn stream(self, seed: u64) -> ArrivalStream {
        ArrivalStream {
            process: self,
            rng: StdRng::seed_from_u64(seed),
            clock_us: 0.0,
            on: true,
            phase_end_us: f64::INFINITY,
            phase_initialised: false,
        }
    }
}

/// An infinite iterator of arrival offsets (from the stream origin),
/// strictly non-decreasing.
#[derive(Debug, Clone)]
pub struct ArrivalStream {
    process: ArrivalProcess,
    rng: StdRng,
    /// Virtual clock of the stream, in (fractional) microseconds.
    clock_us: f64,
    /// Bursty state: currently in the on phase?
    on: bool,
    /// Bursty state: when the current phase ends.
    phase_end_us: f64,
    phase_initialised: bool,
}

/// One exponential draw with the given rate (events per second),
/// returned in microseconds.
fn exp_gap_us(rng: &mut StdRng, rate_per_sec: f64) -> f64 {
    let u: f64 = rng.gen();
    // u ∈ [0, 1), so 1 - u ∈ (0, 1] and ln is finite.
    -(1.0 - u).ln() / rate_per_sec * 1e6
}

impl ArrivalStream {
    fn next_phase(&mut self) {
        let (mean_on, mean_off) = match self.process {
            ArrivalProcess::BurstyOnOff {
                mean_on, mean_off, ..
            } => (mean_on.as_micros() as f64, mean_off.as_micros() as f64),
            _ => return,
        };
        self.on = !self.on;
        let mean = if self.on { mean_on } else { mean_off };
        let len = if mean > 0.0 {
            let u: f64 = self.rng.gen();
            -(1.0 - u).ln() * mean
        } else {
            0.0
        };
        self.phase_end_us = self.clock_us + len;
    }
}

impl Iterator for ArrivalStream {
    type Item = SimDuration;

    fn next(&mut self) -> Option<SimDuration> {
        match self.process {
            ArrivalProcess::Constant { rate_per_sec } => {
                if rate_per_sec <= 0.0 {
                    return None;
                }
                self.clock_us += 1e6 / rate_per_sec;
            }
            ArrivalProcess::Poisson { rate_per_sec } => {
                if rate_per_sec <= 0.0 {
                    return None;
                }
                self.clock_us += exp_gap_us(&mut self.rng, rate_per_sec);
            }
            ArrivalProcess::BurstyOnOff {
                on_rate_per_sec,
                off_rate_per_sec,
                ..
            } => {
                if !self.phase_initialised {
                    // Enter the first (on) phase: next_phase flips, so
                    // start from "off".
                    self.on = false;
                    self.next_phase();
                    self.phase_initialised = true;
                }
                loop {
                    let rate = if self.on {
                        on_rate_per_sec
                    } else {
                        off_rate_per_sec
                    };
                    if rate <= 0.0 {
                        self.clock_us = self.phase_end_us;
                        self.next_phase();
                        continue;
                    }
                    let gap = exp_gap_us(&mut self.rng, rate);
                    if self.clock_us + gap <= self.phase_end_us {
                        self.clock_us += gap;
                        break;
                    }
                    // The draw crosses the phase boundary; by
                    // memorylessness we may discard it and redraw in the
                    // next phase.
                    self.clock_us = self.phase_end_us;
                    self.next_phase();
                }
            }
        }
        Some(SimDuration::from_micros(self.clock_us as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take_until(p: ArrivalProcess, seed: u64, horizon: SimDuration) -> Vec<SimDuration> {
        p.stream(seed).take_while(|&t| t < horizon).collect()
    }

    #[test]
    fn constant_is_evenly_spaced() {
        let arr = take_until(
            ArrivalProcess::Constant {
                rate_per_sec: 1000.0,
            },
            1,
            SimDuration::from_secs(1),
        );
        assert_eq!(arr.len(), 999); // arrivals at 1ms, 2ms, … 999ms
        assert_eq!(arr[0], SimDuration::from_millis(1));
        assert_eq!(arr[1], SimDuration::from_millis(2));
    }

    #[test]
    fn poisson_same_seed_same_stream() {
        let a = take_until(
            ArrivalProcess::Poisson {
                rate_per_sec: 500.0,
            },
            42,
            SimDuration::from_secs(4),
        );
        let b = take_until(
            ArrivalProcess::Poisson {
                rate_per_sec: 500.0,
            },
            42,
            SimDuration::from_secs(4),
        );
        assert_eq!(a, b);
        let c = take_until(
            ArrivalProcess::Poisson {
                rate_per_sec: 500.0,
            },
            43,
            SimDuration::from_secs(4),
        );
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_respects_mean_rate() {
        let secs = 40;
        let arr = take_until(
            ArrivalProcess::Poisson {
                rate_per_sec: 500.0,
            },
            7,
            SimDuration::from_secs(secs),
        );
        let expected = 500.0 * secs as f64;
        let got = arr.len() as f64;
        assert!(
            (got - expected).abs() / expected < 0.05,
            "got {got}, expected ~{expected}"
        );
    }

    #[test]
    fn bursty_mean_rate_mixes_phases() {
        let p = ArrivalProcess::BurstyOnOff {
            on_rate_per_sec: 2_000.0,
            off_rate_per_sec: 0.0,
            mean_on: SimDuration::from_millis(50),
            mean_off: SimDuration::from_millis(150),
        };
        // On a quarter of the time at 2,000/s: 500/s in the long run.
        let secs = 60;
        let arr = take_until(p, 11, SimDuration::from_secs(secs));
        let expected = 500.0 * secs as f64;
        let got = arr.len() as f64;
        assert!(
            (got - expected).abs() / expected < 0.15,
            "got {got}, expected ~{expected}"
        );
    }

    #[test]
    fn streams_are_monotone() {
        for p in [
            ArrivalProcess::Constant {
                rate_per_sec: 100.0,
            },
            ArrivalProcess::Poisson {
                rate_per_sec: 100.0,
            },
            ArrivalProcess::BurstyOnOff {
                on_rate_per_sec: 400.0,
                off_rate_per_sec: 10.0,
                mean_on: SimDuration::from_millis(20),
                mean_off: SimDuration::from_millis(80),
            },
        ] {
            let arr = take_until(p, 3, SimDuration::from_secs(5));
            assert!(arr.windows(2).all(|w| w[0] <= w[1]), "{p:?} not monotone");
            assert!(!arr.is_empty());
        }
    }
}
