//! Environment contracts (§5.3).
//!
//! "Ideally, environment contracts will be expressed in high-level
//! quality-of-service terms rather than, e.g., specifying a particular
//! network or a particular encryption scheme." Contracts here are QoS
//! *requirements* matched against QoS *offers*; the engineering viewpoint
//! configures channels (stubs, binders, protocol objects) to honour a
//! matched contract.

use std::fmt;
use std::time::Duration;

use serde::{Deserialize, Serialize};

/// The security level a contract demands or an environment provides.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum SecurityLevel {
    /// No protection.
    #[default]
    None,
    /// Interactions carry authenticated principals.
    Authenticated,
    /// Authenticated and protected against capture-and-replay
    /// (sequence-numbered binders, §6.1).
    ReplayProtected,
}

impl fmt::Display for SecurityLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SecurityLevel::None => write!(f, "none"),
            SecurityLevel::Authenticated => write!(f, "authenticated"),
            SecurityLevel::ReplayProtected => write!(f, "replay-protected"),
        }
    }
}

/// What a computational object *requires* of its environment.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct QosRequirement {
    /// Upper bound on one-way interaction latency.
    pub max_latency: Option<Duration>,
    /// Lower bound on sustained flow throughput, items per second
    /// (stream interfaces).
    pub min_throughput: Option<f64>,
    /// Lower bound on availability, 0.0–1.0.
    pub min_availability: Option<f64>,
    /// Whether delivery must be reliable (retransmission in the channel).
    pub reliable_delivery: bool,
    /// Demanded security level.
    pub security: SecurityLevel,
}

impl QosRequirement {
    /// A requirement demanding nothing — matches any offer.
    pub fn none() -> Self {
        Self::default()
    }

    /// Builder: sets the latency bound.
    pub fn with_max_latency(mut self, d: Duration) -> Self {
        self.max_latency = Some(d);
        self
    }

    /// Builder: sets the throughput floor.
    pub fn with_min_throughput(mut self, items_per_sec: f64) -> Self {
        self.min_throughput = Some(items_per_sec);
        self
    }

    /// Builder: sets the availability floor.
    pub fn with_min_availability(mut self, fraction: f64) -> Self {
        self.min_availability = Some(fraction);
        self
    }

    /// Builder: demands reliable delivery.
    pub fn reliable(mut self) -> Self {
        self.reliable_delivery = true;
        self
    }
}

/// What an environment (a channel over a particular network path) *offers*.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QosOffer {
    /// Expected one-way latency.
    pub latency: Duration,
    /// Sustainable throughput, items per second.
    pub throughput: f64,
    /// Availability, 0.0–1.0.
    pub availability: f64,
    /// Whether the channel retransmits lost messages.
    pub reliable_delivery: bool,
    /// Provided security level.
    pub security: SecurityLevel,
}

impl Default for QosOffer {
    fn default() -> Self {
        Self {
            latency: Duration::from_millis(1),
            throughput: f64::INFINITY,
            availability: 1.0,
            reliable_delivery: false,
            security: SecurityLevel::None,
        }
    }
}

impl QosOffer {
    /// Checks this offer against a requirement.
    ///
    /// # Errors
    ///
    /// Returns the first [`ContractViolation`] found.
    pub fn satisfies(&self, req: &QosRequirement) -> Result<(), ContractViolation> {
        if let Some(max) = req.max_latency {
            if self.latency > max {
                return Err(ContractViolation::Latency {
                    required: max,
                    offered: self.latency,
                });
            }
        }
        if let Some(min) = req.min_throughput {
            if self.throughput < min {
                return Err(ContractViolation::Throughput {
                    required: min,
                    offered: self.throughput,
                });
            }
        }
        if let Some(min) = req.min_availability {
            if self.availability < min {
                return Err(ContractViolation::Availability {
                    required: min,
                    offered: self.availability,
                });
            }
        }
        if req.reliable_delivery && !self.reliable_delivery {
            return Err(ContractViolation::Reliability);
        }
        if self.security < req.security {
            return Err(ContractViolation::Security {
                required: req.security,
                offered: self.security,
            });
        }
        Ok(())
    }
}

/// An environment contract: a requirement paired with the offer accepted
/// for it. Constructed via [`EnvironmentContract::establish`], which fails
/// if the offer does not satisfy the requirement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnvironmentContract {
    required: QosRequirement,
    provided: QosOffer,
}

impl EnvironmentContract {
    /// Establishes a contract, verifying the offer meets the requirement.
    ///
    /// # Errors
    ///
    /// Returns the violated clause if the offer is insufficient.
    pub fn establish(
        required: QosRequirement,
        provided: QosOffer,
    ) -> Result<Self, ContractViolation> {
        provided.satisfies(&required)?;
        Ok(Self { required, provided })
    }
}

/// A clause of a QoS requirement that an offer failed to meet.
#[derive(Debug, Clone, PartialEq)]
pub enum ContractViolation {
    /// Offered latency exceeds the bound.
    Latency {
        required: Duration,
        offered: Duration,
    },
    /// Offered throughput is below the floor.
    Throughput { required: f64, offered: f64 },
    /// Offered availability is below the floor.
    Availability { required: f64, offered: f64 },
    /// Reliable delivery demanded but not offered.
    Reliability,
    /// Offered security level is too weak.
    Security {
        required: SecurityLevel,
        offered: SecurityLevel,
    },
}

impl fmt::Display for ContractViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContractViolation::Latency { required, offered } => write!(
                f,
                "latency violation: required <= {required:?}, offered {offered:?}"
            ),
            ContractViolation::Throughput { required, offered } => write!(
                f,
                "throughput violation: required >= {required}, offered {offered}"
            ),
            ContractViolation::Availability { required, offered } => write!(
                f,
                "availability violation: required >= {required}, offered {offered}"
            ),
            ContractViolation::Reliability => {
                write!(f, "reliable delivery required but not offered")
            }
            ContractViolation::Security { required, offered } => write!(
                f,
                "security violation: required {required}, offered {offered}"
            ),
        }
    }
}

impl std::error::Error for ContractViolation {}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_offer() -> QosOffer {
        QosOffer {
            latency: Duration::from_millis(2),
            throughput: 1_000.0,
            availability: 0.999,
            reliable_delivery: true,
            security: SecurityLevel::ReplayProtected,
        }
    }

    #[test]
    fn empty_requirement_matches_anything() {
        assert!(QosOffer::default()
            .satisfies(&QosRequirement::none())
            .is_ok());
        assert!(fast_offer().satisfies(&QosRequirement::none()).is_ok());
    }

    #[test]
    fn each_clause_is_enforced() {
        let offer = fast_offer();
        let req = QosRequirement::none().with_max_latency(Duration::from_millis(1));
        assert!(matches!(
            offer.satisfies(&req),
            Err(ContractViolation::Latency { .. })
        ));
        let req = QosRequirement::none().with_min_throughput(2_000.0);
        assert!(matches!(
            offer.satisfies(&req),
            Err(ContractViolation::Throughput { .. })
        ));
        let req = QosRequirement::none().with_min_availability(0.9999);
        assert!(matches!(
            offer.satisfies(&req),
            Err(ContractViolation::Availability { .. })
        ));
        let mut weak = fast_offer();
        weak.reliable_delivery = false;
        assert!(matches!(
            weak.satisfies(&QosRequirement::none().reliable()),
            Err(ContractViolation::Reliability)
        ));
    }

    #[test]
    fn security_levels_are_ordered() {
        let mut offer = fast_offer();
        offer.security = SecurityLevel::Authenticated;
        let demanding = |security| QosRequirement {
            security,
            ..QosRequirement::none()
        };
        assert!(offer.satisfies(&demanding(SecurityLevel::None)).is_ok());
        assert!(offer
            .satisfies(&demanding(SecurityLevel::Authenticated))
            .is_ok());
        assert!(matches!(
            offer.satisfies(&demanding(SecurityLevel::ReplayProtected)),
            Err(ContractViolation::Security { .. })
        ));
    }

    #[test]
    fn establish_captures_both_sides() {
        let req = QosRequirement::none().with_max_latency(Duration::from_millis(10));
        let contract = EnvironmentContract::establish(req.clone(), fast_offer()).unwrap();
        assert_eq!(contract.required, req);
        assert_eq!(contract.provided, fast_offer());
    }

    #[test]
    fn establish_rejects_insufficient_offer() {
        let req = QosRequirement::none().with_max_latency(Duration::from_micros(1));
        let err = EnvironmentContract::establish(req, fast_offer()).unwrap_err();
        assert!(err.to_string().contains("latency"));
    }
}
