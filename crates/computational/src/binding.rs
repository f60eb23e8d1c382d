//! Bindings between interfaces (§5), and binding objects for complex
//! multiparty interaction.

use std::fmt;

use rmodp_core::contract::{ContractViolation, EnvironmentContract, QosOffer, QosRequirement};
use rmodp_core::id::{BindingId, InterfaceId};

use crate::signature::InterfaceSignature;
use crate::subtype::{is_subtype_with, RefResolver, SubtypeViolation};

/// The role an object plays at one of its interfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Causality {
    /// Invokes operations (operational).
    Client,
    /// Offers operations (operational).
    Server,
    /// Produces flows (stream).
    Producer,
    /// Consumes flows (stream).
    Consumer,
    /// Initiates signals (signal).
    Initiator,
    /// Responds to signals (signal).
    Responder,
}

impl Causality {
    /// The causality the peer interface must have for a binding.
    fn complement(self) -> Causality {
        match self {
            Causality::Client => Causality::Server,
            Causality::Server => Causality::Client,
            Causality::Producer => Causality::Consumer,
            Causality::Consumer => Causality::Producer,
            Causality::Initiator => Causality::Responder,
            Causality::Responder => Causality::Initiator,
        }
    }

    /// Whether this causality makes sense for the signature kind.
    pub fn applies_to(self, signature: &InterfaceSignature) -> bool {
        matches!(
            (self, signature),
            (
                Causality::Client | Causality::Server,
                InterfaceSignature::Operational(_)
            ) | (
                Causality::Producer | Causality::Consumer,
                InterfaceSignature::Stream(_)
            ) | (
                Causality::Initiator | Causality::Responder,
                InterfaceSignature::Signal(_)
            )
        )
    }
}

impl fmt::Display for Causality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Causality::Client => write!(f, "client"),
            Causality::Server => write!(f, "server"),
            Causality::Producer => write!(f, "producer"),
            Causality::Consumer => write!(f, "consumer"),
            Causality::Initiator => write!(f, "initiator"),
            Causality::Responder => write!(f, "responder"),
        }
    }
}

/// Why a binding could not be established.
#[derive(Debug, Clone, PartialEq)]
pub enum BindingError {
    /// The causalities are not complementary (client must bind server…).
    CausalityClash { left: Causality, right: Causality },
    /// The provider's signature is not a subtype of what the user of the
    /// interface expects.
    Signature(SubtypeViolation),
    /// The environment contract could not be satisfied.
    Contract(ContractViolation),
    /// A binding-object endpoint identifier is unknown.
    UnknownEndpoint { interface: InterfaceId },
}

impl fmt::Display for BindingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindingError::CausalityClash { left, right } => {
                write!(
                    f,
                    "cannot bind {left} to {right}: causalities must complement"
                )
            }
            BindingError::Signature(v) => write!(f, "signature mismatch: {v}"),
            BindingError::Contract(v) => write!(f, "environment contract unsatisfied: {v}"),
            BindingError::UnknownEndpoint { interface } => {
                write!(f, "unknown binding endpoint {interface}")
            }
        }
    }
}

impl std::error::Error for BindingError {}

impl From<SubtypeViolation> for BindingError {
    fn from(v: SubtypeViolation) -> Self {
        BindingError::Signature(v)
    }
}

impl From<ContractViolation> for BindingError {
    fn from(v: ContractViolation) -> Self {
        BindingError::Contract(v)
    }
}

/// One side of a prospective binding.
#[derive(Debug, Clone, PartialEq)]
pub struct BindingEndpoint {
    /// The interface instance.
    pub interface: InterfaceId,
    /// The signature offered/required at that interface.
    pub signature: InterfaceSignature,
    /// The causality of the interface owner.
    pub causality: Causality,
    /// The owner's environment requirement for this binding.
    pub requirement: QosRequirement,
}

impl BindingEndpoint {
    /// Creates an endpoint with no QoS requirement.
    pub fn new(
        interface: InterfaceId,
        signature: InterfaceSignature,
        causality: Causality,
    ) -> Self {
        Self {
            interface,
            signature,
            causality,
            requirement: QosRequirement::none(),
        }
    }
}

/// A primitive binding between two complementary interfaces.
#[derive(Debug, Clone, PartialEq)]
pub struct Binding {
    /// The binding identity.
    pub id: BindingId,
    /// The initiating (client/consumer/initiator) endpoint.
    pub user: BindingEndpoint,
    /// The accepting (server/producer/responder) endpoint.
    pub provider: BindingEndpoint,
    /// The established contract covering both requirements.
    pub contract: EnvironmentContract,
}

impl Binding {
    /// Establishes a primitive binding: checks causality complement,
    /// signature substitutability (the provider's signature must be a
    /// subtype of what the user expects), and the environment contract.
    ///
    /// # Errors
    ///
    /// Returns the first [`BindingError`] found.
    pub fn establish(
        id: BindingId,
        user: BindingEndpoint,
        provider: BindingEndpoint,
        offer: QosOffer,
        resolver: RefResolver<'_>,
    ) -> Result<Self, BindingError> {
        if user.causality.complement() != provider.causality {
            return Err(BindingError::CausalityClash {
                left: user.causality,
                right: provider.causality,
            });
        }
        is_subtype_with(&provider.signature, &user.signature, resolver)?;
        // Both sides' requirements must be met by the channel offer.
        let combined = strongest(&user.requirement, &provider.requirement);
        let contract = EnvironmentContract::establish(combined, offer)?;
        Ok(Self {
            id,
            user,
            provider,
            contract,
        })
    }
}

/// Combines two QoS requirements, keeping the stronger bound of each
/// clause.
fn strongest(a: &QosRequirement, b: &QosRequirement) -> QosRequirement {
    QosRequirement {
        max_latency: match (a.max_latency, b.max_latency) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, y) => x.or(y),
        },
        min_throughput: match (a.min_throughput, b.min_throughput) {
            (Some(x), Some(y)) => Some(x.max(y)),
            (x, y) => x.or(y),
        },
        min_availability: match (a.min_availability, b.min_availability) {
            (Some(x), Some(y)) => Some(x.max(y)),
            (x, y) => x.or(y),
        },
        reliable_delivery: a.reliable_delivery || b.reliable_delivery,
        security: a.security.max(b.security),
    }
}

/// A binding object: describes complex (multiparty) interaction between
/// objects, itself offering a control interface (§5).
#[derive(Debug, Clone, PartialEq)]
pub struct BindingObject {
    id: BindingId,
    control: InterfaceId,
    endpoints: Vec<BindingEndpoint>,
}

impl BindingObject {
    /// Creates a binding object with a control interface and no endpoints.
    pub fn new(id: BindingId, control: InterfaceId) -> Self {
        Self {
            id,
            control,
            endpoints: Vec::new(),
        }
    }
    /// The control interface through which the binding is managed.
    pub fn control(&self) -> InterfaceId {
        self.control
    }

    /// Adds an endpoint. Multiparty bindings admit many producers and
    /// consumers; signature compatibility is checked pairwise between each
    /// producer-like endpoint and each complementary endpoint.
    ///
    /// # Errors
    ///
    /// Returns a [`BindingError::Signature`] if the new endpoint is
    /// incompatible with an existing complementary endpoint.
    pub fn add_endpoint(
        &mut self,
        endpoint: BindingEndpoint,
        resolver: RefResolver<'_>,
    ) -> Result<(), BindingError> {
        for existing in &self.endpoints {
            if existing.causality == endpoint.causality.complement() {
                let (user, provider) = match endpoint.causality {
                    Causality::Client | Causality::Consumer | Causality::Initiator => {
                        (&endpoint, existing)
                    }
                    _ => (existing, &endpoint),
                };
                is_subtype_with(&provider.signature, &user.signature, resolver)?;
            }
        }
        self.endpoints.push(endpoint);
        Ok(())
    }

    /// Removes an endpoint.
    ///
    /// # Errors
    ///
    /// Returns [`BindingError::UnknownEndpoint`] if absent.
    pub fn remove_endpoint(&mut self, interface: InterfaceId) -> Result<(), BindingError> {
        let before = self.endpoints.len();
        self.endpoints.retain(|e| e.interface != interface);
        if self.endpoints.len() == before {
            return Err(BindingError::UnknownEndpoint { interface });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::{bank_teller_signature, FlowDirection, StreamSignature};
    use rmodp_core::dtype::DataType;
    use std::time::Duration;

    fn eq_resolver(a: &str, b: &str) -> bool {
        a == b
    }

    fn op_sig() -> InterfaceSignature {
        InterfaceSignature::Operational(bank_teller_signature())
    }

    #[test]
    fn complement_is_involutive() {
        for c in [
            Causality::Client,
            Causality::Server,
            Causality::Producer,
            Causality::Consumer,
            Causality::Initiator,
            Causality::Responder,
        ] {
            assert_eq!(c.complement().complement(), c);
        }
    }

    #[test]
    fn establish_happy_path() {
        let user = BindingEndpoint::new(InterfaceId::new(1), op_sig(), Causality::Client);
        let provider = BindingEndpoint::new(InterfaceId::new(2), op_sig(), Causality::Server);
        let b = Binding::establish(
            BindingId::new(1),
            user,
            provider,
            QosOffer::default(),
            &eq_resolver,
        )
        .unwrap();
        assert_eq!(b.user.causality, Causality::Client);
    }

    #[test]
    fn causality_clash_is_rejected() {
        let user = BindingEndpoint::new(InterfaceId::new(1), op_sig(), Causality::Client);
        let provider = BindingEndpoint::new(InterfaceId::new(2), op_sig(), Causality::Client);
        let err = Binding::establish(
            BindingId::new(1),
            user,
            provider,
            QosOffer::default(),
            &eq_resolver,
        )
        .unwrap_err();
        assert!(matches!(err, BindingError::CausalityClash { .. }));
    }

    #[test]
    fn provider_must_be_subtype_of_expected() {
        // Client expects full BankTeller; provider offers a poorer
        // signature with only Deposit.
        let poor = crate::signature::OperationalSignature::new("DepositOnly")
            .announcement("Deposit", [("d", DataType::Int)]);
        let user = BindingEndpoint::new(InterfaceId::new(1), op_sig(), Causality::Client);
        let provider = BindingEndpoint::new(
            InterfaceId::new(2),
            InterfaceSignature::Operational(poor),
            Causality::Server,
        );
        let err = Binding::establish(
            BindingId::new(1),
            user,
            provider,
            QosOffer::default(),
            &eq_resolver,
        )
        .unwrap_err();
        assert!(matches!(err, BindingError::Signature(_)));
    }

    #[test]
    fn contract_combines_both_requirements() {
        let mut user = BindingEndpoint::new(InterfaceId::new(1), op_sig(), Causality::Client);
        user.requirement = QosRequirement::none().with_max_latency(Duration::from_millis(10));
        let mut provider = BindingEndpoint::new(InterfaceId::new(2), op_sig(), Causality::Server);
        provider.requirement = QosRequirement::none().with_max_latency(Duration::from_millis(2));
        // The offer satisfies the user's 10ms but not the provider's 2ms.
        let offer = QosOffer {
            latency: Duration::from_millis(5),
            ..QosOffer::default()
        };
        let err = Binding::establish(
            BindingId::new(1),
            user.clone(),
            provider.clone(),
            offer,
            &eq_resolver,
        )
        .unwrap_err();
        assert!(matches!(err, BindingError::Contract(_)));
        let fast = QosOffer {
            latency: Duration::from_millis(1),
            ..QosOffer::default()
        };
        assert!(Binding::establish(BindingId::new(1), user, provider, fast, &eq_resolver).is_ok());
    }

    #[test]
    fn binding_object_manages_multiparty_stream() {
        let produced = InterfaceSignature::Stream(StreamSignature::new("AV").flow(
            "audio",
            DataType::Blob,
            FlowDirection::Produced,
        ));
        // From a consumer's standpoint the flow is still described from the
        // producing interface's point of view; the consumer endpoint
        // declares the same signature with Consumer causality.
        let mut bo = BindingObject::new(BindingId::new(9), InterfaceId::new(100));
        bo.add_endpoint(
            BindingEndpoint::new(InterfaceId::new(1), produced.clone(), Causality::Producer),
            &eq_resolver,
        )
        .unwrap();
        bo.add_endpoint(
            BindingEndpoint::new(InterfaceId::new(2), produced.clone(), Causality::Consumer),
            &eq_resolver,
        )
        .unwrap();
        bo.add_endpoint(
            BindingEndpoint::new(InterfaceId::new(3), produced, Causality::Consumer),
            &eq_resolver,
        )
        .unwrap();
        let consumers = |bo: &BindingObject| {
            let endpoints = bo.endpoints.iter();
            endpoints
                .filter(|e| e.causality == Causality::Consumer)
                .count()
        };
        assert_eq!(bo.endpoints.len(), 3);
        assert_eq!(consumers(&bo), 2);
        bo.remove_endpoint(InterfaceId::new(2)).unwrap();
        assert_eq!(consumers(&bo), 1);
        assert!(matches!(
            bo.remove_endpoint(InterfaceId::new(2)),
            Err(BindingError::UnknownEndpoint { .. })
        ));
    }

    #[test]
    fn causality_applies_to_signature_kinds() {
        let op = op_sig();
        let stream = InterfaceSignature::Stream(StreamSignature::new("S"));
        assert!(Causality::Client.applies_to(&op));
        assert!(Causality::Server.applies_to(&op));
        assert!(!Causality::Producer.applies_to(&op));
        assert!(Causality::Producer.applies_to(&stream));
        assert!(!Causality::Client.applies_to(&stream));
    }
}
