//! Service offers.

use std::fmt;
use std::sync::Arc;

use rmodp_core::id::{InterfaceId, OfferId};
use rmodp_core::value::Value;

/// A service advertisement held by a trader.
///
/// The two names are shared, not owned: `service_type` is the store's
/// type-index key for that type and `held_by` the holding trader's name,
/// so exporting, copying (copy-on-write `modify`, a withdrawal while a
/// match still holds the offer) and dropping an offer never copy or free
/// either string.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceOffer {
    /// The offer identity (assigned at export).
    pub id: OfferId,
    /// The advertised interface type name (resolved against the type
    /// repository for subtype matching), shared with every offer of
    /// the type in the holding trader.
    pub service_type: Arc<str>,
    /// The interface the service is obtained at.
    pub interface: InterfaceId,
    /// Service attributes: a record the importer's constraint ranges over.
    pub properties: Value,
    /// Which trader currently holds the offer (set by federation),
    /// shared with the trader's own name.
    pub held_by: Arc<str>,
}

impl ServiceOffer {
    /// Whether the offer's properties bind every variable a constraint
    /// mentions (offers lacking a mentioned property never match).
    pub fn binds(&self, variables: &[Vec<String>]) -> bool {
        variables
            .iter()
            .all(|path| self.properties.path(path).is_some())
    }
}

impl fmt::Display for ServiceOffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} at {} {}",
            self.id, self.service_type, self.interface, self.properties
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offer() -> ServiceOffer {
        ServiceOffer {
            id: OfferId::new(1),
            service_type: "Printer".into(),
            interface: InterfaceId::new(5),
            properties: Value::record([("ppm", Value::Int(30)), ("colour", Value::Bool(true))]),
            held_by: "t".into(),
        }
    }

    #[test]
    fn binds_checks_property_presence() {
        let o = offer();
        assert!(o.binds(&[vec!["ppm".into()]]));
        assert!(o.binds(&[vec!["ppm".into()], vec!["colour".into()]]));
        assert!(!o.binds(&[vec!["duplex".into()]]));
        assert!(o.binds(&[]));
    }

    #[test]
    fn display_shows_everything() {
        let s = offer().to_string();
        assert!(s.contains("Printer"));
        assert!(s.contains("ppm"));
    }
}
