//! The relocator: a repository of interface locations (§8.3.3).
//!
//! "The relocator is a repository of interface locations (a white pages
//! service). This information is needed by relocation transparency."
//! Binders register and retrieve interface locations here; when a cached
//! location turns out stale, the binder requeries, reconnects and replays
//! (§9.2).

use std::collections::BTreeMap;
use std::fmt;

use rmodp_core::id::InterfaceId;
use rmodp_engineering::structure::InterfaceRef;

/// A relocator failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelocatorError {
    /// The interface has never been registered.
    Unknown { interface: InterfaceId },
    /// An update regressed the epoch (updates must be monotone).
    StaleUpdate {
        interface: InterfaceId,
        current: u64,
        offered: u64,
    },
}

impl fmt::Display for RelocatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelocatorError::Unknown { interface } => {
                write!(f, "relocator knows nothing about {interface}")
            }
            RelocatorError::StaleUpdate {
                interface,
                current,
                offered,
            } => write!(
                f,
                "stale update for {interface}: epoch {offered} <= current {current}"
            ),
        }
    }
}

impl std::error::Error for RelocatorError {}

/// The white-pages repository of interface locations.
#[derive(Debug, Default)]
pub struct Relocator {
    /// Active locations by interface.
    locations: BTreeMap<InterfaceId, InterfaceRef>,
    /// Highest epoch ever seen per interface (survives deactivation).
    epochs: BTreeMap<InterfaceId, u64>,
}

impl Relocator {
    /// Registers or updates an interface's location. Epochs must be
    /// strictly increasing across updates.
    ///
    /// # Errors
    ///
    /// Returns [`RelocatorError::StaleUpdate`] for non-monotone epochs.
    pub fn register(&mut self, r: InterfaceRef) -> Result<(), RelocatorError> {
        let current = self.epochs.get(&r.interface).copied().unwrap_or(0);
        if r.epoch <= current && self.locations.contains_key(&r.interface) {
            return Err(RelocatorError::StaleUpdate {
                interface: r.interface,
                current,
                offered: r.epoch,
            });
        }
        if r.epoch < current {
            return Err(RelocatorError::StaleUpdate {
                interface: r.interface,
                current,
                offered: r.epoch,
            });
        }
        self.epochs.insert(r.interface, r.epoch);
        self.locations.insert(r.interface, r);
        Ok(())
    }

    /// Marks an interface deactivated (no current location). The epoch
    /// memory is retained.
    pub fn deactivate(&mut self, interface: InterfaceId) -> bool {
        self.locations.remove(&interface).is_some()
    }

    /// Looks up the current location.
    pub fn lookup(&self, interface: InterfaceId) -> Option<InterfaceRef> {
        self.locations.get(&interface).copied()
    }

    /// Number of active registrations.
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    /// Whether no interfaces are registered.
    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmodp_core::id::{CapsuleId, ClusterId, NodeId};
    use rmodp_engineering::structure::Location;

    fn iref(ifc: u64, node: u64, epoch: u64) -> InterfaceRef {
        InterfaceRef {
            interface: InterfaceId::new(ifc),
            location: Location {
                node: NodeId::new(node),
                capsule: CapsuleId::new(1),
                cluster: ClusterId::new(1),
            },
            epoch,
        }
    }

    #[test]
    fn register_lookup_update() {
        let mut r = Relocator::default();
        r.register(iref(1, 1, 1)).unwrap();
        assert_eq!(
            r.lookup(InterfaceId::new(1)).unwrap().location.node,
            NodeId::new(1)
        );
        r.register(iref(1, 2, 2)).unwrap();
        assert_eq!(
            r.lookup(InterfaceId::new(1)).unwrap().location.node,
            NodeId::new(2)
        );
        assert_eq!(r.lookup(InterfaceId::new(1)).unwrap().epoch, 2);
    }

    #[test]
    fn stale_updates_rejected() {
        let mut r = Relocator::default();
        r.register(iref(1, 1, 5)).unwrap();
        let err = r.register(iref(1, 2, 5)).unwrap_err();
        assert!(matches!(
            err,
            RelocatorError::StaleUpdate {
                current: 5,
                offered: 5,
                ..
            }
        ));
        let err = r.register(iref(1, 2, 3)).unwrap_err();
        assert!(matches!(err, RelocatorError::StaleUpdate { .. }));
        // The good registration is untouched.
        assert_eq!(
            r.lookup(InterfaceId::new(1)).unwrap().location.node,
            NodeId::new(1)
        );
    }

    #[test]
    fn deactivate_hides_but_remembers_epoch() {
        let mut r = Relocator::default();
        r.register(iref(1, 1, 3)).unwrap();
        assert!(r.deactivate(InterfaceId::new(1)));
        assert!(!r.deactivate(InterfaceId::new(1)));
        assert_eq!(r.lookup(InterfaceId::new(1)), None);
        assert!(matches!(
            r.register(iref(1, 2, 2)),
            Err(RelocatorError::StaleUpdate { current: 3, .. })
        ));
        // Reactivation at a later epoch succeeds; at the same epoch while
        // inactive it is also accepted (epoch equal but no active entry).
        r.register(iref(1, 2, 4)).unwrap();
        assert_eq!(r.lookup(InterfaceId::new(1)).unwrap().epoch, 4);
    }

    #[test]
    fn unknown_lookup_is_a_miss() {
        let r = Relocator::default();
        assert!(r.lookup(InterfaceId::new(9)).is_none());
        assert!(r.is_empty());
    }
}
