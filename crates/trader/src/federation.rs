//! Trader federation: linked traders serving imports across
//! administrative boundaries.
//!
//! The ODP trader standard (the paper's reference \[5\]) lets traders hold
//! *links* to other traders so an importer's search can propagate. The
//! [`Federation`] owns a set of traders and walks their link graph
//! breadth-first with a hop bound, deduplicating offers.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use rmodp_typerepo::TypeRepository;

use crate::trader::{first_per_holder, keep_best, ImportRequest, Match, Trader};

/// A federation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FederationError {
    /// No trader with this name.
    UnknownTrader { name: String },
    /// A trader with this name already exists.
    DuplicateTrader { name: String },
}

impl fmt::Display for FederationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FederationError::UnknownTrader { name } => write!(f, "unknown trader {name}"),
            FederationError::DuplicateTrader { name } => {
                write!(f, "trader {name} already exists")
            }
        }
    }
}

impl std::error::Error for FederationError {}

/// A set of traders connected by directed links.
#[derive(Debug, Default)]
pub struct Federation {
    traders: BTreeMap<String, Trader>,
}

impl Federation {
    /// Creates an empty federation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a trader.
    ///
    /// # Errors
    ///
    /// Returns [`FederationError::DuplicateTrader`] on a name collision.
    pub fn add_trader(&mut self, name: impl Into<String>) -> Result<(), FederationError> {
        let name = name.into();
        if self.traders.contains_key(&name) {
            return Err(FederationError::DuplicateTrader { name });
        }
        self.traders.insert(name.clone(), Trader::new(name));
        Ok(())
    }

    /// Mutable access to one trader (for exports).
    ///
    /// # Errors
    ///
    /// Unknown trader.
    pub fn trader_mut(&mut self, name: &str) -> Result<&mut Trader, FederationError> {
        self.traders
            .get_mut(name)
            .ok_or_else(|| FederationError::UnknownTrader {
                name: name.to_owned(),
            })
    }

    /// Immutable access to one trader.
    pub fn trader(&self, name: &str) -> Option<&Trader> {
        self.traders.get(name)
    }

    /// Links `from` to `to` (directed): imports at `from` may continue at
    /// `to`.
    ///
    /// # Errors
    ///
    /// Unknown trader on either end.
    pub fn link(&mut self, from: &str, to: &str) -> Result<(), FederationError> {
        if !self.traders.contains_key(to) {
            return Err(FederationError::UnknownTrader {
                name: to.to_owned(),
            });
        }
        let from_trader = self.trader_mut(from)?;
        if !from_trader.links.contains(&to.to_owned()) {
            from_trader.links.push(to.to_owned());
        }
        Ok(())
    }

    /// The traders in the federation.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.traders.keys().map(String::as_str)
    }

    /// Serves an import starting at a trader, following links breadth-
    /// first up to `max_hops` (0 = only the starting trader). Offers are
    /// deduplicated by `(holder, offer id)` and finally preference-ordered
    /// across the whole result.
    ///
    /// # Errors
    ///
    /// Unknown starting trader.
    pub fn import_federated(
        &mut self,
        start: &str,
        request: &ImportRequest,
        repo: Option<&TypeRepository>,
        max_hops: usize,
    ) -> Result<Vec<Match>, FederationError> {
        if !self.traders.contains_key(start) {
            return Err(FederationError::UnknownTrader {
                name: start.to_owned(),
            });
        }
        use rmodp_observe::{bus, event, EventKind, Layer};
        let span = bus::new_span();
        event(Layer::Trader, EventKind::TraderLookup)
            .span(span)
            .parent_from_context()
            .detail_fmt(format_args!(
                "federated start={start} type={} max_hops={max_hops}",
                request.service_type
            ))
            .emit();
        bus::push_context(span);
        let mut visited = BTreeSet::new();
        let mut queue = VecDeque::from([(start.to_owned(), 0usize)]);
        let mut found = Vec::new();
        while let Some((name, hops)) = queue.pop_front() {
            if !visited.insert(name.clone()) {
                continue;
            }
            if hops > 0 {
                event(Layer::Trader, EventKind::FederationHop)
                    .in_context()
                    .detail_fmt(format_args!("-> {name} (hop {hops})"))
                    .emit();
                bus::counter_add("trader.federation_hops", 1);
            }
            let trader = self.traders.get_mut(&name).expect("visited traders exist");
            found.extend(trader.import(request, repo));
            if hops < max_hops {
                for next in self.traders[&name].links.clone() {
                    queue.push_back((next, hops + 1));
                }
            }
        }
        bus::pop_context();
        let mut matches = first_per_holder(&found);
        keep_best(
            &mut matches,
            &request.preference,
            true,
            request.max_matches,
            |m| (m.score, &m.offer),
        );
        Ok(matches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmodp_core::id::InterfaceId;
    use rmodp_core::value::Value;

    /// brisbane → sydney → melbourne, each holding one printer.
    fn chain() -> Federation {
        let mut f = Federation::new();
        for name in ["brisbane", "sydney", "melbourne"] {
            f.add_trader(name).unwrap();
        }
        f.link("brisbane", "sydney").unwrap();
        f.link("sydney", "melbourne").unwrap();
        for (i, (name, ppm)) in [("brisbane", 20), ("sydney", 40), ("melbourne", 60)]
            .iter()
            .enumerate()
        {
            f.trader_mut(name)
                .unwrap()
                .export(
                    "Printer",
                    InterfaceId::new(i as u64 + 1),
                    Value::record([("ppm", Value::Int(*ppm))]),
                )
                .unwrap();
        }
        f
    }

    #[test]
    fn hop_bound_limits_the_search() {
        let mut f = chain();
        let req = ImportRequest::new("Printer");
        assert_eq!(
            f.import_federated("brisbane", &req, None, 0).unwrap().len(),
            1
        );
        assert_eq!(
            f.import_federated("brisbane", &req, None, 1).unwrap().len(),
            2
        );
        assert_eq!(
            f.import_federated("brisbane", &req, None, 2).unwrap().len(),
            3
        );
        // Links are directed: melbourne sees only itself.
        assert_eq!(
            f.import_federated("melbourne", &req, None, 5)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn preference_orders_across_traders() {
        let mut f = chain();
        let req = ImportRequest::new("Printer").prefer_max("ppm").unwrap();
        let matches = f.import_federated("brisbane", &req, None, 2).unwrap();
        let ppms: Vec<i64> = matches
            .iter()
            .map(|m| m.offer.properties.field("ppm").unwrap().as_int().unwrap())
            .collect();
        assert_eq!(ppms, vec![60, 40, 20]);
        let best = f
            .import_federated("brisbane", &req.clone().at_most(1), None, 2)
            .unwrap();
        assert_eq!(best.len(), 1);
        assert_eq!(&*best[0].offer.held_by, "melbourne");
    }

    #[test]
    fn cyclic_links_terminate_and_deduplicate() {
        let mut f = chain();
        f.link("melbourne", "brisbane").unwrap();
        f.link("brisbane", "brisbane").unwrap(); // self-link, too
        let req = ImportRequest::new("Printer");
        let matches = f.import_federated("brisbane", &req, None, 10).unwrap();
        assert_eq!(matches.len(), 3);
    }

    #[test]
    fn unknown_traders_error() {
        let mut f = chain();
        assert!(matches!(
            f.import_federated("perth", &ImportRequest::new("Printer"), None, 1),
            Err(FederationError::UnknownTrader { .. })
        ));
        assert!(matches!(
            f.link("brisbane", "perth"),
            Err(FederationError::UnknownTrader { .. })
        ));
        assert!(matches!(
            f.add_trader("sydney"),
            Err(FederationError::DuplicateTrader { .. })
        ));
    }

    #[test]
    fn constraints_apply_federation_wide() {
        let mut f = chain();
        let req = ImportRequest::new("Printer")
            .constraint("ppm >= 40")
            .unwrap();
        let matches = f.import_federated("brisbane", &req, None, 2).unwrap();
        assert_eq!(matches.len(), 2);
        assert!(matches
            .iter()
            .all(|m| { m.offer.properties.field("ppm").unwrap().as_int().unwrap() >= 40 }));
    }
}
