//! The trader: export, withdraw, import — with planned, index-backed
//! matching.
//!
//! Imports no longer scan every offer: [`Trader::import`] compiles the
//! request through [`crate::plan::plan_import`] against the trader's
//! [`OfferStore`] and only evaluates what the plan's indexes did not
//! answer exactly on the plan's candidates. [`Trader::import_scan`]
//! keeps the original full scan — every constraint variable bound, the
//! whole constraint evaluated — as the executable specification the
//! planner and the residual are tested against (see
//! `tests/plan_equivalence.rs`) and the baseline the `BENCH_trader.json`
//! suite measures.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use rmodp_core::expr::{required, Expr, ParseError};
use rmodp_core::id::{IdGen, InterfaceId, OfferId};
use rmodp_core::value::Value;
use rmodp_typerepo::TypeRepository;

use crate::offer::ServiceOffer;
use crate::plan::{plan_import, QueryPlan};
use crate::store::{IndexKind, OfferStore};

/// A trading failure.
#[derive(Debug, Clone, PartialEq)]
pub enum TraderError {
    /// The offer's properties are not a record.
    BadProperties { got: String },
    /// No such offer.
    UnknownOffer { offer: OfferId },
    /// A constraint or preference expression failed to parse.
    BadExpression(ParseError),
    /// An offer's properties do not conform to the declared property type
    /// for its service type.
    PropertyType {
        service_type: String,
        detail: String,
    },
    /// A constraint is statically ill-typed against the declared property
    /// type.
    ConstraintType {
        service_type: String,
        detail: String,
    },
}

impl fmt::Display for TraderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraderError::BadProperties { got } => {
                write!(f, "offer properties must be a record, got {got}")
            }
            TraderError::UnknownOffer { offer } => write!(f, "unknown offer {offer}"),
            TraderError::BadExpression(e) => write!(f, "bad expression: {e}"),
            TraderError::PropertyType {
                service_type,
                detail,
            } => {
                write!(
                    f,
                    "offer properties do not conform to {service_type}: {detail}"
                )
            }
            TraderError::ConstraintType {
                service_type,
                detail,
            } => {
                write!(f, "constraint ill-typed for {service_type}: {detail}")
            }
        }
    }
}

impl std::error::Error for TraderError {}

impl From<ParseError> for TraderError {
    fn from(e: ParseError) -> Self {
        TraderError::BadExpression(e)
    }
}

/// How an importer orders acceptable offers.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Preference {
    /// Offers in export order (the trader's arrival order).
    #[default]
    FirstFound,
    /// Offers maximising an expression over their properties.
    Max(Expr),
    /// Offers minimising an expression over their properties.
    Min(Expr),
}

/// An import request: the required type, a constraint over properties, a
/// preference, and a cardinality bound.
#[derive(Debug, Clone, PartialEq)]
pub struct ImportRequest {
    /// The required interface type name.
    pub service_type: String,
    /// The constraint every returned offer must satisfy.
    pub constraint: Option<Expr>,
    /// How matches are ordered.
    pub preference: Preference,
    /// At most this many matches are returned.
    pub max_matches: usize,
    /// Whether subtypes of the requested type are acceptable
    /// (substitutability, §5.1.1). On by default.
    pub allow_subtypes: bool,
}

impl ImportRequest {
    /// A request for a service type with no constraint.
    pub fn new(service_type: impl Into<String>) -> Self {
        Self {
            service_type: service_type.into(),
            constraint: None,
            preference: Preference::FirstFound,
            max_matches: usize::MAX,
            allow_subtypes: true,
        }
    }

    /// Builder: sets the constraint (source text).
    ///
    /// # Errors
    ///
    /// Returns the parse error for malformed constraints.
    pub fn constraint(mut self, src: &str) -> Result<Self, TraderError> {
        self.constraint = Some(Expr::parse(src)?);
        Ok(self)
    }

    /// Builder: prefer offers maximising an expression.
    ///
    /// # Errors
    ///
    /// Returns the parse error for malformed expressions.
    pub fn prefer_max(mut self, src: &str) -> Result<Self, TraderError> {
        self.preference = Preference::Max(Expr::parse(src)?);
        Ok(self)
    }

    /// Builder: prefer offers minimising an expression.
    ///
    /// # Errors
    ///
    /// Returns the parse error for malformed expressions.
    pub fn prefer_min(mut self, src: &str) -> Result<Self, TraderError> {
        self.preference = Preference::Min(Expr::parse(src)?);
        Ok(self)
    }

    /// Builder: bounds the number of matches.
    pub fn at_most(mut self, n: usize) -> Self {
        self.max_matches = n;
        self
    }

    /// Builder: requires the exact type (no subtype substitution).
    pub fn exact_type(mut self) -> Self {
        self.allow_subtypes = false;
        self
    }
}

/// One import match.
///
/// An import builds a `Match` only for an offer it hands out: an ordered
/// request scores its candidates against borrowed offers, picks its
/// `max_matches` best, and only then takes a reference count on each
/// winner ([`Trader::import`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Match {
    /// The matching offer, shared with the trader that holds it: a match
    /// costs a reference count, not a copy — its names, too, are the
    /// trader's — and reads like the offer itself (`m.offer.interface`).
    /// It is a snapshot — a later [`Trader::modify`] or
    /// [`Trader::withdraw`] leaves it as it was when the import ran; a
    /// new import sees the change.
    pub offer: Arc<ServiceOffer>,
    /// The preference score used for ordering (0 for `FirstFound`).
    pub score: f64,
}

/// Counters the trader maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraderStats {
    /// Offers exported over the trader's lifetime.
    pub exports: u64,
    /// Offers withdrawn.
    pub withdrawals: u64,
    /// Import operations served.
    pub imports: u64,
    /// Offers examined by the residual filter during imports. Under
    /// planned matching this counts plan *candidates*, not the whole
    /// repository — watching it shrink relative to [`Self::exports`] is
    /// how index effectiveness shows up.
    pub offers_considered: u64,
    /// Imports served by a plan that used at least one secondary index.
    pub plans_indexed: u64,
    /// Imports that fell back to scanning the type buckets.
    pub plans_fallback: u64,
}

/// What the match order reads of a match or a scored candidate: its
/// score and its offer.
type Ranked<'o> = (f64, &'o ServiceOffer);

/// The one match order of the crate, for a preference-ordered request:
/// score (descending for `Max`, ascending for `Min`), then the holding
/// trader's name when matches of several traders are merged
/// (`by_holder`), then offer id — a total order on distinct offers, so
/// any sort of it agrees with any other. `None` for `FirstFound`, whose
/// matches keep the order they were found in: ascending offer id within
/// a trader, traders in visiting order.
fn match_order(
    preference: &Preference,
    by_holder: bool,
) -> Option<impl Fn(Ranked<'_>, Ranked<'_>) -> Ordering> {
    let descending = match preference {
        Preference::FirstFound => return None,
        Preference::Max(_) => true,
        Preference::Min(_) => false,
    };
    Some(move |(a_score, a): Ranked<'_>, (b_score, b): Ranked<'_>| {
        let score = a_score.total_cmp(&b_score);
        let holder = if by_holder {
            a.held_by.cmp(&b.held_by)
        } else {
            Ordering::Equal
        };
        (if descending { score.reverse() } else { score })
            .then(holder)
            .then(a.id.cmp(&b.id))
    })
}

/// Preference-orders every match in place: the reference scan's full
/// sort, which [`keep_best`] is held to.
fn order_matches(matches: &mut [Match], preference: &Preference) {
    if let Some(order) = match_order(preference, false) {
        matches.sort_by(|a, b| order((a.score, &a.offer), (b.score, &b.offer)));
    }
}

/// Cuts `found` to the first `k` in [`match_order`], `view` reading an
/// item's score and offer: a `FirstFound` request's first `k` as found,
/// an ordered one's best `k`, picked by `select_nth_unstable_by` and
/// then sorted — only the winners are — in the order a full sort would
/// give them.
pub(crate) fn keep_best<T>(
    found: &mut Vec<T>,
    preference: &Preference,
    by_holder: bool,
    k: usize,
    view: impl Fn(&T) -> Ranked<'_>,
) {
    let Some(order) = match_order(preference, by_holder) else {
        found.truncate(k);
        return;
    };
    let order = |a: &T, b: &T| order(view(a), view(b));
    if (1..found.len()).contains(&k) {
        found.select_nth_unstable_by(k - 1, order);
    }
    found.truncate(k);
    found.sort_unstable_by(order);
}

/// The first match of every `(holder, offer id)`, in the order found. The
/// key borrows the holder's name from the shared offer.
pub(crate) fn first_per_holder(found: &[Match]) -> Vec<Match> {
    let mut seen = BTreeSet::new();
    found
        .iter()
        .filter(|m| seen.insert((&*m.offer.held_by, m.offer.id)))
        .cloned()
        .collect()
}

/// The per-offer residual of the reference scan: constraint-variable
/// binding, evaluation of the whole constraint, preference scoring. It
/// is the specification [`Residual`] is held to.
///
/// Offers whose properties do not bind every constraint variable, or on
/// which an expression fails to evaluate, simply do not match — a
/// malformed *offer* must not fail the *import*.
fn residual_match(
    offer: &Arc<ServiceOffer>,
    request: &ImportRequest,
    constraint_vars: &[Vec<String>],
) -> Option<Match> {
    if !offer.binds(constraint_vars) {
        return None;
    }
    if let Some(constraint) = &request.constraint {
        match constraint.eval_bool(&offer.properties) {
            Ok(true) => {}
            _ => return None,
        }
    }
    let score = match &request.preference {
        Preference::FirstFound => 0.0,
        Preference::Max(e) | Preference::Min(e) => {
            e.eval(&offer.properties).ok().and_then(|v| v.as_float())?
        }
    };
    Some(Match {
        offer: Arc::clone(offer),
        score,
    })
}

/// [`residual_match`] on the plan's candidates, set up once per import:
/// the same offers match with the same scores. The constraint is the
/// conjuncts the plan did not answer exactly (`PlannedImport::residual`),
/// each judged by [`Expr::holds`]: every candidate satisfies the others,
/// so they all hold exactly when the walker returns `Ok(true)` on the
/// whole constraint. `binds` is asked only about the variables of those
/// conjuncts that they do not [require](required) (those reached only
/// through an `or`'s right operand or a call such as `exists(x)`), since
/// conjuncts that hold have bound the rest, and an exactly answered
/// atom's path is bound on every candidate — an index posts only offers
/// with a scalar value there. The preference is scored by
/// [`Expr::value`].
struct Residual<'r> {
    conjuncts: &'r [&'r Expr],
    unrequired: Vec<Vec<String>>,
    score: Option<&'r Expr>,
}

impl<'r> Residual<'r> {
    fn new(conjuncts: &'r [&'r Expr], request: &'r ImportRequest) -> Self {
        let required = required(conjuncts);
        let unrequired = conjuncts
            .iter()
            .flat_map(|c| c.variables())
            .filter(|path| !required.contains(&path.as_slice()))
            .collect();
        let score = match &request.preference {
            Preference::FirstFound => None,
            Preference::Max(e) | Preference::Min(e) => Some(e),
        };
        Self {
            conjuncts,
            unrequired,
            score,
        }
    }

    /// The offer's score if it matches: borrowed, not shared, until the
    /// import knows it hands the offer out.
    fn score(&self, offer: &ServiceOffer) -> Option<f64> {
        let properties = &offer.properties;
        if !self.conjuncts.iter().all(|c| c.holds(properties)) || !offer.binds(&self.unrequired) {
            return None;
        }
        match self.score {
            None => Some(0.0),
            Some(e) => e.value(properties)?.as_float(),
        }
    }
}

/// A trader: an indexed repository of service offers with type-safe,
/// constrained, preference-ordered lookup.
#[derive(Debug)]
pub struct Trader {
    /// Shared with every offer the trader holds (`held_by`).
    name: Arc<str>,
    store: OfferStore,
    /// Declared property types per service type (optional strictness).
    property_types: BTreeMap<String, rmodp_core::dtype::DataType>,
    gen: IdGen<OfferId>,
    stats: TraderStats,
    /// Names of linked traders (used by the federation).
    pub(crate) links: Vec<String>,
}

impl Trader {
    /// Creates an empty trader.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: Arc::from(name.into()),
            store: OfferStore::new(),
            property_types: BTreeMap::new(),
            gen: IdGen::new(),
            stats: TraderStats::default(),
            links: Vec::new(),
        }
    }

    /// The trader's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Counters.
    pub fn stats(&self) -> TraderStats {
        self.stats
    }

    /// Number of live offers.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the trader holds no offers.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The underlying offer store (read-only: indexes, type buckets).
    pub fn store(&self) -> &OfferStore {
        &self.store
    }

    /// Declares a secondary index over a top-level property. Existing
    /// offers are backfilled; subsequent exports, withdrawals, and
    /// modifications maintain it incrementally. [`IndexKind::Hash`]
    /// serves equality and `in`-set atoms; [`IndexKind::Ordered`]
    /// additionally serves range atoms.
    pub fn index_property(&mut self, property: impl Into<String>, kind: IndexKind) {
        self.store.create_index(property, kind);
    }

    /// Declares the property type offers of a service type must carry.
    /// Subsequent exports and modifications of offers of that type are
    /// checked against it. An import does not type-check its constraint:
    /// that is the caller's step, [`Self::check_request`], before it
    /// imports.
    ///
    /// # Errors
    ///
    /// Returns [`TraderError::BadProperties`] unless the type is a record.
    pub fn declare_property_type(
        &mut self,
        service_type: impl Into<String>,
        properties: rmodp_core::dtype::DataType,
    ) -> Result<(), TraderError> {
        if !matches!(properties, rmodp_core::dtype::DataType::Record(_)) {
            return Err(TraderError::BadProperties {
                got: properties.to_string(),
            });
        }
        self.property_types.insert(service_type.into(), properties);
        Ok(())
    }

    /// The declared property type for a service type, if any.
    pub fn property_type(&self, service_type: &str) -> Option<&rmodp_core::dtype::DataType> {
        self.property_types.get(service_type)
    }

    /// Statically validates an import request's constraint against a
    /// declared property type: the constraint must type-check and be
    /// boolean.
    ///
    /// # Errors
    ///
    /// Returns [`TraderError::ConstraintType`] when a declaration exists
    /// and the constraint does not fit it.
    pub fn check_request(&self, request: &ImportRequest) -> Result<(), TraderError> {
        let Some(ptype) = self.property_types.get(&request.service_type) else {
            return Ok(());
        };
        if let Some(constraint) = &request.constraint {
            let inferred = constraint
                .infer(ptype)
                .map_err(|e| TraderError::ConstraintType {
                    service_type: request.service_type.clone(),
                    detail: e.to_string(),
                })?;
            if inferred != rmodp_core::dtype::DataType::Bool {
                return Err(TraderError::ConstraintType {
                    service_type: request.service_type.clone(),
                    detail: format!("constraint has type {inferred}, expected bool"),
                });
            }
        }
        Ok(())
    }

    /// Exports a service offer. The offer shares its type's name with
    /// the offers of that type already held, and the trader's name: an
    /// export of a known type copies neither.
    ///
    /// # Errors
    ///
    /// Returns [`TraderError::BadProperties`] unless properties are a
    /// record, or [`TraderError::PropertyType`] if a declared property
    /// type for the service type is not satisfied.
    pub fn export(
        &mut self,
        service_type: impl AsRef<str>,
        interface: InterfaceId,
        properties: Value,
    ) -> Result<OfferId, TraderError> {
        if properties.as_record().is_none() {
            return Err(TraderError::BadProperties {
                got: properties.kind().to_owned(),
            });
        }
        let service_type = service_type.as_ref();
        self.check_properties(service_type, &properties)?;
        let id = self.gen.fresh();
        rmodp_observe::event(
            rmodp_observe::Layer::Trader,
            rmodp_observe::EventKind::TraderExport,
        )
        .in_context()
        .detail_fmt(format_args!(
            "trader={} offer={id} type={service_type} interface={interface}",
            self.name
        ))
        .emit();
        self.store.insert(ServiceOffer {
            id,
            service_type: self.store.type_name(service_type),
            interface,
            properties,
            held_by: Arc::clone(&self.name),
        });
        self.stats.exports += 1;
        rmodp_observe::bus::counter_add("trader.exports", 1);
        Ok(id)
    }

    /// Withdraws an offer.
    ///
    /// # Errors
    ///
    /// Returns [`TraderError::UnknownOffer`] if absent.
    pub fn withdraw(&mut self, offer: OfferId) -> Result<ServiceOffer, TraderError> {
        let o = self
            .store
            .remove(offer)
            .ok_or(TraderError::UnknownOffer { offer })?;
        self.stats.withdrawals += 1;
        Ok(o)
    }

    /// Replaces an offer's properties (e.g. a server updating its load).
    /// Secondary indexes are re-threaded for the changed keys.
    ///
    /// # Errors
    ///
    /// Unknown offer, non-record properties, or
    /// [`TraderError::PropertyType`] if the new properties do not satisfy
    /// the property type declared for the offer's service type.
    pub fn modify(&mut self, offer: OfferId, properties: Value) -> Result<(), TraderError> {
        if properties.as_record().is_none() {
            return Err(TraderError::BadProperties {
                got: properties.kind().to_owned(),
            });
        }
        let held = self
            .store
            .get(offer)
            .ok_or(TraderError::UnknownOffer { offer })?;
        self.check_properties(&held.service_type, &properties)?;
        self.store.replace_properties(offer, properties);
        Ok(())
    }

    /// Checks properties against the type declared for a service type, if
    /// one is.
    fn check_properties(&self, service_type: &str, properties: &Value) -> Result<(), TraderError> {
        let Some(ptype) = self.property_types.get(service_type) else {
            return Ok(());
        };
        ptype
            .check(properties)
            .map_err(|e| TraderError::PropertyType {
                service_type: service_type.to_owned(),
                detail: e.to_string(),
            })
    }

    /// Looks up an offer.
    pub fn offer(&self, offer: OfferId) -> Option<&ServiceOffer> {
        self.store.get(offer).map(Arc::as_ref)
    }

    /// Compiles an import request into a [`QueryPlan`] without running
    /// it — the plan-explain entry point. `plan.to_string()` renders the
    /// full explanation.
    pub fn explain(&self, request: &ImportRequest, repo: Option<&TypeRepository>) -> QueryPlan {
        plan_import(&self.store, request, repo).plan
    }

    /// Serves an import: type conformance (exact or subtype via the type
    /// repository), constraint satisfaction, preference ordering,
    /// cardinality bound.
    ///
    /// The request is compiled into an index-backed query plan first;
    /// only the plan's candidates reach the residual (the conjuncts no
    /// index answered exactly, and the preference, set up once for the
    /// whole import), and a [`Preference::FirstFound`] request stops at
    /// its `max_matches`-th match. Matching candidates are scored as
    /// borrowed offers; an ordered request picks its `max_matches` best
    /// of them (`keep_best`) and only the matches returned share their
    /// offer. The result — members *and* ordering — is identical to
    /// [`Self::import_scan`]. The plan is traced as a span
    /// (`trader_plan`), with the lookup event inside it.
    pub fn import(&mut self, request: &ImportRequest, repo: Option<&TypeRepository>) -> Vec<Match> {
        use rmodp_observe::{bus, event, EventKind, Layer};
        self.stats.imports += 1;
        let planned = plan_import(&self.store, request, repo);
        if planned.plan.fallback {
            self.stats.plans_fallback += 1;
            bus::counter_add("trader.plan.fallback", 1);
        } else {
            self.stats.plans_indexed += 1;
            bus::counter_add("trader.plan.indexed", 1);
        }
        let span = bus::new_span();
        event(Layer::Trader, EventKind::TraderPlan)
            .span(span)
            .parent_from_context()
            .detail_fmt(format_args!(
                "trader={} {}",
                self.name,
                planned.plan.summary()
            ))
            .emit();
        bus::push_context(span);

        let residual = Residual::new(&planned.residual, request);
        // Only an unordered request's matches are final as they are found.
        let enough = match request.preference {
            Preference::FirstFound => request.max_matches,
            _ => usize::MAX,
        };
        let mut found: Vec<(f64, &Arc<ServiceOffer>)> =
            Vec::with_capacity(enough.min(planned.candidates.len()));
        for id in planned.candidates.iter() {
            if found.len() >= enough {
                break;
            }
            self.stats.offers_considered += 1;
            let Some(offer) = self.store.get(*id) else {
                continue;
            };
            // An index can surface offers of other service types, so
            // its candidates are checked against the precomputed
            // conformant set; a fallback plan's come out of the matching
            // type buckets.
            if !planned.plan.fallback && !planned.matched_types.contains(&offer.service_type) {
                continue;
            }
            if let Some(score) = residual.score(offer) {
                found.push((score, offer));
            }
        }
        keep_best(
            &mut found,
            &request.preference,
            false,
            request.max_matches,
            |&(score, offer)| (score, offer),
        );
        let matches: Vec<Match> = found
            .into_iter()
            .map(|(score, offer)| Match {
                offer: Arc::clone(offer),
                score,
            })
            .collect();

        event(Layer::Trader, EventKind::TraderLookup)
            .in_context()
            .detail_fmt(format_args!(
                "trader={} type={} matches={}",
                self.name,
                request.service_type,
                matches.len()
            ))
            .emit();
        bus::counter_add("trader.lookups", 1);
        bus::pop_context();
        matches
    }

    /// The reference implementation of import: a full linear scan of
    /// every offer, exactly as the trader matched before indexes
    /// existed. Kept as the executable specification the planner is
    /// property-tested against, and as the baseline side of the
    /// `BENCH_trader.json` suite.
    pub fn import_scan(
        &mut self,
        request: &ImportRequest,
        repo: Option<&TypeRepository>,
    ) -> Vec<Match> {
        self.stats.imports += 1;
        let constraint_vars = request
            .constraint
            .as_ref()
            .map(|c| c.variables())
            .unwrap_or_default();
        let mut matches: Vec<Match> = Vec::new();
        for offer in self.store.iter() {
            self.stats.offers_considered += 1;
            let type_ok = *offer.service_type == *request.service_type
                || (request.allow_subtypes
                    && repo
                        .is_some_and(|r| r.is_subtype(&offer.service_type, &request.service_type)));
            if !type_ok {
                continue;
            }
            if let Some(m) = residual_match(offer, request, &constraint_vars) {
                matches.push(m);
            }
        }
        order_matches(&mut matches, &request.preference);
        matches.truncate(request.max_matches);
        rmodp_observe::event(
            rmodp_observe::Layer::Trader,
            rmodp_observe::EventKind::TraderLookup,
        )
        .in_context()
        .detail_fmt(format_args!(
            "trader={} type={} matches={} mode=scan",
            self.name,
            request.service_type,
            matches.len()
        ))
        .emit();
        rmodp_observe::bus::counter_add("trader.lookups", 1);
        matches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmodp_computational::signature::{InterfaceSignature, OperationalSignature};
    use rmodp_core::dtype::DataType;

    fn printer_trader() -> Trader {
        let mut t = Trader::new("office");
        t.export(
            "Printer",
            InterfaceId::new(1),
            Value::record([
                ("ppm", Value::Int(30)),
                ("colour", Value::Bool(true)),
                ("floor", Value::Int(2)),
            ]),
        )
        .unwrap();
        t.export(
            "Printer",
            InterfaceId::new(2),
            Value::record([
                ("ppm", Value::Int(55)),
                ("colour", Value::Bool(false)),
                ("floor", Value::Int(1)),
            ]),
        )
        .unwrap();
        t.export(
            "Scanner",
            InterfaceId::new(3),
            Value::record([("dpi", Value::Int(600))]),
        )
        .unwrap();
        t
    }

    #[test]
    fn import_filters_by_type_and_constraint() {
        let mut t = printer_trader();
        let req = ImportRequest::new("Printer")
            .constraint("ppm >= 40")
            .unwrap();
        let matches = t.import(&req, None);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].offer.interface, InterfaceId::new(2));
        // No constraint: both printers, never the scanner.
        let all = t.import(&ImportRequest::new("Printer"), None);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn indexed_import_matches_like_the_scan() {
        let mut t = printer_trader();
        t.index_property("ppm", IndexKind::Ordered);
        t.index_property("colour", IndexKind::Hash);
        for src in [
            "ppm >= 40",
            "colour == true",
            "ppm >= 40 and colour == false",
        ] {
            let req = ImportRequest::new("Printer").constraint(src).unwrap();
            let planned = t.import(&req, None);
            let scanned = t.import_scan(&req, None);
            assert_eq!(planned, scanned, "{src}");
        }
        let s = t.stats();
        assert_eq!(s.plans_indexed, 3);
        // The ppm >= 40 plan pre-filters down to one candidate.
        let plan = t.explain(
            &ImportRequest::new("Printer")
                .constraint("ppm >= 40")
                .unwrap(),
            None,
        );
        assert!(!plan.fallback);
        assert_eq!(plan.candidates, 1);
    }

    #[test]
    fn preference_orders_matches() {
        let mut t = printer_trader();
        let fastest = t.import(
            &ImportRequest::new("Printer").prefer_max("ppm").unwrap(),
            None,
        );
        assert_eq!(fastest[0].offer.interface, InterfaceId::new(2));
        assert_eq!(fastest[0].score, 55.0);
        let lowest_floor = t.import(
            &ImportRequest::new("Printer").prefer_min("floor").unwrap(),
            None,
        );
        assert_eq!(lowest_floor[0].offer.interface, InterfaceId::new(2));
        let limited = t.import(
            &ImportRequest::new("Printer")
                .prefer_max("ppm")
                .unwrap()
                .at_most(1),
            None,
        );
        assert_eq!(limited.len(), 1);
    }

    #[test]
    fn offers_missing_constrained_properties_do_not_match() {
        let mut t = printer_trader();
        // Only the scanner has dpi; constraining on dpi excludes printers
        // without failing the import.
        let req = ImportRequest::new("Printer").constraint("dpi > 0").unwrap();
        assert!(t.import(&req, None).is_empty());
    }

    #[test]
    fn subtype_offers_match_via_type_repository() {
        let mut repo = TypeRepository::new();
        let teller =
            OperationalSignature::new("BankTeller").announcement("Deposit", [("d", DataType::Int)]);
        let manager = OperationalSignature::new("BankManager")
            .announcement("Deposit", [("d", DataType::Int)])
            .announcement("CreateAccount", [("c", DataType::Int)]);
        repo.register(InterfaceSignature::Operational(teller))
            .unwrap();
        repo.register(InterfaceSignature::Operational(manager))
            .unwrap();

        let mut t = Trader::new("bank");
        t.export(
            "BankManager",
            InterfaceId::new(9),
            Value::record::<&str, _>([]),
        )
        .unwrap();
        // A BankManager offer satisfies a BankTeller import (Figure 3).
        let matches = t.import(&ImportRequest::new("BankTeller"), Some(&repo));
        assert_eq!(matches.len(), 1);
        // …but not with exact typing.
        let exact = t.import(&ImportRequest::new("BankTeller").exact_type(), Some(&repo));
        assert!(exact.is_empty());
        // And never the reverse direction.
        let t2 = &mut Trader::new("bank2");
        t2.export(
            "BankTeller",
            InterfaceId::new(1),
            Value::record::<&str, _>([]),
        )
        .unwrap();
        assert!(t2
            .import(&ImportRequest::new("BankManager"), Some(&repo))
            .is_empty());
    }

    #[test]
    fn withdraw_and_modify() {
        let mut t = printer_trader();
        t.index_property("dpi", IndexKind::Ordered);
        let id = t.import(&ImportRequest::new("Scanner"), None)[0].offer.id;
        t.modify(id, Value::record([("dpi", Value::Int(1200))]))
            .unwrap();
        let m = t.import(
            &ImportRequest::new("Scanner")
                .constraint("dpi >= 1200")
                .unwrap(),
            None,
        );
        assert_eq!(m.len(), 1);
        t.withdraw(id).unwrap();
        assert!(matches!(
            t.withdraw(id),
            Err(TraderError::UnknownOffer { .. })
        ));
        assert!(t.import(&ImportRequest::new("Scanner"), None).is_empty());
        assert_eq!(t.len(), 2);
        // The withdrawn offer left the index, too.
        assert_eq!(t.store().index("dpi").unwrap().entries(), 0);
    }

    #[test]
    fn a_match_is_a_snapshot_of_the_offer() {
        let mut t = printer_trader();
        t.index_property("ppm", IndexKind::Ordered);
        let fast = ImportRequest::new("Printer")
            .constraint("ppm >= 50")
            .unwrap();
        let before = t.import(&fast, None);
        assert_eq!(before.len(), 1);
        let id = before[0].offer.id;
        let ppm = |o: &ServiceOffer| o.properties.field("ppm").cloned();

        // Modify: the match taken earlier keeps the old properties, the
        // store and a new import show the new ones.
        t.modify(id, Value::record([("ppm", Value::Int(70))]))
            .unwrap();
        assert_eq!(ppm(&before[0].offer), Some(Value::Int(55)));
        assert_eq!(ppm(t.offer(id).unwrap()), Some(Value::Int(70)));
        let after = t.import(&fast, None);
        assert_eq!(ppm(&after[0].offer), Some(Value::Int(70)));
        assert_ne!(before, after);

        // Withdraw: the caller gets the offer as it is now, the matches
        // keep theirs, a new import finds nothing.
        let withdrawn = t.withdraw(id).unwrap();
        assert_eq!(withdrawn, *after[0].offer);
        assert_eq!(ppm(&before[0].offer), Some(Value::Int(55)));
        assert!(t.offer(id).is_none());
        assert!(t.import(&fast, None).is_empty());
    }

    #[test]
    fn offers_share_their_type_and_trader_names() {
        let mut t = printer_trader();
        let printers = t.store().type_postings("Printer").unwrap().to_vec();
        let [a, b] = printers[..] else {
            panic!("two printers: {printers:?}")
        };
        let shared = |id| Arc::clone(t.store().get(id).unwrap());
        let (a, b) = (shared(a), shared(b));
        assert!(Arc::ptr_eq(&a.service_type, &b.service_type));
        assert!(Arc::ptr_eq(&a.held_by, &b.held_by));
        let (name, _) = t.store().types().find(|(n, _)| &***n == "Printer").unwrap();
        assert!(Arc::ptr_eq(name, &a.service_type));
        let scanner = t.import(&ImportRequest::new("Scanner"), None)[0].clone();
        assert!(Arc::ptr_eq(&scanner.offer.held_by, &a.held_by));
        assert!(!Arc::ptr_eq(&scanner.offer.service_type, &a.service_type));

        // The type's last offer leaves, and its name with it; the type
        // comes back under a new one and explains as before.
        let request = ImportRequest::new("Scanner")
            .constraint("dpi >= 600")
            .unwrap();
        let explained = t.explain(&request, None).to_string();
        let withdrawn = t.withdraw(scanner.offer.id).unwrap();
        assert_eq!(withdrawn, *scanner.offer);
        assert!(t.store().type_postings("Scanner").is_none());
        let id = t
            .export(
                "Scanner",
                InterfaceId::new(3),
                Value::record([("dpi", Value::Int(600))]),
            )
            .unwrap();
        assert_eq!(t.explain(&request, None).to_string(), explained);
        let again = t.offer(id).unwrap();
        assert_eq!(&*again.service_type, "Scanner");
        assert!(!Arc::ptr_eq(
            &again.service_type,
            &scanner.offer.service_type
        ));
        assert_eq!(
            ServiceOffer {
                id: scanner.offer.id,
                ..again.clone()
            },
            withdrawn
        );
    }

    #[test]
    fn export_validates_properties() {
        let mut t = Trader::new("x");
        assert!(matches!(
            t.export("T", InterfaceId::new(1), Value::Int(5)),
            Err(TraderError::BadProperties { .. })
        ));
        let id = t
            .export("T", InterfaceId::new(1), Value::record::<&str, _>([]))
            .unwrap();
        assert!(matches!(
            t.modify(id, Value::Null),
            Err(TraderError::BadProperties { .. })
        ));
    }

    #[test]
    fn stats_count_activity() {
        let mut t = printer_trader();
        t.import(&ImportRequest::new("Printer"), None);
        let s = t.stats();
        assert_eq!(s.exports, 3);
        assert_eq!(s.imports, 1);
        // With no indexes the plan falls back to the type buckets: only
        // the two printers are examined, never the scanner.
        assert_eq!(s.offers_considered, 2);
        assert_eq!(s.plans_fallback, 1);
        assert_eq!(s.plans_indexed, 0);
    }

    #[test]
    fn a_bounded_first_found_import_stops_at_its_bound() {
        let mut t = Trader::new("bound");
        for i in 1..=20 {
            let ppm = if i == 3 { 10 } else { 50 };
            t.export(
                "Printer",
                InterfaceId::new(i),
                Value::record([("ppm", Value::Int(ppm))]),
            )
            .unwrap();
        }
        let examined = |t: &mut Trader, request: &ImportRequest| {
            let before = t.stats().offers_considered;
            let found = t.import(request, None);
            let examined = t.stats().offers_considered - before;
            assert_eq!(found, t.import_scan(request, None));
            (found.len() as u64, examined)
        };
        // The first n candidates match: exactly n are examined.
        let all = ImportRequest::new("Printer");
        assert_eq!(examined(&mut t, &all.clone().at_most(2)), (2, 2));
        assert_eq!(examined(&mut t, &all.clone().at_most(0)), (0, 0));
        assert_eq!(examined(&mut t, &all), (20, 20));
        // A non-match among them is examined too, and costs no match.
        let fast = all.clone().constraint("ppm >= 40").unwrap();
        assert_eq!(examined(&mut t, &fast.clone().at_most(4)), (4, 5));
        // An ordered request has to see every candidate before it cuts.
        let best = fast.prefer_max("ppm").unwrap().at_most(4);
        assert_eq!(examined(&mut t, &best), (4, 20));
    }

    #[test]
    fn a_nan_range_literal_matches_nothing() {
        use rmodp_core::expr::BinOp;
        let mut t = printer_trader();
        t.index_property("ppm", IndexKind::Ordered);
        // Built directly: the parser has no NaN literal, a caller can.
        for op in [BinOp::Gt, BinOp::Ge, BinOp::Lt, BinOp::Le] {
            let nan = Expr::Binary(
                op,
                Box::new(Expr::Var(vec!["ppm".to_owned()])),
                Box::new(Expr::Lit(Value::from(f64::NAN))),
            );
            let mut request = ImportRequest::new("Printer");
            request.constraint = Some(nan);
            assert_eq!(t.import(&request, None), [], "{op:?}");
            assert_eq!(t.import_scan(&request, None), [], "{op:?}");
        }
    }

    #[test]
    fn malformed_request_expressions_fail_fast() {
        assert!(ImportRequest::new("T").constraint("a >").is_err());
        assert!(ImportRequest::new("T").prefer_max("(").is_err());
    }
}
