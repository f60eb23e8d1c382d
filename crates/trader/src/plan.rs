//! The constraint query planner.
//!
//! [`plan_import`] compiles an [`ImportRequest`] against an
//! [`OfferStore`] into a [`QueryPlan`] — which access paths to use, in
//! what order, and what is left for the residual filter — and executes
//! its candidate-producing half:
//!
//! 1. **Access paths.** The service-type index always provides one
//!    path (the union of matching type buckets). Every sargable atom
//!    of the constraint (see `rmodp_core::expr::Atom`) whose property
//!    has a declared secondary index that can serve it provides
//!    another.
//! 2. **Selectivity-based choice.** Every path's candidate count is
//!    known exactly (posting sizes are maintained by the store), so
//!    the cheapest path drives; other paths join the intersection only
//!    if they are within `INTERSECT_FACTOR`× of the driver — beyond
//!    that, re-checking them per candidate in the residual is cheaper
//!    than materialising them.
//! 3. **Intersection.** Posting lists are ascending `OfferId` slices: a
//!    lone path of one list is the candidates, read in place. A path of
//!    several lists, or a second path, sets bits in a word map over the
//!    id span of the lists involved; maps are ANDed and the set bits read
//!    back ascending — the same order the naive scan visits offers,
//!    which is what keeps planned matching byte-identical.
//! 4. **Residual filter** (performed by the caller, `Trader::import`):
//!    the conjuncts of the constraint that no used path answers
//!    *exactly* are evaluated on every candidate. A
//!    lookup answers its atom exactly when the offers it posts are the
//!    offers the atom holds on, no more (`serves_exactly` says when);
//!    every candidate lies on every used path, so such an atom is true
//!    on it and re-evaluating it could only say so again. Every other
//!    lookup over-approximates — strict bounds looked up inclusively,
//!    `in`-sets, a numeric key shared by a lossy `Int` (beyond ±2⁵³) and
//!    its `f64` neighbour — and its conjunct stays in the residual,
//!    which is what makes the planner exactly — not just approximately —
//!    equivalent to the scan.
//!
//! When no atom is servable (no constraint, no declared indexes, or
//! only opaque conjuncts), the plan is a transparent **fallback**: the
//! type-bucket union alone, which degenerates to the original full
//! scan restricted to type-conformant offers, with the whole
//! constraint as its residual.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt::{self, Write};
use std::ops::Bound;
use std::sync::Arc;

use rmodp_core::expr::{Atom, BinOp, Expr};
use rmodp_core::id::OfferId;
use rmodp_core::value::Value;
use rmodp_typerepo::TypeRepository;

use crate::store::{lossy, IndexKind, OfferStore, PropKey, PropertyIndex};
use crate::trader::ImportRequest;

/// A path whose candidate count exceeds the driver's by more than this
/// factor is left to the residual filter instead of being intersected.
const INTERSECT_FACTOR: usize = 8;

/// One secondary-index access path considered by the planner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexStep {
    /// The indexed property.
    pub property: String,
    /// The physical index shape.
    pub kind: IndexKind,
    /// The atom served, rendered (`ppm >= 40`).
    pub atom: String,
    /// Exact candidate count of this path.
    pub postings: usize,
    /// Whether the path joined the intersection (`false`: served by
    /// the residual filter instead).
    pub used: bool,
    /// Whether the path answers its atom exactly, so that the residual
    /// filter does not re-check it (see `serves_exactly`).
    pub exact: bool,
}

/// The compiled plan for one import. Everything needed to explain the
/// query: matched type buckets, considered index paths, whether the
/// planner fell back to a type-bucket scan, the residual that runs and
/// the candidate count it received.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// The requested service type.
    pub service_type: String,
    /// Matching type buckets `(type, offers)`, in name order; each name
    /// is the one the store's offers of the type share.
    pub types: Vec<(Arc<str>, usize)>,
    /// Total offers across matching buckets.
    pub type_total: usize,
    /// Index paths considered, in selectivity order.
    pub steps: Vec<IndexStep>,
    /// The residual predicate that runs per candidate — the conjuncts
    /// no step answers exactly, rendered — or `None` when none is left.
    pub residual: Option<String>,
    /// `true` when no secondary index pruned the search and the plan
    /// degenerated to the type-bucket scan.
    pub fallback: bool,
    /// Candidates handed to the residual filter.
    pub candidates: usize,
    /// Live offers in the store when the plan ran.
    pub store_len: usize,
}

impl QueryPlan {
    /// A one-line summary for event details; formats on demand.
    pub fn summary(&self) -> impl fmt::Display + '_ {
        fmt::from_fn(move |f| {
            let mode = if self.fallback {
                "fallback-scan"
            } else {
                "indexed"
            };
            let used = self.steps.iter().filter(|s| s.used).count();
            write!(
                f,
                "{mode} type={} buckets={} index_paths={used}/{} candidates={}/{}",
                self.service_type,
                self.types.len(),
                self.steps.len(),
                self.candidates,
                self.store_len,
            )
        })
    }
}

impl fmt::Display for QueryPlan {
    /// The multi-line plan-explain rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "plan: import {} ({} offers live)",
            self.service_type, self.store_len
        )?;
        let buckets: Vec<String> = self
            .types
            .iter()
            .map(|(t, n)| format!("{t}({n})"))
            .collect();
        writeln!(
            f,
            "  type-index: [{}] -> {} offers",
            buckets.join(", "),
            self.type_total
        )?;
        for s in &self.steps {
            writeln!(
                f,
                "  {} {}-index {}: ({}) -> {} offers{}",
                if s.used { "use " } else { "skip" },
                s.kind,
                s.property,
                s.atom,
                s.postings,
                if s.exact { ", exact" } else { "" }
            )?;
        }
        if self.fallback {
            writeln!(f, "  fallback: scan the type buckets")?;
        }
        match &self.residual {
            Some(r) => writeln!(f, "  residual filter: {r}")?,
            None => writeln!(f, "  residual filter: (none)")?,
        }
        write!(f, "  candidates: {} of {}", self.candidates, self.store_len)
    }
}

/// The planner's output: the plan, the candidate ids in ascending
/// order, the matched-type set for the caller's per-candidate type
/// check (a fallback plan's candidates come out of the matching type
/// buckets and need none), and the conjuncts the residual evaluates.
#[derive(Debug)]
pub struct PlannedImport<'a> {
    /// The compiled, explainable plan.
    pub plan: QueryPlan,
    /// Candidate offer ids, ascending: a lone posting list in place, or
    /// the ids read out of the word map.
    pub candidates: Cow<'a, [OfferId]>,
    /// The service types that conform to the request (the store's
    /// shared names).
    pub matched_types: BTreeSet<Arc<str>>,
    /// The constraint's conjuncts no used path answers exactly, in
    /// order: what the residual filter evaluates per candidate.
    pub residual: Vec<&'a Expr>,
}

/// One access path with its posting lists, the atom it serves and the
/// position of that atom's conjunct.
struct Path<'a> {
    step: IndexStep,
    postings: Vec<&'a [OfferId]>,
    count: usize,
    atom: Atom<'a>,
    conjunct: usize,
}

/// Collects the posting lists for one sargable atom, or `None` when the
/// declared index cannot serve it (range atom on a hash index).
/// Lookups over-approximate: all range bounds are inclusive, and
/// numeric keys unify int/float exactly as the evaluator does.
fn atom_postings<'a>(
    store: &'a OfferStore,
    atom: &Atom<'_>,
) -> Option<(String, IndexKind, String, Vec<&'a [OfferId]>)> {
    let [property] = atom.path() else {
        return None; // only top-level properties are indexed
    };
    let index = store.index(property)?;
    match atom {
        Atom::Cmp(c) => {
            let rendered = format!("{} {} {}", property, c.op.symbol(), c.rhs);
            match c.op {
                BinOp::Eq => {
                    let key = PropKey::of(c.rhs)?;
                    let sets = index.eq_postings(&key).into_iter().collect();
                    Some((property.clone(), index.kind(), rendered, sets))
                }
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    if !index.supports_range() {
                        return None;
                    }
                    let upper = matches!(c.op, BinOp::Lt | BinOp::Le);
                    let sets = match c.rhs {
                        Value::Int(_) | Value::Float(_) => {
                            let key = PropKey::of(c.rhs)?;
                            let (num_lo, num_hi) = PropKey::num_band();
                            let (lo, hi) = if upper { (num_lo, key) } else { (key, num_hi) };
                            // A NaN literal's key sorts above the band, so
                            // `> NaN` / `>= NaN` bounds cross: no offer
                            // compares with NaN, the atom matches nothing.
                            if lo > hi {
                                Vec::new()
                            } else {
                                index.range_postings(Bound::Included(&lo), Bound::Included(&hi))
                            }
                        }
                        Value::Text(s) => {
                            let key = PropKey::Text(s.clone());
                            if upper {
                                let lo = PropKey::Text(String::new());
                                index.range_postings(Bound::Included(&lo), Bound::Included(&key))
                            } else {
                                index.range_postings(Bound::Included(&key), Bound::Unbounded)
                            }
                        }
                        // Ordering a bool (or anything else) against a
                        // property is an evaluator type error on every
                        // offer: the atom matches nothing.
                        _ => Vec::new(),
                    };
                    Some((property.clone(), index.kind(), rendered, sets))
                }
                _ => None,
            }
        }
        Atom::InSet { values, .. } => {
            let keys: BTreeSet<PropKey> = values.iter().copied().filter_map(PropKey::of).collect();
            let sets = keys.iter().filter_map(|k| index.eq_postings(k)).collect();
            let rendered = format!(
                "{} in [{}]",
                property,
                values
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            Some((property.clone(), index.kind(), rendered, sets))
        }
    }
}

/// Whether a step answers its atom exactly, so that no candidate needs
/// it re-checked: the one place that decides which conjuncts leave the
/// residual. The step is used (every candidate lies on it), its index is
/// exact (no lossy `Int` posted), and the atom is `==` against a non-NaN
/// number that widens exactly, a text or a bool, or `>=`/`<=` against
/// such a number or a text: lookups whose keys say what the evaluator
/// would (DESIGN.md, "Trader at scale", step 4). Strict bounds are
/// looked up inclusively and `in`-sets are not judged: both stay.
fn serves_exactly(store: &OfferStore, step: &IndexStep, atom: &Atom<'_>) -> bool {
    let Atom::Cmp(c) = atom else {
        return false;
    };
    let number = match c.rhs {
        Value::Int(_) => !lossy(c.rhs),
        Value::Float(x) => !x.is_nan(),
        _ => false,
    };
    let literal = match c.op {
        BinOp::Eq => number || matches!(c.rhs, Value::Text(_) | Value::Bool(_)),
        BinOp::Ge | BinOp::Le => number || matches!(c.rhs, Value::Text(_)),
        _ => false,
    };
    step.used
        && literal
        && store
            .index(&step.property)
            .is_some_and(PropertyIndex::is_exact)
}

/// The candidate ids of the paths combined so far. A path of one posting
/// list is that list as it lies. A path of several lists (distinct keys
/// of one index, or distinct type buckets: pairwise disjoint), or a
/// second path to intersect, becomes a word map over the id span of the
/// lists involved — bit `i` of word `w` is id `lo + 64·w + i`: setting
/// the bits orders the union, ANDing two maps intersects them, and the
/// set bits read back ascending, in time linear in the ids and the
/// span's words.
enum Candidates<'a> {
    List(&'a [OfferId]),
    Map { lo: u64, words: Vec<u64> },
}

impl<'a> Candidates<'a> {
    /// One path's candidates.
    fn of(lists: &[&'a [OfferId]]) -> Self {
        match lists {
            [one] => Candidates::List(one),
            _ => Candidates::map(lists),
        }
    }

    /// A word map spanning the lists' smallest id to their largest.
    fn map(lists: &[&[OfferId]]) -> Self {
        let lo = lists.iter().filter_map(|l| l.first()).min();
        let hi = lists.iter().filter_map(|l| l.last()).max();
        let (Some(lo), Some(hi)) = (lo, hi) else {
            return Candidates::List(&[]);
        };
        let (lo, span) = (lo.raw(), hi.raw() - lo.raw());
        let len = usize::try_from(span / 64 + 1).expect("posted ids are slab slots");
        let mut words = vec![0; len];
        mark(&mut words, lo, lists);
        Candidates::Map { lo, words }
    }

    fn is_empty(&self) -> bool {
        match self {
            Candidates::List(ids) => ids.is_empty(),
            Candidates::Map { words, .. } => words.iter().all(|w| *w == 0),
        }
    }

    /// Keeps the candidates some list of a further path also holds.
    fn intersect(&mut self, lists: &[&[OfferId]]) {
        if let Candidates::List(ids) = *self {
            *self = Candidates::map(&[ids]);
        }
        let Candidates::Map { lo, words } = self else {
            return; // no candidates: nothing to keep
        };
        let mut other = vec![0; words.len()];
        mark(&mut other, *lo, lists);
        for (word, also) in words.iter_mut().zip(other) {
            *word &= also;
        }
    }

    /// The candidates, ascending: a lone list as it lies.
    fn into_ids(self) -> Cow<'a, [OfferId]> {
        let (lo, words) = match self {
            Candidates::List(ids) => return Cow::Borrowed(ids),
            Candidates::Map { lo, words } => (lo, words),
        };
        let count = words.iter().map(|w| w.count_ones() as usize).sum();
        let mut ids = Vec::with_capacity(count);
        for (w, mut word) in (0u64..).zip(words) {
            while word != 0 {
                ids.push(OfferId::new(lo + 64 * w + u64::from(word.trailing_zeros())));
                word &= word - 1;
            }
        }
        Cow::Owned(ids)
    }
}

/// Sets the bit of every listed id that falls inside the map's span.
fn mark(words: &mut [u64], lo: u64, lists: &[&[OfferId]]) {
    for id in lists.iter().flat_map(|l| l.iter()) {
        let Some(at) = id.raw().checked_sub(lo) else {
            continue;
        };
        if let Some(word) = usize::try_from(at / 64).ok().and_then(|w| words.get_mut(w)) {
            *word |= 1 << (at % 64);
        }
    }
}

/// Compiles and executes the candidate-producing half of an import.
pub fn plan_import<'a>(
    store: &'a OfferStore,
    request: &'a ImportRequest,
    repo: Option<&TypeRepository>,
) -> PlannedImport<'a> {
    // Matching type buckets: the requested type plus, under subtype
    // substitution, every present subtype the repository derives.
    let types: Vec<(Arc<str>, usize)> = store
        .types()
        .filter(|(t, _)| {
            ***t == *request.service_type
                || (request.allow_subtypes
                    && repo.is_some_and(|r| r.is_subtype(t, &request.service_type)))
        })
        .map(|(t, n)| (Arc::clone(t), n))
        .collect();
    let matched_types: BTreeSet<Arc<str>> = types.iter().map(|(t, _)| Arc::clone(t)).collect();
    let type_total: usize = types.iter().map(|(_, n)| n).sum();

    // Secondary-index access paths from the constraint's atoms.
    let mut conjuncts = request
        .constraint
        .as_ref()
        .map(Expr::conjuncts)
        .unwrap_or_default();
    let mut paths: Vec<Path<'_>> = Vec::new();
    for (conjunct, atom) in conjuncts
        .iter()
        .enumerate()
        .filter_map(|(at, c)| Some((at, Atom::of(c)?)))
    {
        if let Some((property, kind, atom_text, postings)) = atom_postings(store, &atom) {
            let count = postings.iter().map(|s| s.len()).sum();
            paths.push(Path {
                step: IndexStep {
                    property,
                    kind,
                    atom: atom_text,
                    postings: count,
                    used: false,
                    exact: false,
                },
                postings,
                count,
                atom,
                conjunct,
            });
        }
    }
    // Selectivity order: cheapest first; ties break on the rendered
    // atom so planning is deterministic.
    paths.sort_by(|a, b| a.count.cmp(&b.count).then(a.step.atom.cmp(&b.step.atom)));

    let fallback = paths.is_empty();
    let candidates = if fallback {
        let buckets: Vec<&[OfferId]> = matched_types
            .iter()
            .filter_map(|t| store.type_postings(t))
            .collect();
        Candidates::of(&buckets)
    } else {
        let budget = paths[0].count.saturating_mul(INTERSECT_FACTOR);
        paths[0].step.used = true;
        let mut combined = Candidates::of(&paths[0].postings);
        for path in &mut paths[1..] {
            // Past the budget the residual filter re-checks this atom.
            if path.count <= budget && !combined.is_empty() {
                path.step.used = true;
                combined.intersect(&path.postings);
            }
        }
        combined
    }
    .into_ids();

    // What the paths answer exactly leaves the residual.
    for path in &mut paths {
        path.step.exact = serves_exactly(store, &path.step, &path.atom);
    }
    let mut positions = 0..;
    conjuncts.retain(|_| {
        let at = positions.next();
        !paths.iter().any(|p| p.step.exact && Some(p.conjunct) == at)
    });
    let residual = (!conjuncts.is_empty()).then(|| {
        let mut text = String::new();
        for (at, conjunct) in conjuncts.iter().enumerate() {
            let and = if at == 0 { "" } else { " and " };
            write!(text, "{and}{conjunct}").expect("writing to a String cannot fail");
        }
        text
    });

    let plan = QueryPlan {
        service_type: request.service_type.clone(),
        types,
        type_total,
        steps: paths.into_iter().map(|p| p.step).collect(),
        residual,
        fallback,
        candidates: candidates.len(),
        store_len: store.len(),
    };
    PlannedImport {
        plan,
        candidates,
        matched_types,
        residual: conjuncts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offer::ServiceOffer;
    use rmodp_core::id::InterfaceId;

    fn store() -> OfferStore {
        let mut s = OfferStore::new();
        s.create_index("ppm", IndexKind::Ordered);
        s.create_index("region", IndexKind::Hash);
        for i in 1..=100u64 {
            s.insert(ServiceOffer {
                id: OfferId::new(i),
                service_type: if i % 4 == 0 { "Scanner" } else { "Printer" }.into(),
                interface: InterfaceId::new(i),
                properties: Value::record([
                    ("ppm", Value::Int((i % 10) as i64 * 10)),
                    (
                        "region",
                        Value::text(if i % 2 == 0 { "bne" } else { "syd" }),
                    ),
                ]),
                held_by: "t".into(),
            });
        }
        s
    }

    fn req(constraint: &str) -> ImportRequest {
        ImportRequest::new("Printer")
            .constraint(constraint)
            .unwrap()
    }

    #[test]
    fn unconstrained_imports_fall_back_to_type_buckets() {
        let s = store();
        let request = ImportRequest::new("Printer");
        let planned = plan_import(&s, &request, None);
        assert!(planned.plan.fallback);
        assert_eq!(planned.candidates.len(), 75);
        assert!(planned.candidates.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn materialise_is_the_sorted_concatenation() {
        let s = store();
        let ppm = s.index("ppm").unwrap();
        let key = |n: i64| PropKey::of(&Value::Int(n)).unwrap();
        let sorted_concat = |sets: &[&[OfferId]]| {
            let mut ids: Vec<OfferId> = sets.iter().flat_map(|s| s.iter().copied()).collect();
            ids.sort_unstable();
            ids
        };
        // One set, several disjoint sets (their id ranges interleave), and
        // the type-bucket union a fallback plan scans.
        let one = vec![ppm.eq_postings(&key(30)).unwrap()];
        let (lo, hi) = (key(40), key(90));
        let several = ppm.range_postings(Bound::Included(&lo), Bound::Included(&hi));
        assert_eq!(several.len(), 6);
        let buckets: Vec<_> = ["Printer", "Scanner"]
            .iter()
            .map(|t| s.type_postings(t).unwrap())
            .collect();
        // Lists at the top of a sparse id space: the map spans the lists,
        // two words here, not the ids below them.
        let ids = |raw: &[u64]| raw.iter().map(|&r| OfferId::new(r)).collect::<Vec<_>>();
        let (top, below) = (
            ids(&[u64::MAX - 70, u64::MAX - 3]),
            ids(&[u64::MAX - 64, u64::MAX]),
        );
        let sparse = vec![top.as_slice(), below.as_slice(), &[]];
        for sets in [&one, &several, &buckets, &sparse] {
            let ids = Candidates::of(sets).into_ids();
            assert!(ids.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(ids, sorted_concat(sets));
        }
        assert!(
            matches!(Candidates::of(&sparse), Candidates::Map { words, .. } if words.len() == 2)
        );
        assert!(matches!(Candidates::of(&one), Candidates::List(_)));
        assert_eq!(Candidates::of(&buckets).into_ids().len(), 100);
        assert!(Candidates::of(&[]).into_ids().is_empty());
        assert!(Candidates::of(&[&[], &[]]).is_empty());
    }

    proptest::proptest! {
        /// Combining paths — the first path's lists, then each further
        /// path's, ANDed in — is the intersection of the paths' unions,
        /// ascending, however the lists split and wherever the ids sit.
        #[test]
        fn combined_paths_are_the_intersection_of_their_unions(
            base in proptest::prop_oneof![
                proptest::prelude::Just(0u64),
                proptest::prelude::Just(1 << 40),
                proptest::prelude::Just(u64::MAX - 300),
            ],
            paths in proptest::collection::vec(
                (proptest::collection::vec(0u64..300, 0..60), 1u64..4),
                1..4,
            ),
        ) {
            // A path: disjoint ascending lists, id `n` in list `n % lists`.
            let paths: Vec<Vec<Vec<OfferId>>> = paths
                .iter()
                .map(|(ids, lists)| {
                    let ids: BTreeSet<u64> = ids.iter().copied().collect();
                    (0..*lists)
                        .map(|l| {
                            let mine = ids.iter().filter(|&&n| n % lists == l);
                            mine.map(|n| OfferId::new(base + n)).collect()
                        })
                        .collect()
                })
                .collect();
            let lists: Vec<Vec<&[OfferId]>> = paths
                .iter()
                .map(|p| p.iter().map(Vec::as_slice).collect())
                .collect();
            let mut combined = Candidates::of(&lists[0]);
            for path in &lists[1..] {
                combined.intersect(path);
            }
            let union = |p: &Vec<Vec<OfferId>>| -> BTreeSet<OfferId> {
                p.iter().flatten().copied().collect()
            };
            let mut model = union(&paths[0]);
            for path in &paths[1..] {
                model = model.intersection(&union(path)).copied().collect();
            }
            proptest::prop_assert_eq!(combined.into_ids(), model.into_iter().collect::<Vec<_>>());
        }
    }

    /// Withdrawn offers leave every posting list with their slot: no
    /// plan — fallback, one list, a range of several, an intersection —
    /// names one.
    #[test]
    fn a_withdrawn_offer_is_never_a_candidate() {
        let mut s = store();
        for id in (3..=100).step_by(7) {
            s.remove(OfferId::new(id)).unwrap();
        }
        let live = |keep: &dyn Fn(&ServiceOffer) -> bool| -> Vec<OfferId> {
            s.iter().filter(|o| keep(o)).map(|o| o.id).collect()
        };
        let ppm = |o: &ServiceOffer| o.properties.field("ppm").and_then(Value::as_int);
        let bne = |o: &ServiceOffer| o.properties.field("region") == Some(&Value::text("bne"));
        for (constraint, expected) in [
            ("ppm + 0 >= 0", live(&|o| &*o.service_type == "Printer")),
            ("ppm < 1000", live(&|_| true)),
            ("ppm == 30", live(&|o| ppm(o) == Some(30))),
            ("ppm >= 40", live(&|o| ppm(o) >= Some(40))),
            (
                "ppm >= 40 and region == \"bne\"",
                live(&|o| ppm(o) >= Some(40) && bne(o)),
            ),
        ] {
            let request = req(constraint);
            let planned = plan_import(&s, &request, None);
            assert_eq!(planned.candidates, expected, "{constraint}");
        }
    }

    #[test]
    fn equality_drives_through_the_hash_index() {
        let s = store();
        let request = req("region == \"bne\"");
        let planned = plan_import(&s, &request, None);
        assert!(!planned.plan.fallback);
        assert_eq!(planned.plan.steps.len(), 1);
        assert!(planned.plan.steps[0].used);
        assert_eq!(planned.candidates.len(), 50); // both types; residual fixes type
    }

    #[test]
    fn ranges_need_an_ordered_index() {
        let s = store();
        // ppm has a btree index: servable.
        let request = req("ppm >= 50");
        let planned = plan_import(&s, &request, None);
        assert!(!planned.plan.fallback);
        assert_eq!(planned.candidates.len(), 50);
        // region is hash-only: a range on it is planner-opaque.
        let request = req("region >= \"bne\"");
        let planned = plan_import(&s, &request, None);
        assert!(planned.plan.fallback);
    }

    #[test]
    fn intersection_multiplies_selectivity() {
        let s = store();
        let request = req("ppm == 30 and region == \"syd\"");
        let planned = plan_import(&s, &request, None);
        assert!(!planned.plan.fallback);
        assert_eq!(planned.plan.steps.iter().filter(|st| st.used).count(), 2);
        // ppm==30 ⇒ i%10==3 ⇒ odd ⇒ all syd: 10 offers.
        assert_eq!(planned.candidates.len(), 10);
    }

    #[test]
    fn incomparable_range_prunes_everything() {
        let s = store();
        let request = req("ppm < true");
        let planned = plan_import(&s, &request, None);
        assert!(!planned.plan.fallback);
        assert!(planned.candidates.is_empty());
    }

    #[test]
    fn explain_renders_every_section() {
        let s = store();
        let request = req("ppm >= 50 and region == \"bne\"");
        let planned = plan_import(&s, &request, None);
        let text = planned.plan.to_string();
        assert!(text.contains("type-index"), "{text}");
        assert!(text.contains("btree-index ppm"), "{text}");
        assert!(text.contains("hash-index region"), "{text}");
        assert!(text.contains("residual filter"), "{text}");
        assert!(planned.plan.summary().to_string().contains("indexed"));
    }

    /// The rendered residual of a plan and which steps are exact.
    fn residual_of(s: &OfferStore, constraint: &str) -> (Option<String>, Vec<bool>) {
        let request = req(constraint);
        let planned = plan_import(s, &request, None);
        let rendered = planned.plan.residual.clone();
        let kept: Vec<String> = planned.residual.iter().map(|c| c.to_string()).collect();
        assert_eq!(rendered, (!kept.is_empty()).then(|| kept.join(" and ")));
        let exact = planned.plan.steps.iter().map(|st| st.exact).collect();
        (rendered, exact)
    }

    #[test]
    fn exactly_answered_atoms_leave_the_residual() {
        let s = store();
        let none = |exact: Vec<bool>| (None, exact);
        let kept = |text: &str, exact: Vec<bool>| (Some(text.to_owned()), exact);
        for (constraint, expected) in [
            // Equality against an int, a text, a bool; both sides of a
            // range against an int, a float and a text.
            ("ppm == 30", none(vec![true])),
            ("ppm >= 50 and region == \"bne\"", none(vec![true, true])),
            ("50 <= ppm and ppm <= 80.5", none(vec![true, true])),
            // Strict bounds and in-sets are looked up inclusively.
            ("ppm > 50", kept("(ppm > 50)", vec![false])),
            ("ppm < 50", kept("(ppm < 50)", vec![false])),
            ("ppm in [30, 40]", kept("(ppm in [30, 40])", vec![false])),
            // A literal beyond ±2⁵³ keys with its f64 neighbours.
            (
                "ppm >= 9007199254740993",
                kept("(ppm >= 9007199254740993)", vec![false]),
            ),
            // A path past the budget is not intersected: its candidates
            // are not all on it.
            (
                "ppm == 30 and ppm >= 0",
                kept("(ppm >= 0)", vec![true, false]),
            ),
            // Opaque conjuncts stay, in order, around the exact one.
            (
                "ppm + 0 >= 1 and ppm >= 50 and region != \"bne\"",
                kept("((ppm + 0) >= 1) and (region != \"bne\")", vec![true]),
            ),
        ] {
            assert_eq!(residual_of(&s, constraint), expected, "{constraint}");
        }
        // A fallback plan keeps the whole constraint; no constraint, no residual.
        assert_eq!(
            residual_of(&s, "ppm + 0 >= 1 and colour == true"),
            kept("((ppm + 0) >= 1) and (colour == true)", vec![])
        );
        let request = ImportRequest::new("Printer");
        assert!(plan_import(&s, &request, None).plan.residual.is_none());
    }

    /// An index that posts an int beyond ±2⁵³ is inexact: every atom it
    /// serves stays in the residual, until the offer leaves.
    #[test]
    fn an_inexact_index_keeps_its_atoms_in_the_residual() {
        let mut s = store();
        let wide = |ppm: i64| ServiceOffer {
            id: OfferId::new(101),
            service_type: "Printer".into(),
            interface: InterfaceId::new(101),
            properties: Value::record([("ppm", Value::Int(ppm)), ("region", Value::text("bne"))]),
            held_by: "t".into(),
        };
        s.insert(wide((1 << 53) + 1));
        assert!(!s.index("ppm").unwrap().is_exact());
        assert!(s.index("region").unwrap().is_exact());
        // Both paths are used (51 offers each, ppm's first); only
        // region's answers its atom.
        let constraint = "ppm >= 50 and region == \"bne\"";
        assert_eq!(
            residual_of(&s, constraint),
            (Some("(ppm >= 50)".to_owned()), vec![false, true])
        );
        // 2⁵³ widens exactly: replacing the offer's value re-counts it.
        assert!(s.replace_properties(OfferId::new(101), wide(1 << 53).properties));
        assert_eq!(residual_of(&s, constraint), (None, vec![true, true]));
        s.insert(wide(i64::MIN));
        assert_eq!(
            residual_of(&s, "ppm == 30"),
            (Some("(ppm == 30)".to_owned()), vec![false])
        );
        s.remove(OfferId::new(101)).unwrap();
        assert_eq!(residual_of(&s, "ppm == 30"), (None, vec![true]));
    }

    #[test]
    fn explain_marks_exact_steps_and_renders_the_residual_that_runs() {
        let s = store();
        let request = req("ppm >= 50 and region == \"bne\"");
        let text = plan_import(&s, &request, None).plan.to_string();
        assert!(text.contains("(ppm >= 50) -> 50 offers, exact"), "{text}");
        assert!(
            text.contains("(region == \"bne\") -> 50 offers, exact"),
            "{text}"
        );
        assert!(text.contains("residual filter: (none)"), "{text}");
        let request = req("ppm > 50 and region == \"bne\"");
        let text = plan_import(&s, &request, None).plan.to_string();
        assert!(text.contains("(ppm > 50) -> 50 offers\n"), "{text}");
        assert!(text.contains("residual filter: (ppm > 50)\n"), "{text}");
    }
}
