//! The constraint query planner.
//!
//! [`plan_import`] compiles an [`ImportRequest`] against an
//! [`OfferStore`] into a [`QueryPlan`] — which access paths to use, in
//! what order — and executes its candidate-producing half:
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
//!    that, re-checking them per candidate (which the residual does
//!    anyway) is cheaper than materialising them.
//! 3. **Intersection.** Posting lists are ascending `OfferId` slices: a
//!    lone path of one list is the candidates as it lies. A path of
//!    several lists, or a second path, sets bits in a word map over the
//!    id span of the lists involved; maps are ANDed and the set bits read
//!    back ascending — the same order the naive scan visits offers,
//!    which is what keeps planned matching byte-identical.
//! 4. **Residual filter** (performed by the caller, `Trader::import`):
//!    the *full* original constraint, compiled once, is re-evaluated on
//!    every candidate. Index lookups are deliberately over-approximate
//!    (inclusive bounds at float boundaries, lossy `i64→f64` key
//!    unification), so the residual is what makes the planner exactly
//!    — not just approximately — equivalent to the scan.
//!
//! When no atom is servable (no constraint, no declared indexes, or
//! only opaque conjuncts), the plan is a transparent **fallback**: the
//! type-bucket union alone, which degenerates to the original full
//! scan restricted to type-conformant offers.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Bound;

use rmodp_core::expr::{Atom, BinOp};
use rmodp_core::id::OfferId;
use rmodp_core::value::Value;
use rmodp_typerepo::TypeRepository;

use crate::store::{IndexKind, OfferStore, PropKey};
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
}

/// The compiled plan for one import. Everything needed to explain the
/// query: matched type buckets, considered index paths, whether the
/// planner fell back to a type-bucket scan, and the candidate count
/// the residual filter received.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// The requested service type.
    pub service_type: String,
    /// Matching type buckets `(type, offers)`, in name order.
    pub types: Vec<(String, usize)>,
    /// Total offers across matching buckets.
    pub type_total: usize,
    /// Index paths considered, in selectivity order.
    pub steps: Vec<IndexStep>,
    /// The residual predicate (the full constraint), rendered.
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
                "  {} {}-index {}: ({}) -> {} offers",
                if s.used { "use " } else { "skip" },
                s.kind,
                s.property,
                s.atom,
                s.postings
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
/// order, and the matched-type set for the caller's per-candidate type
/// check (a fallback plan's candidates come out of the matching type
/// buckets and need none).
#[derive(Debug)]
pub struct PlannedImport {
    /// The compiled, explainable plan.
    pub plan: QueryPlan,
    /// Candidate offer ids, ascending.
    pub candidates: Vec<OfferId>,
    /// The service types that conform to the request.
    pub matched_types: BTreeSet<String>,
}

/// One access path with its posting lists.
struct Path<'a> {
    step: IndexStep,
    postings: Vec<&'a [OfferId]>,
    count: usize,
}

/// Collects the posting lists for one sargable atom, or `None` when the
/// declared index cannot serve it (range atom on a hash index).
/// Lookups over-approximate: all range bounds are inclusive, and
/// numeric keys unify int/float exactly as the evaluator does.
fn atom_postings<'a>(
    store: &'a OfferStore,
    atom: &Atom,
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
                    let key = PropKey::of(&c.rhs)?;
                    let sets = index.eq_postings(&key).into_iter().collect();
                    Some((property.clone(), index.kind(), rendered, sets))
                }
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    if !index.supports_range() {
                        return None;
                    }
                    let upper = matches!(c.op, BinOp::Lt | BinOp::Le);
                    let sets = match &c.rhs {
                        Value::Int(_) | Value::Float(_) => {
                            let key = PropKey::of(&c.rhs)?;
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
            let keys: BTreeSet<PropKey> = values.iter().filter_map(PropKey::of).collect();
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

    /// The candidates, ascending.
    fn into_ids(self) -> Vec<OfferId> {
        let (lo, words) = match self {
            Candidates::List(ids) => return ids.to_vec(),
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
        ids
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
pub fn plan_import(
    store: &OfferStore,
    request: &ImportRequest,
    repo: Option<&TypeRepository>,
) -> PlannedImport {
    // Matching type buckets: the requested type plus, under subtype
    // substitution, every present subtype the repository derives.
    let types: Vec<(String, usize)> = store
        .types()
        .filter(|(t, _)| {
            *t == request.service_type
                || (request.allow_subtypes
                    && repo.is_some_and(|r| r.is_subtype(t, &request.service_type)))
        })
        .map(|(t, n)| (t.to_owned(), n))
        .collect();
    let matched_types: BTreeSet<String> = types.iter().map(|(t, _)| t.clone()).collect();
    let type_total: usize = types.iter().map(|(_, n)| n).sum();

    // Secondary-index access paths from the constraint's atoms.
    let mut paths: Vec<Path<'_>> = Vec::new();
    if let Some(constraint) = &request.constraint {
        for atom in constraint.index_atoms() {
            if let Some((property, kind, atom_text, postings)) = atom_postings(store, &atom) {
                let count = postings.iter().map(|s| s.len()).sum();
                paths.push(Path {
                    step: IndexStep {
                        property,
                        kind,
                        atom: atom_text,
                        postings: count,
                        used: false,
                    },
                    postings,
                    count,
                });
            }
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

    let plan = QueryPlan {
        service_type: request.service_type.clone(),
        types,
        type_total,
        steps: paths.into_iter().map(|p| p.step).collect(),
        residual: request.constraint.as_ref().map(|c| c.to_string()),
        fallback,
        candidates: candidates.len(),
        store_len: store.len(),
    };
    PlannedImport {
        plan,
        candidates,
        matched_types,
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
        let planned = plan_import(&s, &ImportRequest::new("Printer"), None);
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
            ("ppm + 0 >= 0", live(&|o| o.service_type == "Printer")),
            ("ppm < 1000", live(&|_| true)),
            ("ppm == 30", live(&|o| ppm(o) == Some(30))),
            ("ppm >= 40", live(&|o| ppm(o) >= Some(40))),
            (
                "ppm >= 40 and region == \"bne\"",
                live(&|o| ppm(o) >= Some(40) && bne(o)),
            ),
        ] {
            let planned = plan_import(&s, &req(constraint), None);
            assert_eq!(planned.candidates, expected, "{constraint}");
        }
    }

    #[test]
    fn equality_drives_through_the_hash_index() {
        let s = store();
        let planned = plan_import(&s, &req("region == \"bne\""), None);
        assert!(!planned.plan.fallback);
        assert_eq!(planned.plan.steps.len(), 1);
        assert!(planned.plan.steps[0].used);
        assert_eq!(planned.candidates.len(), 50); // both types; residual fixes type
    }

    #[test]
    fn ranges_need_an_ordered_index() {
        let s = store();
        // ppm has a btree index: servable.
        let planned = plan_import(&s, &req("ppm >= 50"), None);
        assert!(!planned.plan.fallback);
        assert_eq!(planned.candidates.len(), 50);
        // region is hash-only: a range on it is planner-opaque.
        let planned = plan_import(&s, &req("region >= \"bne\""), None);
        assert!(planned.plan.fallback);
    }

    #[test]
    fn intersection_multiplies_selectivity() {
        let s = store();
        let planned = plan_import(&s, &req("ppm == 30 and region == \"syd\""), None);
        assert!(!planned.plan.fallback);
        assert_eq!(planned.plan.steps.iter().filter(|st| st.used).count(), 2);
        // ppm==30 ⇒ i%10==3 ⇒ odd ⇒ all syd: 10 offers.
        assert_eq!(planned.candidates.len(), 10);
    }

    #[test]
    fn incomparable_range_prunes_everything() {
        let s = store();
        let planned = plan_import(&s, &req("ppm < true"), None);
        assert!(!planned.plan.fallback);
        assert!(planned.candidates.is_empty());
    }

    #[test]
    fn explain_renders_every_section() {
        let s = store();
        let planned = plan_import(&s, &req("ppm >= 50 and region == \"bne\""), None);
        let text = planned.plan.to_string();
        assert!(text.contains("type-index"), "{text}");
        assert!(text.contains("btree-index ppm"), "{text}");
        assert!(text.contains("hash-index region"), "{text}");
        assert!(text.contains("residual filter"), "{text}");
        assert!(planned.plan.summary().to_string().contains("indexed"));
    }
}
