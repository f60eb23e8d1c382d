//! The indexed offer repository.
//!
//! An [`OfferStore`] is the engineering-viewpoint realisation of the
//! trader's offer database: the tutorial's §8.3.2 describes the trader
//! as a *directory of service advertisements*, read far more often than
//! written, so its containers are flat — an import reads rows, it does
//! not chase tree nodes. The store keeps:
//!
//! - the **offer slab** `Vec<Option<Arc<ServiceOffer>>>` indexed by the
//!   raw [`OfferId`] (the holding trader's generator counts up from 1):
//!   a candidate costs one indexed load, a withdrawn offer leaves a
//!   hole, an id past the end is absent and a lookup never grows the
//!   slab. Iteration is ascending offer id, the order the original scan
//!   matcher observed, which is what keeps index-backed matching
//!   byte-identical to the scan. Offers are shared, so an import hands
//!   out reference counts, not copies; a modification copies on write
//!   only while a match still holds the old offer;
//! - the **service-type index** `type name → posting list`. Its key is
//!   the one copy of a type's name: every offer of the type shares it
//!   (`ServiceOffer::service_type`, an `Arc<str>`), and so do the type
//!   buckets a plan reports, so an export of a known type allocates no
//!   name and a withdrawal frees none;
//! - optional **per-property secondary indexes** `key → posting list`,
//!   either exact-match hash maps or ordered B-tree maps
//!   ([`IndexKind`]), over the offers' top-level scalar properties.
//!
//! # What a write costs
//!
//! A posting list is one strictly ascending `Vec<OfferId>`, which the
//! planner reads in place and intersects as a slice. Posting an id above
//! the list's last — every export's fresh id — is an append. Anything else
//! (a withdrawal; a modify unposts the old key, posts the new) is a
//! binary search and a `memmove` of the tail, O(list) per list touched:
//! ~32 KB and a few microseconds to withdraw from an 8,000-id type
//! bucket (`trader-mix`'s `Printer`) — the price of the dense reads.
//!
//! # Key normalisation, soundness and exactness
//!
//! Secondary index keys are [`PropKey`]s: scalar property values
//! normalised so that key equality/order *over-approximates* the
//! constraint evaluator's semantics. Numbers (int or float) share one
//! key band keyed by the total-order bits of their `f64` widening —
//! exactly the widening `Expr::eval` applies when comparing mixed
//! numerics. An index lookup may therefore return a non-match, but
//! never misses a match.
//!
//! The widening is lossy only for an `Int` beyond ±2⁵³, which may share
//! a key with a value it does not equal (`2⁵³ + 1` keys as `2⁵³`). Each
//! [`PropertyIndex`] counts the offers it posts under such an `Int`,
//! on insert, removal and property replacement alike; while the count
//! is 0 the index is *exact* ([`PropertyIndex::is_exact`]): every key
//! stands for one number, one text or one bool, and the ids under a key
//! — or a key range — are exactly the offers whose value the evaluator
//! finds equal to — or ordered within — a literal of that key. A `NaN`
//! keys above `+inf`, outside every numeric range, and equals no
//! non-NaN literal, so it needs no count. The planner lets an exact
//! index answer an atom without re-evaluating it per candidate, and
//! keeps every other atom in the residual — see `DESIGN.md` §Trader for
//! the full argument.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::ops::Bound;
use std::sync::Arc;

use rmodp_core::id::OfferId;
use rmodp_core::value::Value;

use crate::offer::ServiceOffer;

/// A normalised, totally ordered secondary-index key.
///
/// Variants are banded: booleans, then numbers, then text. Range scans
/// stay inside one band, so a numeric range can never pull in text
/// keys (the evaluator would reject such a comparison anyway).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PropKey {
    /// A boolean property value.
    Bool(bool),
    /// A numeric property value: the total-order bits of the `f64`
    /// widening (ints widen exactly like `Expr::eval` widens them).
    Num(u64),
    /// A text property value.
    Text(String),
}

/// Maps an `f64` to bits whose unsigned order matches the numeric
/// order (`-inf < … < -0 = +0 < … < +inf < NaN`). `-0.0` is
/// normalised onto `+0.0` so the two equal floats share a key.
fn num_bits(x: f64) -> u64 {
    let x = if x == 0.0 {
        0.0
    } else if x.is_nan() {
        f64::NAN
    } else {
        x
    };
    let b = x.to_bits() as i64;
    (if b < 0 { !b } else { b ^ i64::MIN }) as u64
}

impl PropKey {
    /// The key for a scalar value; `None` for non-scalars (null, blob,
    /// seq, record, ref), which are never indexed — no sargable atom
    /// can accept them, so leaving them out of candidate sets is
    /// sound.
    pub fn of(v: &Value) -> Option<PropKey> {
        match v {
            Value::Bool(b) => Some(PropKey::Bool(*b)),
            Value::Int(i) => Some(PropKey::Num(num_bits(*i as f64))),
            Value::Float(x) => Some(PropKey::Num(num_bits(*x))),
            Value::Text(s) => Some(PropKey::Text(s.clone())),
            _ => None,
        }
    }

    /// The smallest and largest possible numeric keys — the bounds of
    /// the numeric band, used by the planner for one-sided ranges.
    pub fn num_band() -> (PropKey, PropKey) {
        (
            PropKey::Num(num_bits(f64::NEG_INFINITY)),
            PropKey::Num(num_bits(f64::INFINITY)),
        )
    }
}

/// The physical shape of one secondary index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Exact-match lookups only (a hash map of postings).
    Hash,
    /// Exact-match *and* range lookups (an ordered B-tree of postings).
    Ordered,
}

impl fmt::Display for IndexKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IndexKind::Hash => "hash",
            IndexKind::Ordered => "btree",
        })
    }
}

/// Adds an id to an ascending posting list: appended when it is the
/// largest, placed by binary search otherwise. `false` if already there.
fn post(list: &mut Vec<OfferId>, id: OfferId) -> bool {
    if list.last() < Some(&id) {
        list.push(id);
        return true;
    }
    list.binary_search(&id)
        .map_err(|at| list.insert(at, id))
        .is_err()
}

/// Takes an id out of an ascending posting list. `false` if not there.
fn unpost(list: &mut Vec<OfferId>, id: OfferId) -> bool {
    list.binary_search(&id).map(|at| list.remove(at)).is_ok()
}

#[derive(Debug)]
enum Postings {
    Hash(HashMap<PropKey, Vec<OfferId>>),
    Ordered(BTreeMap<PropKey, Vec<OfferId>>),
}

/// Whether a value is an `Int` beyond ±2⁵³, whose `f64` widening is
/// lossy: the only scalar whose key may be shared with a value it does
/// not equal (`2⁵³ + 1` keys as `2⁵³`).
pub(crate) fn lossy(v: &Value) -> bool {
    matches!(v, Value::Int(i) if i.unsigned_abs() > 1 << 53)
}

/// One secondary index over a top-level property.
#[derive(Debug)]
pub struct PropertyIndex {
    kind: IndexKind,
    postings: Postings,
    /// Offers currently indexed (those whose value for the property is
    /// a scalar).
    entries: usize,
    /// Offers indexed under a [lossy](lossy) `Int`: while there are
    /// none, the index is exact.
    lossy: usize,
}

impl PropertyIndex {
    fn new(kind: IndexKind) -> Self {
        let postings = match kind {
            IndexKind::Hash => Postings::Hash(HashMap::new()),
            IndexKind::Ordered => Postings::Ordered(BTreeMap::new()),
        };
        Self {
            kind,
            postings,
            entries: 0,
            lossy: 0,
        }
    }

    /// The index's physical shape.
    pub fn kind(&self) -> IndexKind {
        self.kind
    }

    /// Offers indexed (offers whose property value is scalar).
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Whether no offer is posted under a lossy `Int`, so that
    /// every key stands for one number, text or bool (module docs).
    pub fn is_exact(&self) -> bool {
        self.lossy == 0
    }

    /// Posts an offer under its value for the property, if scalar.
    fn insert(&mut self, value: &Value, id: OfferId) {
        let Some(key) = PropKey::of(value) else {
            return;
        };
        let list = match &mut self.postings {
            Postings::Hash(m) => m.entry(key).or_default(),
            Postings::Ordered(m) => m.entry(key).or_default(),
        };
        if post(list, id) {
            self.entries += 1;
            self.lossy += usize::from(lossy(value));
        }
    }

    /// Unposts an offer from under its value for the property: the
    /// value it was posted with, so that the lossy count stays true (the
    /// store re-threads a replaced value by value, not by key).
    fn remove(&mut self, value: &Value, id: OfferId) {
        let Some(key) = PropKey::of(value) else {
            return;
        };
        let list = match &mut self.postings {
            Postings::Hash(m) => m.get_mut(&key),
            Postings::Ordered(m) => m.get_mut(&key),
        };
        let Some(list) = list else { return };
        // Only an id that was posted under the key counts as removed.
        if !unpost(list, id) {
            return;
        }
        self.entries -= 1;
        self.lossy -= usize::from(lossy(value));
        if list.is_empty() {
            match &mut self.postings {
                Postings::Hash(m) => m.remove(&key),
                Postings::Ordered(m) => m.remove(&key),
            };
        }
    }

    /// The posting list for an exact key, ascending, if any.
    pub fn eq_postings(&self, key: &PropKey) -> Option<&[OfferId]> {
        match &self.postings {
            Postings::Hash(m) => m.get(key),
            Postings::Ordered(m) => m.get(key),
        }
        .map(Vec::as_slice)
    }

    /// Whether the index can serve range lookups.
    pub fn supports_range(&self) -> bool {
        matches!(self.postings, Postings::Ordered(_))
    }

    /// The posting lists in a key band (ordered indexes only),
    /// ascending by key.
    pub fn range_postings(&self, lo: Bound<&PropKey>, hi: Bound<&PropKey>) -> Vec<&[OfferId]> {
        match &self.postings {
            Postings::Ordered(m) => m.range((lo, hi)).map(|(_, s)| s.as_slice()).collect(),
            Postings::Hash(_) => Vec::new(),
        }
    }
}

/// The trader's offer repository: offer slab, service-type index,
/// declared per-property secondary indexes.
///
/// The slab holds each offer once, behind an `Arc` an import shares
/// rather than copies; the type index's keys are the names the offers of
/// each type share (module docs).
#[derive(Debug, Default)]
pub struct OfferStore {
    /// Slot `n` holds offer `n`, or `None` (never exported, withdrawn);
    /// `live` counts the offers.
    offers: Vec<Option<Arc<ServiceOffer>>>,
    live: usize,
    by_type: BTreeMap<Arc<str>, Vec<OfferId>>,
    indexes: BTreeMap<String, PropertyIndex>,
}

/// The slab slot of an id, if the address space has one.
fn slot(id: OfferId) -> Option<usize> {
    usize::try_from(id.raw()).ok()
}

impl OfferStore {
    /// An empty store with no secondary indexes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live offers.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// One offer by id. Cloning the `Arc` shares the offer as it is now.
    pub fn get(&self, id: OfferId) -> Option<&Arc<ServiceOffer>> {
        self.offers.get(slot(id)?)?.as_ref()
    }

    /// All offers, ascending by id — the canonical match order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<ServiceOffer>> {
        self.offers.iter().flatten()
    }

    /// The service types currently present, with their offer counts.
    /// Each name is the one its offers share.
    pub fn types(&self) -> impl Iterator<Item = (&Arc<str>, usize)> {
        self.by_type.iter().map(|(t, s)| (t, s.len()))
    }

    /// The name an offer of `service_type` shares: the type index's key
    /// while the type has offers, a new one otherwise (which the offer's
    /// insertion makes the key).
    pub(crate) fn type_name(&self, service_type: &str) -> Arc<str> {
        match self.by_type.get_key_value(service_type) {
            Some((name, _)) => Arc::clone(name),
            None => Arc::from(service_type),
        }
    }

    /// The posting list of one service type, ascending.
    pub fn type_postings(&self, service_type: &str) -> Option<&[OfferId]> {
        self.by_type.get(service_type).map(Vec::as_slice)
    }

    /// The secondary index on a property, if declared.
    pub fn index(&self, property: &str) -> Option<&PropertyIndex> {
        self.indexes.get(property)
    }

    /// Declares a secondary index on a top-level property and
    /// backfills it from the live offers. Re-declaring a property
    /// rebuilds it with the new kind.
    pub fn create_index(&mut self, property: impl Into<String>, kind: IndexKind) {
        let property = property.into();
        let mut index = PropertyIndex::new(kind);
        for offer in self.iter() {
            if let Some(value) = offer.properties.field(&property) {
                index.insert(value, offer.id);
            }
        }
        self.indexes.insert(property, index);
    }

    /// Inserts an offer (the caller has already validated it), replacing
    /// a live one of its id. The slab grows to the largest id: keep ids dense.
    ///
    /// # Panics
    ///
    /// Panics if the id does not fit the address space.
    pub fn insert(&mut self, offer: ServiceOffer) {
        let id = offer.id;
        let at = slot(id).expect("offer ids are dense and fit the address space");
        self.remove(id);
        let name = Arc::clone(&offer.service_type);
        post(self.by_type.entry(name).or_default(), id);
        for (property, index) in &mut self.indexes {
            if let Some(value) = offer.properties.field(property) {
                index.insert(value, id);
            }
        }
        self.offers.resize(self.offers.len().max(at + 1), None);
        self.offers[at] = Some(Arc::new(offer));
        self.live += 1;
    }

    /// Removes an offer, unthreading it from every index. The offer is
    /// copied only if a match still shares it, and then its names are
    /// shared, not copied.
    pub fn remove(&mut self, id: OfferId) -> Option<ServiceOffer> {
        let offer = self.offers.get_mut(slot(id)?)?.take()?;
        self.live -= 1;
        if let Some(list) = self.by_type.get_mut(&*offer.service_type) {
            unpost(list, id);
            if list.is_empty() {
                self.by_type.remove(&*offer.service_type);
            }
        }
        for (property, index) in &mut self.indexes {
            if let Some(value) = offer.properties.field(property) {
                index.remove(value, id);
            }
        }
        Some(Arc::unwrap_or_clone(offer))
    }

    /// Replaces an offer's properties, keeping every secondary index
    /// consistent. A match handed out earlier keeps the offer as it was
    /// (copy on write).
    ///
    /// Returns `false` if the offer does not exist.
    pub fn replace_properties(&mut self, id: OfferId, properties: Value) -> bool {
        let Some(offer) = slot(id).and_then(|at| self.offers.get_mut(at)?.as_mut()) else {
            return false;
        };
        for (property, index) in &mut self.indexes {
            // Values, not keys: `2⁵³ + 1` shares `2⁵³`'s key but not its
            // count of lossy ints.
            let old = offer.properties.field(property);
            let new = properties.field(property);
            if old != new {
                if let Some(value) = old {
                    index.remove(value, id);
                }
                if let Some(value) = new {
                    index.insert(value, id);
                }
            }
        }
        Arc::make_mut(offer).properties = properties;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trader::{Trader, TraderError};
    use proptest::prelude::*;
    use rmodp_core::id::InterfaceId;
    use std::collections::BTreeSet;

    fn none() -> Value {
        Value::record::<&str, _>([])
    }

    fn offer(id: u64, service_type: &str, props: Value) -> ServiceOffer {
        ServiceOffer {
            id: OfferId::new(id),
            service_type: service_type.into(),
            interface: InterfaceId::new(id),
            properties: props,
            held_by: "s".into(),
        }
    }

    fn store() -> OfferStore {
        let mut s = OfferStore::new();
        s.create_index("ppm", IndexKind::Ordered);
        s.create_index("region", IndexKind::Hash);
        for (id, ppm, region) in [(1, 30, "bne"), (2, 55, "syd"), (3, 55, "bne")] {
            s.insert(offer(
                id,
                "Printer",
                Value::record([("ppm", Value::Int(ppm)), ("region", Value::text(region))]),
            ));
        }
        s
    }

    #[test]
    fn type_index_tracks_inserts_and_removes() {
        let mut s = store();
        assert_eq!(s.type_postings("Printer").unwrap().len(), 3);
        s.remove(OfferId::new(2)).unwrap();
        assert_eq!(s.type_postings("Printer").unwrap().len(), 2);
        s.remove(OfferId::new(1)).unwrap();
        s.remove(OfferId::new(3)).unwrap();
        assert!(s.type_postings("Printer").is_none());
    }

    #[test]
    fn eq_and_range_postings_find_the_right_ids() {
        let s = store();
        let ppm = s.index("ppm").unwrap();
        let k55 = PropKey::of(&Value::Int(55)).unwrap();
        assert_eq!(ppm.eq_postings(&k55).unwrap().len(), 2);
        let lo = PropKey::of(&Value::Int(40)).unwrap();
        let (_, hi) = PropKey::num_band();
        let band = ppm.range_postings(Bound::Included(&lo), Bound::Included(&hi));
        assert_eq!(band.concat().len(), 2);
        let region = s.index("region").unwrap();
        let bne = PropKey::of(&Value::text("bne")).unwrap();
        assert_eq!(region.eq_postings(&bne).unwrap().len(), 2);
        assert!(!region.supports_range());
    }

    #[test]
    fn numeric_keys_unify_int_and_float() {
        // 55 == 55.0 under the evaluator; the index must agree.
        assert_eq!(
            PropKey::of(&Value::Int(55)),
            PropKey::of(&Value::Float(55.0))
        );
        assert_eq!(
            PropKey::of(&Value::Float(0.0)),
            PropKey::of(&Value::Float(-0.0))
        );
        // Ordering follows numeric order across the int/float seam.
        let k = |v: &Value| PropKey::of(v).unwrap();
        assert!(k(&Value::Float(-1.5)) < k(&Value::Int(0)));
        assert!(k(&Value::Int(0)) < k(&Value::Float(0.5)));
        assert!(k(&Value::Float(0.5)) < k(&Value::Int(1)));
        // NaN sorts into the band (above +inf) and never equals a number.
        assert!(k(&Value::Float(f64::NAN)) > k(&Value::Float(f64::INFINITY)));
    }

    #[test]
    fn non_scalars_are_unindexed() {
        let mut s = store();
        s.insert(offer(
            9,
            "Printer",
            Value::record([("ppm", Value::seq([]))]),
        ));
        assert_eq!(s.index("ppm").unwrap().entries(), 3);
        assert_eq!(s.type_postings("Printer").unwrap().len(), 4);
    }

    #[test]
    fn replace_properties_reindexes() {
        let mut s = store();
        let (_, hi) = PropKey::num_band();
        let lo = PropKey::of(&Value::Int(50)).unwrap();
        let count = |s: &OfferStore| {
            let ppm = s.index("ppm").unwrap();
            ppm.range_postings(Bound::Included(&lo), Bound::Included(&hi))
                .concat()
                .len()
        };
        assert_eq!(count(&s), 2);
        assert!(s.replace_properties(OfferId::new(1), Value::record([("ppm", Value::Int(90))])));
        assert_eq!(count(&s), 3);
        // Property dropped entirely: unindexed.
        assert!(s.replace_properties(
            OfferId::new(1),
            Value::record([("region", Value::text("mel"))])
        ));
        assert_eq!(s.index("ppm").unwrap().entries(), 2);
        assert!(!s.replace_properties(OfferId::new(77), Value::record::<&str, _>([])));
    }

    #[test]
    fn index_remove_counts_only_posted_ids() {
        let mut index = PropertyIndex::new(IndexKind::Ordered);
        let (v55, v30) = (Value::Int(55), Value::Int(30));
        let k55 = PropKey::of(&v55).unwrap();
        let k30 = PropKey::of(&v30).unwrap();
        index.insert(&v55, OfferId::new(2));
        index.insert(&v55, OfferId::new(3));
        index.insert(&v30, OfferId::new(1));
        assert_eq!(index.entries(), 3);
        // An id that is not under the key (or under another key) is not
        // a removal.
        index.remove(&v55, OfferId::new(1));
        index.remove(&v55, OfferId::new(99));
        assert_eq!(index.entries(), 3);
        assert_eq!(index.eq_postings(&k55).unwrap().len(), 2);
        // Removing twice counts once; the emptied key goes away.
        index.remove(&v30, OfferId::new(1));
        index.remove(&v30, OfferId::new(1));
        assert_eq!(index.entries(), 2);
        assert!(index.eq_postings(&k30).is_none());
    }

    #[test]
    fn hostile_ids_are_absent_and_lookups_never_grow_the_slab() {
        // Ids 1 to 3 in a bare store and in a trader's; 2 withdrawn from both.
        let mut s = store();
        let mut t = Trader::new("t");
        for interface in 1..=3 {
            t.export("Printer", InterfaceId::new(interface), none())
                .unwrap();
        }
        s.remove(OfferId::new(2)).unwrap();
        t.withdraw(OfferId::new(2)).unwrap();
        let slots = s.offers.len();
        for raw in [0, 2, slots as u64, slots as u64 + 1, u64::MAX] {
            let id = OfferId::new(raw);
            assert!(s.get(id).is_none(), "{raw}");
            assert!(s.remove(id).is_none(), "{raw}");
            assert!(!s.replace_properties(id, none()), "{raw}");
            assert!(t.offer(id).is_none(), "{raw}");
            let unknown = Err(TraderError::UnknownOffer { offer: id });
            assert_eq!(t.withdraw(id).map(|_| ()), unknown, "{raw}");
            assert_eq!(t.modify(id, none()), unknown, "{raw}");
        }
        assert_eq!((s.offers.len(), s.len()), (slots, 2));
        assert_eq!((t.store().offers.len(), t.len()), (slots, 2));
        assert_eq!(t.stats().withdrawals, 1);
    }

    #[test]
    fn len_counts_live_offers_and_iteration_skips_holes() {
        let mut s = OfferStore::new();
        assert!(s.is_empty());
        let ids = |s: &OfferStore| s.iter().map(|o| o.id.raw()).collect::<Vec<_>>();
        for id in [5, 2, 9] {
            s.insert(offer(id, "Printer", none()));
        }
        assert_eq!((s.len(), ids(&s)), (3, vec![2, 5, 9]));
        s.remove(OfferId::new(5)).unwrap();
        assert_eq!((s.len(), ids(&s)), (2, vec![2, 9]));
        // Insert-again fills the hole; inserting over a live id replaces
        // the offer and re-threads its postings.
        s.insert(offer(5, "Printer", none()));
        s.insert(offer(9, "Scanner", none()));
        assert_eq!((s.len(), ids(&s)), (3, vec![2, 5, 9]));
        assert_eq!(
            s.type_postings("Printer").unwrap(),
            [2, 5].map(OfferId::new)
        );
        assert_eq!(s.type_postings("Scanner").unwrap(), [OfferId::new(9)]);
        for id in [2, 5, 9] {
            s.remove(OfferId::new(id)).unwrap();
        }
        assert!(s.is_empty() && s.iter().next().is_none() && s.types().next().is_none());
    }

    proptest! {
        /// The posting lists of both index shapes against the sets they
        /// replaced: any interleaving of posts and unposts — duplicates,
        /// absent ids, ids out of order — leaves the same members under
        /// the same keys, strictly ascending, counted the same.
        #[test]
        fn posting_lists_model_id_sets(
            ops in proptest::collection::vec((any::<bool>(), 0i64..4, 0u64..12), 0..80),
        ) {
            let key = |k: i64| PropKey::of(&Value::Int(k)).unwrap();
            for kind in [IndexKind::Hash, IndexKind::Ordered] {
                let mut index = PropertyIndex::new(kind);
                let mut model: BTreeMap<PropKey, BTreeSet<OfferId>> = BTreeMap::new();
                for &(post, k, id) in &ops {
                    let id = OfferId::new(id);
                    if post {
                        index.insert(&Value::Int(k), id);
                        model.entry(key(k)).or_default().insert(id);
                    } else {
                        index.remove(&Value::Int(k), id);
                        model.get_mut(&key(k)).map(|set| set.remove(&id));
                        model.retain(|_, set| !set.is_empty());
                    }
                    let entries = model.values().map(BTreeSet::len).sum::<usize>();
                    prop_assert_eq!(index.entries(), entries);
                    let ranged = index.range_postings(Bound::Unbounded, Bound::Unbounded).concat();
                    prop_assert_eq!(ranged.len(), if index.supports_range() { entries } else { 0 });
                    for k in 0..4 {
                        let listed = index.eq_postings(&key(k)).map(<[OfferId]>::to_vec);
                        let expected = model.get(&key(k)).map(|set| set.iter().copied().collect());
                        prop_assert_eq!(listed, expected, "{} key {}", kind, k);
                    }
                }
            }
        }
    }

    proptest! {
        /// An index is exact exactly while no live offer holds a lossy
        /// `Int` under it, whatever sequence of inserts, removals and
        /// property replacements brought it there — `2⁵³ + 1` shares
        /// `2⁵³`'s key, so a replacement between the two must re-thread
        /// by value, not by key — and a backfilled index counts the same.
        #[test]
        fn an_index_is_exact_while_no_lossy_int_is_posted(
            ops in proptest::collection::vec((0u8..3, 1u64..6, 0usize..9), 0..60),
        ) {
            let values = [
                Some(Value::Int(0)),
                Some(Value::Int(1 << 53)),
                Some(Value::Int((1 << 53) + 1)),
                Some(Value::Int(-(1 << 53) - 1)),
                Some(Value::Int(i64::MIN)),
                Some(Value::Int(i64::MAX)),
                Some(Value::Float(9_007_199_254_740_993.0)),
                Some(Value::Float(f64::NAN)),
                None,
            ];
            let mut s = OfferStore::new();
            s.create_index("n", IndexKind::Ordered);
            let exact = |s: &OfferStore| {
                let lossy_live = s.iter().any(|o| o.properties.field("n").is_some_and(lossy));
                (s.index("n").unwrap().is_exact(), !lossy_live)
            };
            for (op, id, v) in ops {
                let props = Value::record(values[v].clone().map(|v| ("n", v)));
                match op {
                    0 => s.insert(offer(id, "Printer", props)),
                    1 => drop(s.remove(OfferId::new(id))),
                    _ => drop(s.replace_properties(OfferId::new(id), props)),
                }
                let (index, model) = exact(&s);
                prop_assert_eq!(index, model);
            }
            let incremental = exact(&s).0;
            s.create_index("n", IndexKind::Hash);
            prop_assert_eq!(exact(&s).0, incremental);
        }
    }

    #[test]
    fn backfilled_index_equals_incremental() {
        let mut s = store();
        s.create_index("ppm", IndexKind::Hash); // rebuild as hash
        let k = PropKey::of(&Value::Int(55)).unwrap();
        assert_eq!(s.index("ppm").unwrap().eq_postings(&k).unwrap().len(), 2);
        assert_eq!(s.index("ppm").unwrap().kind(), IndexKind::Hash);
    }
}
