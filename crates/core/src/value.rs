//! The ODP data model: [`Value`].
//!
//! Every piece of data that crosses an interface in this realisation —
//! operation parameters and results, information-object state, trader
//! service properties, cluster checkpoints — is a [`Value`]. Keeping a single
//! closed data model is what makes the access-transparency stubs (§9.1) able
//! to marshal *any* interaction between heterogeneous representations.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// A dynamically-typed ODP data value.
///
/// A `Record` keeps its fields sorted by name (see [`Record`]) so that
/// values have a canonical field order: equality, hashing of encodings,
/// and the deterministic simulator all rely on that stability.
///
/// # Example
///
/// ```
/// use rmodp_core::value::Value;
///
/// let v = Value::record([
///     ("balance", Value::Int(250)),
///     ("owner", Value::text("alice")),
/// ]);
/// assert_eq!(v.field("balance"), Some(&Value::Int(250)));
/// assert_eq!(v.path(&["owner"]).unwrap().as_text(), Some("alice"));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum Value {
    /// The absence of a value.
    #[default]
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit IEEE float.
    Float(f64),
    /// A UTF-8 string.
    Text(String),
    /// An opaque byte string.
    Blob(Vec<u8>),
    /// An ordered sequence of values.
    Seq(Vec<Value>),
    /// A record of named fields in canonical (sorted) order.
    Record(Record),
    /// A reference to an interface (or other identified entity), carried as
    /// the raw identifier. References are resolved by the infrastructure,
    /// never dereferenced by value code.
    Ref(u64),
}

impl Value {
    /// Convenience constructor for a text value.
    pub fn text(s: impl Into<String>) -> Self {
        Value::Text(s.into())
    }

    /// Convenience constructor for a record from `(name, value)` pairs.
    ///
    /// Later duplicates overwrite earlier ones, mirroring map insertion.
    /// Pairs already in ascending name order are taken as they come.
    pub fn record<K: AsRef<str>, I: IntoIterator<Item = (K, Value)>>(fields: I) -> Self {
        Value::Record(fields.into_iter().collect())
    }

    /// Convenience constructor for a sequence.
    pub fn seq<I: IntoIterator<Item = Value>>(items: I) -> Self {
        Value::Seq(items.into_iter().collect())
    }

    /// Returns the boolean inside, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the integer inside, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the float inside, widening an `Int` if necessary.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Returns the string inside, if this is a `Text`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the sequence inside, if this is a `Seq`.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(items) => Some(items),
            _ => None,
        }
    }

    /// Returns the fields inside, if this is a `Record`.
    pub fn as_record(&self) -> Option<&Record> {
        match self {
            Value::Record(fields) => Some(fields),
            _ => None,
        }
    }

    /// Looks up a field of a record value.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.as_record().and_then(|r| r.get(name))
    }

    /// Mutable field lookup on a record value.
    pub fn field_mut(&mut self, name: &str) -> Option<&mut Value> {
        match self {
            Value::Record(fields) => fields.get_mut(name),
            _ => None,
        }
    }

    /// Sets (or inserts) a field on a record value.
    ///
    /// Returns the previous value if the field existed. The name is
    /// looked up as a `&str` and copied only when the field is new, so
    /// replacing a field allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a `Record`; mutating a non-record as a record
    /// is a logic error in the caller.
    pub fn set_field(&mut self, name: impl AsRef<str>, value: Value) -> Option<Value> {
        match self {
            Value::Record(fields) => fields.insert(name, value),
            other => panic!("set_field on non-record value {other:?}"),
        }
    }

    /// Resolves a dotted path through nested records. Segments may be
    /// `&str` or `String`, so a caller holding either passes its slice as
    /// it is; the empty path resolves to the value itself.
    pub fn path<S: AsRef<str>>(&self, segments: &[S]) -> Option<&Value> {
        let mut cur = self;
        for seg in segments {
            cur = cur.field(seg.as_ref())?;
        }
        Some(cur)
    }

    /// A short name for the value's shape, used in error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Text(_) => "text",
            Value::Blob(_) => "blob",
            Value::Seq(_) => "seq",
            Value::Record(_) => "record",
            Value::Ref(_) => "ref",
        }
    }

    /// Whether this value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Structural size: the number of leaf values contained, counting this
    /// value itself when it is a leaf. Useful for workload generators.
    pub fn size(&self) -> usize {
        match self {
            Value::Seq(items) => items.iter().map(Value::size).sum::<usize>().max(1),
            Value::Record(fields) => fields.values().map(Value::size).sum::<usize>().max(1),
            _ => 1,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x:?}"),
            Value::Text(s) => write!(f, "{s:?}"),
            Value::Blob(b) => write!(f, "blob[{}]", b.len()),
            Value::Seq(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Record(fields) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
            Value::Ref(id) => write!(f, "ref({id})"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Self {
        Value::Seq(items.into_iter().map(Into::into).collect())
    }
}

/// The fields of a [`Value::Record`]: `(name, value)` pairs in one vector,
/// sorted by name, no name twice.
///
/// It answers to a map's method names, and its order, equality and
/// `{:?}` are a sorted map's, but it is sized for what a record is in
/// this model — the fields of one object, argument list or offer, a
/// handful to a few tens. Lookup is a binary search. Building one from
/// pairs that arrive in ascending order (every canonical encoding, most
/// literals) is one push per pair; pairs in any other order are sorted
/// once. An [`insert`](Self::insert) of a new name anywhere but the end
/// moves every later entry, up to `len()` of them, so a collection that
/// grows key by key to thousands of entries belongs in a `BTreeMap`, as
/// the store's keyspace is.
///
/// A name of up to 22 bytes is held in the entry itself, so building,
/// cloning and dropping a record of such names allocates only its one
/// vector.
#[derive(Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Record {
    fields: Vec<(Name, Value)>,
}

impl Record {
    /// An empty record. Allocates nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pairs in any order, any name any number of times: the record a
    /// map would hold after inserting them one by one (a later duplicate
    /// wins). Pairs already strictly ascending are kept as they are;
    /// anything else is sorted once.
    pub(crate) fn from_fields(mut fields: Vec<(Name, Value)>) -> Self {
        if !fields.windows(2).all(|pair| pair[0].0 < pair[1].0) {
            // Stable, so a name's occurrences stay in arrival order and
            // the last of each run is the one to keep.
            fields.sort_by(|a, b| a.0.cmp(&b.0));
            fields.dedup_by(|later, kept| {
                let repeated = later.0 == kept.0;
                if repeated {
                    std::mem::swap(later, kept);
                }
                repeated
            });
        }
        Self { fields }
    }

    /// The entries themselves, for a writer that copies each name's bytes.
    pub(crate) fn fields(&self) -> &[(Name, Value)] {
        &self.fields
    }

    /// The number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the record has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Where `name` is (`Ok`) or would be inserted (`Err`). Written out
    /// rather than `binary_search_by`, which probes without branching and
    /// never stops early: with a string comparison per probe, and the
    /// same few names asked for again and again, that took four times as
    /// long in a 64-field record (`core.value.field_get_set_ns`). A name
    /// of up to 22 bytes is ranked once and each probe compares three
    /// integers; a longer one compares bytes, which is `str` order. Inlined
    /// into each lookup: called, it read slower than the string compare
    /// it replaced.
    #[inline(always)]
    fn position(&self, name: &str) -> Result<usize, usize> {
        use std::cmp::Ordering::{Equal, Greater, Less};
        let name = name.as_bytes();
        let wanted = Rank::of(name);
        let (mut low, mut high) = (0, self.fields.len());
        while low < high {
            let mid = low + (high - low) / 2;
            let here = &self.fields[mid].0;
            let order = match (here.rank(), wanted) {
                (Some(here), Some(wanted)) => here.cmp(&wanted),
                _ => here.as_bytes().cmp(name),
            };
            match order {
                Less => low = mid + 1,
                Greater => high = mid,
                Equal => return Ok(mid),
            }
        }
        Err(low)
    }

    /// The value of the field `name`.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.position(name).ok().map(|i| &self.fields[i].1)
    }

    /// The value of the field `name`, mutably.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Value> {
        self.position(name).ok().map(|i| &mut self.fields[i].1)
    }

    /// Whether there is a field `name`.
    pub fn contains_key(&self, name: &str) -> bool {
        self.position(name).is_ok()
    }

    /// Sets the field `name`, returning the value it replaces. Only a
    /// new field copies `name`, and only one longer than 22 bytes
    /// allocates.
    pub fn insert(&mut self, name: impl AsRef<str>, value: Value) -> Option<Value> {
        self.insert_str(name.as_ref(), value)
    }

    /// [`insert`](Self::insert), compiled once here rather than in every
    /// caller.
    fn insert_str(&mut self, name: &str, value: Value) -> Option<Value> {
        match self.position(name) {
            Ok(i) => Some(std::mem::replace(&mut self.fields[i].1, value)),
            Err(i) => {
                self.fields.insert(i, (Name::new(name), value));
                None
            }
        }
    }

    /// Takes the field `name` out of the record.
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        self.position(name).ok().map(|i| self.fields.remove(i).1)
    }

    /// The fields in name order.
    pub fn iter(&self) -> Iter<'_> {
        Iter(self.fields.iter())
    }

    /// The field names in order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|(k, _)| k.as_str())
    }

    /// The field values in name order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.fields.iter().map(|(_, v)| v)
    }

    /// The field values in name order, mutably.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut Value> {
        self.fields.iter_mut().map(|(_, v)| v)
    }
}

/// Borrowing iterator over a [`Record`]'s fields.
#[derive(Debug, Clone)]
pub struct Iter<'a>(std::slice::Iter<'a, (Name, Value)>);

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a str, &'a Value);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(k, v)| (k.as_str(), v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// Owning iterator over a [`Record`]'s fields: each name becomes a
/// `String` as it is taken.
#[derive(Debug)]
pub struct IntoIter(std::vec::IntoIter<(Name, Value)>);

impl Iterator for IntoIter {
    type Item = (String, Value);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(k, v)| (k.as_str().to_owned(), v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for IntoIter {}

/// Prints as the map it stands for: `{"a": Int(1)}`.
impl fmt::Debug for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Pairs in any order, any name any number of times: the record a map
/// would hold after inserting them one by one (a later duplicate wins).
impl<K: AsRef<str>> FromIterator<(K, Value)> for Record {
    fn from_iter<I: IntoIterator<Item = (K, Value)>>(iter: I) -> Self {
        let fields = iter.into_iter().map(|(k, v)| (Name::new(k.as_ref()), v));
        Self::from_fields(fields.collect())
    }
}

/// A map's entries, whatever type names its keys.
impl<K: AsRef<str>> From<BTreeMap<K, Value>> for Record {
    fn from(map: BTreeMap<K, Value>) -> Self {
        map.into_iter().collect()
    }
}

impl IntoIterator for Record {
    type Item = (String, Value);
    type IntoIter = IntoIter;

    fn into_iter(self) -> Self::IntoIter {
        IntoIter(self.fields.into_iter())
    }
}

impl<'a> IntoIterator for &'a Record {
    type Item = (&'a str, &'a Value);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The most bytes a [`Name`] holds in place: a `String`'s 24 bytes, less
/// the variant's tag and the length.
const INLINE: usize = 22;

/// A record field name: one of up to [`INLINE`] bytes is held in place, a
/// longer one on the heap. A `Name` is the size of a `String`, so a
/// record's entry is the size it had when names were `String`s.
///
/// A name has one form for its length, and the bytes an inline one does
/// not use are zero, so equality of the two forms is equality of the
/// names. Names are ordered as bytes, which is `str` order; the writers
/// copy the bytes as they are. Only what hands a name out as a `&str`
/// checks an inline one's bytes as UTF-8 again, at most 22 of them: they
/// were copied whole from a `str`, or from bytes a parser checked.
#[derive(Clone, PartialEq, Eq)]
pub(crate) enum Name {
    Inline { len: u8, bytes: [u8; INLINE] },
    Heap(Box<str>),
}

impl Name {
    pub(crate) fn new(name: &str) -> Self {
        match padded(name.as_bytes()) {
            Some((len, bytes)) => Name::Inline { len, bytes },
            None => Name::Heap(name.into()),
        }
    }

    /// A name from bytes a parser has already checked as UTF-8: an inline
    /// one is copied as it is, and only a longer one is checked again, as
    /// it becomes the `str` on the heap.
    #[inline]
    pub(crate) fn from_checked(name: &[u8]) -> Self {
        match padded(name) {
            Some((len, bytes)) => Name::Inline { len, bytes },
            None => Name::Heap(
                std::str::from_utf8(name)
                    .expect("checked by the parser")
                    .into(),
            ),
        }
    }

    #[inline]
    pub(crate) fn as_bytes(&self) -> &[u8] {
        match self {
            Name::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Name::Heap(name) => name.as_bytes(),
        }
    }

    pub(crate) fn as_str(&self) -> &str {
        match self {
            Name::Inline { .. } => {
                std::str::from_utf8(self.as_bytes()).expect("copied whole from checked UTF-8")
            }
            Name::Heap(name) => name,
        }
    }

    /// The rank of an inline name.
    #[inline]
    fn rank(&self) -> Option<Rank> {
        match self {
            Name::Inline { len, bytes } => Some(Rank::new(*len, bytes)),
            Name::Heap(_) => None,
        }
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match (self.rank(), other.rank()) {
            (Some(a), Some(b)) => a.cmp(&b),
            _ => self.as_bytes().cmp(other.as_bytes()),
        }
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// Up to [`INLINE`] bytes as an inline name holds them: the length, and
/// the bytes followed by zeros.
#[inline]
fn padded(name: &[u8]) -> Option<(u8, [u8; INLINE])> {
    let len = u8::try_from(name.len())
        .ok()
        .filter(|&n| usize::from(n) <= INLINE)?;
    let mut bytes = [0; INLINE];
    bytes[..name.len()].copy_from_slice(name);
    Some((len, bytes))
}

/// Where a name of up to [`INLINE`] bytes sorts, as three integers
/// ordered as its bytes are: the zero-padded bytes 0–7 and 8–15 as
/// big-endian words, then bytes 15–21 and the length in a third (byte 15
/// is already equal when the third is reached). The length puts a name
/// before a longer one it is a prefix of, whatever bytes follow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Rank(u64, u64, u64);

impl Rank {
    #[inline]
    fn new(len: u8, bytes: &[u8; INLINE]) -> Self {
        let word = |at: usize| {
            let mut word = [0; 8];
            word.copy_from_slice(&bytes[at..at + 8]);
            u64::from_be_bytes(word)
        };
        Rank(word(0), word(8), (word(INLINE - 8) << 8) | u64::from(len))
    }

    #[inline]
    fn of(name: &[u8]) -> Option<Self> {
        padded(name).map(|(len, bytes)| Rank::new(len, &bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_fields_are_canonically_ordered() {
        let a = Value::record([("b", Value::Int(2)), ("a", Value::Int(1))]);
        let b = Value::record([("a", Value::Int(1)), ("b", Value::Int(2))]);
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "{a: 1, b: 2}");
    }

    #[test]
    fn path_resolves_nested_records() {
        let v = Value::record([("account", Value::record([("balance", Value::Int(500))]))]);
        assert_eq!(v.path(&["account", "balance"]), Some(&Value::Int(500)));
        assert_eq!(v.path(&["account", "missing"]), None);
        assert_eq!(v.path(&["nope"]), None);
    }

    #[test]
    fn accessors_reject_wrong_shapes() {
        assert_eq!(Value::Int(1).as_bool(), None);
        assert_eq!(Value::Bool(true).as_int(), None);
        assert_eq!(Value::Null.as_text(), None);
        assert_eq!(Value::text("x").as_seq(), None);
    }

    #[test]
    fn as_float_widens_ints() {
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
    }

    #[test]
    fn set_field_replaces_and_inserts() {
        let mut v = Value::record([("x", Value::Int(1))]);
        assert_eq!(v.set_field("x", Value::Int(2)), Some(Value::Int(1)));
        assert_eq!(v.set_field("y", Value::Int(3)), None);
        assert_eq!(v.field("x"), Some(&Value::Int(2)));
        assert_eq!(v.field("y"), Some(&Value::Int(3)));
    }

    #[test]
    fn replacing_a_field_keeps_every_allocation_it_had() {
        // The name is looked up as a `&str`: the names the record holds
        // and the vector around them are the ones it held before.
        let mut v = Value::record([("acct17", Value::Int(1)), ("acct52", Value::Int(2))]);
        let layout = |v: &Value| {
            let fields = &v.as_record().unwrap().fields;
            let keys: Vec<*const u8> = fields.iter().map(|(k, _)| k.as_bytes().as_ptr()).collect();
            (fields.as_ptr(), fields.capacity(), keys)
        };
        let before = layout(&v);
        assert_eq!(v.set_field("acct17", Value::Int(5)), Some(Value::Int(1)));
        let owned = String::from("acct52");
        assert_eq!(v.set_field(&owned, Value::Int(6)), Some(Value::Int(2)));
        assert_eq!(v.set_field(owned, Value::Int(7)), Some(Value::Int(6)));
        assert_eq!(layout(&v), before);
        assert_eq!(v.to_string(), "{acct17: 5, acct52: 7}");
    }

    #[test]
    fn a_record_answers_as_the_sorted_map_of_its_pairs() {
        let unsorted = [("b", 1), ("a", 2), ("b", 3), ("c", 4), ("a", 5)];
        let pairs = || {
            unsorted
                .iter()
                .map(|(k, n)| ((*k).to_owned(), Value::Int(*n)))
        };
        let record: Record = pairs().collect();
        let map: BTreeMap<String, Value> = pairs().collect();
        assert_eq!(record, Record::from(map.clone()));
        assert_eq!(format!("{record:?}"), format!("{map:?}"));
        assert_eq!(
            format!("{record:?}"),
            r#"{"a": Int(5), "b": Int(3), "c": Int(4)}"#
        );
        let by_str = || map.iter().map(|(k, v)| (k.as_str(), v));
        assert!(record.iter().eq(by_str()));
        assert!((&record).into_iter().eq(by_str()));
        assert_eq!(record.iter().len(), map.len());
        assert!(record.keys().eq(map.keys()));
        assert!(record.clone().into_iter().eq(map));
        assert!(Record::new().is_empty());
        // Already ascending: taken as it comes, nothing moved.
        let sorted = record.fields.clone();
        let at = sorted.as_ptr();
        assert_eq!(Record::from_fields(sorted).fields.as_ptr(), at);
    }

    #[test]
    fn a_name_is_the_size_of_a_string_and_a_field_keeps_its_size() {
        assert_eq!(std::mem::size_of::<Name>(), std::mem::size_of::<String>());
        assert_eq!(std::mem::size_of::<Value>(), 32);
        assert_eq!(std::mem::size_of::<(Name, Value)>(), 56);
    }

    #[test]
    fn a_name_is_inline_up_to_22_bytes() {
        let inline = |name: &Name| matches!(name, Name::Inline { .. });
        for (name, held_in_place) in [
            (String::new(), true),
            ("a".to_owned(), true),
            ("a".repeat(21), true),
            ("a".repeat(22), true),
            ("a".repeat(23), false),
            ("a".repeat(300), false),
            // 20 ASCII bytes and a two-byte `é` end at byte 22; one more
            // ASCII byte pushes the `é` across it.
            (format!("{}é", "a".repeat(20)), true),
            (format!("{}é", "a".repeat(21)), false),
        ] {
            let held = Name::new(&name);
            assert_eq!(inline(&held), held_in_place, "{} bytes", name.len());
            assert_eq!(held.as_str(), name);
            assert_eq!(held.as_bytes(), name.as_bytes());
            assert_eq!(format!("{held:?}"), format!("{name:?}"));
            assert_eq!(held.clone(), held);
        }
        // Byte order is `str` order, within and across the two forms: a
        // prefix, a trailing NUL (which the zero padding must not hide),
        // bytes past 15 and past 22, the largest scalar value.
        let long = "a".repeat(30);
        let names = [
            "",
            "\0",
            "\0\0",
            "a",
            "a\0",
            "a\0b",
            "ab",
            "aé",
            "b",
            "\u{10ffff}",
            &long,
            "aaaaaaaaaaaaaaaa",
            "aaaaaaaaaaaaaaaab",
            "aaaaaaaaaaaaaaaa\0",
            "aaaaaaaaaaaaaaaaaaaaaa",
            "aaaaaaaaaaaaaaaaaaaaab",
            "aaaaaaaaaaaaaaaaaaaaaa\0",
        ];
        for a in names {
            for b in names {
                let (held_a, held_b) = (Name::new(a), Name::new(b));
                assert_eq!(held_a.cmp(&held_b), a.cmp(b), "{a:?} against {b:?}");
                assert_eq!(held_a == held_b, a == b, "{a:?} against {b:?}");
                let record = Value::record([(a, Value::Int(1))]);
                assert_eq!(record.field(b).is_some(), a == b, "{a:?} against {b:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "set_field on non-record")]
    fn set_field_on_non_record_panics() {
        let mut v = Value::Int(1);
        v.set_field("x", Value::Null);
    }

    #[test]
    fn size_counts_leaves() {
        assert_eq!(Value::Int(1).size(), 1);
        let v = Value::record([
            ("a", Value::seq([Value::Int(1), Value::Int(2)])),
            ("b", Value::text("x")),
        ]);
        assert_eq!(v.size(), 3);
        // Empty containers still count as one unit of structure.
        assert_eq!(Value::seq([]).size(), 1);
    }

    #[test]
    fn display_is_never_empty() {
        for v in [
            Value::Null,
            Value::Bool(false),
            Value::Int(0),
            Value::Float(0.0),
            Value::text(""),
            Value::Blob(vec![]),
            Value::seq([]),
            Value::record::<&str, _>([]),
            Value::Ref(0),
        ] {
            assert!(!v.to_string().is_empty(), "{v:?}");
        }
    }

    #[test]
    fn conversions_from_primitives() {
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from(5i32), Value::Int(5));
        assert_eq!(Value::from(1.5), Value::Float(1.5));
        assert_eq!(Value::from("hi"), Value::text("hi"));
        assert_eq!(
            Value::from(vec![1i64, 2]),
            Value::seq([Value::Int(1), Value::Int(2)])
        );
    }
}
