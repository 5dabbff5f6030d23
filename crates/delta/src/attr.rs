//! Key-value attributes for nodes and edges.
//!
//! Definition 1 of the paper gives every node (and edge) "an arbitrary
//! number of key-value attribute pairs". Most nodes carry zero or a
//! handful of attributes, so [`Attrs`] is a sorted `Vec` rather than a
//! hash map: an empty attribute set allocates nothing, lookups are a
//! binary search, and iteration order is deterministic (which the
//! delta-intersection logic relies on for equality).

use std::fmt;

/// An attribute value. Deliberately small: the four scalar types cover
/// every workload in the paper's evaluation (labels, weights, counters,
/// flags).
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    Int(i64),
    Float(f64),
    Text(String),
    Bool(bool),
}

impl AttrValue {
    /// Text view, if the value is `Text`.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            AttrValue::Text(v) => Some(v),
            _ => None,
        }
    }

    /// Approximate in-memory footprint in bytes (used for the storage
    /// accounting in Table 1 reproductions).
    pub fn weight_bytes(&self) -> usize {
        match self {
            AttrValue::Int(_) | AttrValue::Float(_) => 8,
            AttrValue::Bool(_) => 1,
            AttrValue::Text(s) => s.len(),
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::Float(v) => write!(f, "{v}"),
            AttrValue::Text(v) => write!(f, "{v}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::Int(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::Float(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Text(v.to_owned())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Text(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

/// A set of key-value attribute pairs, kept sorted by key.
///
/// Equality is structural; two `Attrs` with the same pairs are equal
/// regardless of insertion order, which makes them usable inside the
/// component-equality tests of delta intersection.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Attrs {
    pairs: Vec<(String, AttrValue)>,
}

impl Attrs {
    /// Empty attribute set; does not allocate.
    #[inline]
    pub fn new() -> Attrs {
        Attrs { pairs: Vec::new() }
    }

    /// Build from an iterator of pairs; later duplicates win.
    pub(crate) fn from_pairs<I, K>(pairs: I) -> Attrs
    where
        I: IntoIterator<Item = (K, AttrValue)>,
        K: Into<String>,
    {
        let mut a = Attrs::new();
        for (k, v) in pairs {
            a.set(k.into(), v);
        }
        a
    }

    /// Number of attributes.
    #[inline]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no attributes are present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Look up an attribute by key.
    pub fn get(&self, key: &str) -> Option<&AttrValue> {
        self.pairs
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| &self.pairs[i].1)
    }

    /// Insert or replace an attribute. Returns the previous value if
    /// one existed.
    pub fn set(&mut self, key: impl Into<String>, value: AttrValue) -> Option<AttrValue> {
        let key = key.into();
        match self.pairs.binary_search_by(|(k, _)| k.as_str().cmp(&key)) {
            Ok(i) => Some(std::mem::replace(&mut self.pairs[i].1, value)),
            Err(i) => {
                self.pairs.insert(i, (key, value));
                None
            }
        }
    }

    /// Remove an attribute by key, returning it if present.
    pub fn remove(&mut self, key: &str) -> Option<AttrValue> {
        match self.pairs.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
            Ok(i) => Some(self.pairs.remove(i).1),
            Err(_) => None,
        }
    }

    /// The pairs as a key-sorted slice (the component walks of
    /// [`crate::node`] merge two of these in lockstep).
    pub(crate) fn pairs(&self) -> &[(String, AttrValue)] {
        &self.pairs
    }

    /// The pairs, for removing some: what is left stays sorted.
    pub(crate) fn pairs_mut(&mut self) -> &mut Vec<(String, AttrValue)> {
        &mut self.pairs
    }

    /// Wrap pairs already sorted by distinct keys.
    pub(crate) fn from_sorted(pairs: Vec<(String, AttrValue)>) -> Attrs {
        debug_assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        Attrs { pairs }
    }

    /// Iterate pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &AttrValue)> {
        self.pairs.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Approximate serialized footprint (keys + values), for storage
    /// accounting.
    pub fn weight_bytes(&self) -> usize {
        self.pairs
            .iter()
            .map(|(k, v)| k.len() + v.weight_bytes() + 2)
            .sum()
    }
}

impl<K: Into<String>> FromIterator<(K, AttrValue)> for Attrs {
    fn from_iter<I: IntoIterator<Item = (K, AttrValue)>>(iter: I) -> Attrs {
        Attrs::from_pairs(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_remove() {
        let mut a = Attrs::new();
        assert!(a.is_empty());
        assert_eq!(a.set("color", "red".into()), None);
        assert_eq!(a.set("size", AttrValue::Int(10)), None);
        assert_eq!(a.get("color").and_then(|v| v.as_text()), Some("red"));
        let old = a.set("color", "blue".into());
        assert_eq!(
            old.and_then(|v| v.as_text().map(|s| s.to_owned()))
                .as_deref(),
            Some("red")
        );
        assert_eq!(a.remove("size"), Some(AttrValue::Int(10)));
        assert_eq!(a.remove("size"), None);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let a = Attrs::from_pairs([("x", AttrValue::Int(1)), ("y", AttrValue::Int(2))]);
        let b = Attrs::from_pairs([("y", AttrValue::Int(2)), ("x", AttrValue::Int(1))]);
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_keys_last_wins() {
        let a = Attrs::from_pairs([("k", AttrValue::Int(1)), ("k", AttrValue::Int(2))]);
        assert_eq!(a.len(), 1);
        assert_eq!(a.get("k"), Some(&AttrValue::Int(2)));
    }

    #[test]
    fn iteration_is_key_ordered() {
        let a = Attrs::from_pairs([("b", AttrValue::Int(2)), ("a", AttrValue::Int(1))]);
        let keys: Vec<&str> = a.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b"]);
    }
}
