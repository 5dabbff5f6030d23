//! A **pair table**: the attribute vocabulary a set of rows shares,
//! spelled once — its sorted keys, its distinct values and its
//! distinct `(key, value)` pairs.
//!
//! A columnar row's attribute dictionary *extends* a context table
//! (see [`crate::columnar`]): an id below the table's length names a
//! table entry, a larger one names one of the row's own. Labelled
//! graphs draw their labels and property keys from small vocabularies,
//! so a table of one index span's pairs leaves the span's rows
//! nothing of their own to spell. The empty table is the context of a
//! row encoded by itself: its ids all name the row's own entries.
//!
//! ```text
//! table := varint n_keys, str{n_keys},
//!          varint n_vals, attr_value{n_vals},
//!          varint n_pairs, (varint key_idx, varint val_idx){n_pairs}
//! ```
//!
//! Keys are strictly ascending, values strictly ascending in the order
//! of their tags and then their bits (so a NaN is one value, not
//! many), and pairs strictly ascending by `(key_idx, val_idx)`: one
//! vocabulary has one spelling, and a table off it is refused.

use std::cmp::Ordering;

use bytes::BytesMut;

use crate::attr::AttrValue;
use crate::codec::{
    get_attr_value, get_len, get_str, get_varint, put_attr_value, put_str, put_varint,
};
use crate::error::CodecError;
use crate::hash::{FxHashMap, FxHashSet};

/// An attribute value as a hash and order key: two values have equal
/// keys exactly when they spell alike.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum ValueKey<'a> {
    Int(i64),
    Float(u64),
    Text(&'a str),
    Bool(bool),
}

impl<'a> ValueKey<'a> {
    pub(crate) fn of(v: &'a AttrValue) -> ValueKey<'a> {
        match v {
            AttrValue::Int(i) => ValueKey::Int(*i),
            AttrValue::Float(f) => ValueKey::Float(f.to_bits()),
            AttrValue::Text(s) => ValueKey::Text(s),
            AttrValue::Bool(b) => ValueKey::Bool(*b),
        }
    }
}

/// A decoded pair table (see the module docs): what a reader resolves
/// ids through, and what an encoder looks pairs up in.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PairTable {
    keys: Vec<String>,
    vals: Vec<AttrValue>,
    /// `(key_idx, val_idx)` of every pair, strictly ascending.
    ids: Vec<(u32, u32)>,
    /// The same pairs, resolved.
    pairs: Vec<(String, AttrValue)>,
}

/// The empty table: the context of a row encoded by itself.
pub(crate) static EMPTY: PairTable = PairTable {
    keys: Vec::new(),
    vals: Vec::new(),
    ids: Vec::new(),
    pairs: Vec::new(),
};

impl PairTable {
    /// The table of every pair `pairs` yields, and of every key
    /// `keys` yields besides the pairs' own.
    pub fn new<'a>(
        pairs: impl IntoIterator<Item = (&'a str, &'a AttrValue)>,
        keys: impl IntoIterator<Item = &'a str>,
    ) -> PairTable {
        let mut seen: FxHashSet<(&str, ValueKey<'_>)> = FxHashSet::default();
        let mut key_set: FxHashSet<&str> = keys.into_iter().collect();
        let mut val_set: FxHashMap<ValueKey<'_>, &AttrValue> = FxHashMap::default();
        for (k, v) in pairs {
            let vk = ValueKey::of(v);
            if seen.insert((k, vk)) {
                key_set.insert(k);
                val_set.entry(vk).or_insert(v);
            }
        }
        let mut keys: Vec<&str> = key_set.into_iter().collect();
        keys.sort_unstable();
        let mut vals: Vec<(ValueKey<'_>, &AttrValue)> = val_set.into_iter().collect();
        vals.sort_unstable_by_key(|&(vk, _)| vk);
        // Every pair's key and value were collected above, so each
        // search finds its entry.
        let mut ids: Vec<(u32, u32)> = seen
            .into_iter()
            .map(|(k, vk)| {
                let ki = keys.binary_search(&k).unwrap_or_else(|i| i);
                let vi = vals.binary_search_by_key(&vk, |&(v, _)| v);
                (ki as u32, vi.unwrap_or_else(|i| i) as u32)
            })
            .collect();
        ids.sort_unstable();
        let keys: Vec<String> = keys.into_iter().map(str::to_owned).collect();
        let vals: Vec<AttrValue> = vals.into_iter().map(|(_, v)| v.clone()).collect();
        let pairs = ids
            .iter()
            .map(|&(k, v)| (keys[k as usize].clone(), vals[v as usize].clone()))
            .collect();
        PairTable {
            keys,
            vals,
            ids,
            pairs,
        }
    }

    /// Whether the table holds nothing at all.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty() && self.vals.is_empty()
    }

    /// The keys, ascending: key id `i` is `keys()[i]`.
    pub fn keys(&self) -> &[String] {
        &self.keys
    }

    /// The values: value id `i` is `values()[i]`.
    pub(crate) fn values(&self) -> &[AttrValue] {
        &self.vals
    }

    /// The pairs: pair id `i` is `pairs()[i]`.
    pub fn pairs(&self) -> &[(String, AttrValue)] {
        &self.pairs
    }

    /// The id of key `k`, if the table has it.
    pub(crate) fn key_id(&self, k: &str) -> Option<u64> {
        self.keys
            .binary_search_by(|p| p.as_str().cmp(k))
            .ok()
            .map(|i| i as u64)
    }

    /// The id of value `v`, if the table has it.
    pub(crate) fn value_id(&self, v: &AttrValue) -> Option<u64> {
        let want = ValueKey::of(v);
        self.vals
            .binary_search_by(|p| ValueKey::of(p).cmp(&want))
            .ok()
            .map(|i| i as u64)
    }

    /// The id of pair `(k, v)`, if the table has it.
    pub(crate) fn pair_id(&self, k: &str, v: &AttrValue) -> Option<u64> {
        let pair = (self.key_id(k)? as u32, self.value_id(v)? as u32);
        self.ids.binary_search(&pair).ok().map(|i| i as u64)
    }

    /// Append the table's spelling (see the module docs).
    pub fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.keys.len() as u64);
        for k in &self.keys {
            put_str(buf, k);
        }
        put_varint(buf, self.vals.len() as u64);
        for v in &self.vals {
            put_attr_value(buf, v);
        }
        put_varint(buf, self.ids.len() as u64);
        for &(k, v) in &self.ids {
            put_varint(buf, u64::from(k));
            put_varint(buf, u64::from(v));
        }
    }

    /// Read a table [`PairTable::encode`] spelled from the cursor, held
    /// to its grammar: entries strictly ascending and every pair's key
    /// and value ids inside the table. Every entry takes a byte at
    /// least, so no more are allocated than the cursor has bytes.
    pub fn decode(buf: &mut &[u8]) -> Result<PairTable, CodecError> {
        let out_of_order = |id: usize| CodecError::BadRef {
            what: "pair-table order",
            id: id as u64,
        };
        let n = get_len(buf, "pair-table keys")?;
        let mut keys: Vec<String> = Vec::with_capacity(n.min(buf.len()));
        for i in 0..n {
            let k = get_str(buf)?;
            if keys.last().is_some_and(|p| p.as_str() >= k.as_str()) {
                return Err(out_of_order(i));
            }
            keys.push(k);
        }
        let n = get_len(buf, "pair-table values")?;
        let mut vals: Vec<AttrValue> = Vec::with_capacity(n.min(buf.len()));
        for i in 0..n {
            let v = get_attr_value(buf)?;
            let order = vals.last().map(|p| ValueKey::of(p).cmp(&ValueKey::of(&v)));
            if order.is_some_and(|o| o != Ordering::Less) {
                return Err(out_of_order(i));
            }
            vals.push(v);
        }
        let n = get_len(buf, "pair-table pairs")?;
        let mut ids: Vec<(u32, u32)> = Vec::with_capacity(n.min(buf.len()));
        let mut pairs = Vec::with_capacity(n.min(buf.len()));
        for i in 0..n {
            let (k, v) = (get_varint(buf)?, get_varint(buf)?);
            let key = usize::try_from(k).ok().and_then(|k| keys.get(k));
            let key = key.ok_or(CodecError::BadRef {
                what: "pair-table key",
                id: k,
            })?;
            let val = usize::try_from(v).ok().and_then(|v| vals.get(v));
            let val = val.ok_or(CodecError::BadRef {
                what: "pair-table value",
                id: v,
            })?;
            // Both ids are below a length the cursor bounded.
            let id = (k as u32, v as u32);
            if ids.last().is_some_and(|&p| p >= id) {
                return Err(out_of_order(i));
            }
            ids.push(id);
            pairs.push((key.clone(), val.clone()));
        }
        Ok(PairTable {
            keys,
            vals,
            ids,
            pairs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PairTable {
        let (person, org, two) = (
            AttrValue::Text("Person".into()),
            AttrValue::Text("Org".into()),
            AttrValue::Int(2),
        );
        let pairs = vec![
            ("EntityType", &person),
            ("Grade", &two),
            ("EntityType", &org),
            ("EntityType", &person),
        ];
        PairTable::new(pairs, ["gone"])
    }

    #[test]
    fn a_table_is_sorted_deduplicated_and_round_trips() {
        let t = sample();
        assert_eq!(t.keys(), ["EntityType", "Grade", "gone"]);
        assert_eq!(t.values().len(), 3);
        assert_eq!(t.pairs().len(), 3);
        for (i, (k, v)) in t.pairs().iter().enumerate() {
            assert_eq!(t.pair_id(k, v), Some(i as u64));
        }
        assert_eq!(t.pair_id("Grade", &AttrValue::Int(3)), None);
        assert_eq!(t.pair_id("gone", &AttrValue::Int(2)), None);
        assert_eq!(t.key_id("gone"), Some(2));
        let mut buf = BytesMut::new();
        t.encode(&mut buf);
        let mut b: &[u8] = &buf;
        assert_eq!(PairTable::decode(&mut b), Ok(t));
        assert!(b.is_empty());
        assert!(PairTable::default().is_empty());
        assert_eq!(PairTable::new([], []), EMPTY);
    }

    #[test]
    fn a_table_off_its_grammar_is_refused() {
        let t = sample();
        let mut buf = BytesMut::new();
        t.encode(&mut buf);
        // Every cut short of the whole is refused.
        for cut in 0..buf.len() {
            let mut b = &buf[..cut];
            assert!(PairTable::decode(&mut b).is_err(), "cut at {cut}");
        }
        let spell = |keys: &[&str], vals: &[i64], ids: &[(u64, u64)]| {
            let mut b = BytesMut::new();
            put_varint(&mut b, keys.len() as u64);
            keys.iter().for_each(|k| put_str(&mut b, k));
            put_varint(&mut b, vals.len() as u64);
            vals.iter()
                .for_each(|&v| put_attr_value(&mut b, &AttrValue::Int(v)));
            put_varint(&mut b, ids.len() as u64);
            for &(k, v) in ids {
                put_varint(&mut b, k);
                put_varint(&mut b, v);
            }
            b
        };
        let decode = |b: BytesMut| PairTable::decode(&mut &b[..]).map(drop);
        assert_eq!(
            decode(spell(&["a", "b"], &[1, 2], &[(0, 1), (1, 0)])),
            Ok(())
        );
        let bad = |what, id| Err(CodecError::BadRef { what, id });
        assert_eq!(
            decode(spell(&["a", "b"], &[1], &[(2, 0)])),
            bad("pair-table key", 2)
        );
        assert_eq!(
            decode(spell(&["a"], &[1], &[(0, 1)])),
            bad("pair-table value", 1)
        );
        for (keys, vals, ids, at) in [
            (&["b", "a"][..], &[1][..], &[][..], 1),
            (&["a", "a"], &[1], &[], 1),
            (&["a"], &[2, 1], &[], 1),
            (&["a"], &[1, 2], &[(0, 1), (0, 0)], 1),
            (&["a"], &[1], &[(0, 0), (0, 0)], 1),
        ] {
            assert_eq!(
                decode(spell(keys, vals, ids)),
                bad("pair-table order", at),
                "{keys:?} {vals:?} {ids:?}"
            );
        }
    }
}
