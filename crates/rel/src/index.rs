//! Secondary indexes over table columns.
//!
//! A [`SecondaryIndex`] maps a normalized key of one column's value to the
//! list of row ids carrying it, **in insertion order** — so an equality
//! lookup yields exactly the rows a full scan filtered by `col = key`
//! would, in the same order. That order-preservation is what lets
//! `plan::prepare` swap a scan for an index lookup without perturbing
//! published documents.
//!
//! Two shapes are provided ([`IndexKind`]): a hash index (the equality
//! workhorse the publisher's parameterized tag queries need) and a B-tree
//! index (ordered keys, kept for future range access paths). NULLs are
//! never indexed: `col = NULL` matches nothing under SQL semantics, and
//! the planner's post-lookup recheck keeps NaN/zero-sign edge cases exact.

use std::collections::{BTreeMap, HashMap};

use crate::eval::{key_of, Key};
use crate::schema::IndexKind;
use crate::value::Value;

/// Normalized lookup key: `-0.0` folds onto `0.0` (SQL `=` treats them as
/// equal) and Int/Float unify through `f64` bits, exactly like the batch
/// executor's binding hash-join keys.
pub(crate) fn index_key_of(v: &Value) -> Key {
    match v {
        Value::Float(f) if *f == 0.0 => Key::Num(0f64.to_bits()),
        _ => key_of(v),
    }
}

/// Total order over normalized keys for the B-tree shape: kind first, then
/// numeric value (`f64::total_cmp`), string, or bool. Equality must agree
/// with `Key`'s so both index kinds return identical candidate sets.
#[derive(Debug, Clone, PartialEq, Eq)]
struct OrdKey(Key);

impl Ord for OrdKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        fn rank(k: &Key) -> u8 {
            match k {
                Key::Null => 0,
                Key::Num(_) => 1,
                Key::Str(_) => 2,
                Key::Bool(_) => 3,
            }
        }
        match (&self.0, &other.0) {
            // `total_cmp` returns Equal exactly on identical bits, which
            // is exactly `Key` equality — Ord and Eq stay consistent.
            (Key::Num(a), Key::Num(b)) => f64::from_bits(*a).total_cmp(&f64::from_bits(*b)),
            (Key::Str(a), Key::Str(b)) => a.cmp(b),
            (Key::Bool(a), Key::Bool(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl PartialOrd for OrdKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Clone)]
enum IndexMap {
    Hash(HashMap<Key, Vec<usize>>),
    BTree(BTreeMap<OrdKey, Vec<usize>>),
}

/// One secondary index: column position plus the key → row-id map.
#[derive(Debug, Clone)]
pub struct SecondaryIndex {
    column: usize,
    map: IndexMap,
    entries: usize,
}

impl SecondaryIndex {
    /// An empty index over column position `column`.
    pub fn new(column: usize, kind: IndexKind) -> Self {
        SecondaryIndex {
            column,
            map: match kind {
                IndexKind::Hash => IndexMap::Hash(HashMap::new()),
                IndexKind::BTree => IndexMap::BTree(BTreeMap::new()),
            },
            entries: 0,
        }
    }

    /// The indexed column's position in the table schema.
    pub fn column(&self) -> usize {
        self.column
    }

    /// The index shape.
    pub fn kind(&self) -> IndexKind {
        match self.map {
            IndexMap::Hash(_) => IndexKind::Hash,
            IndexMap::BTree(_) => IndexKind::BTree,
        }
    }

    /// Indexed (non-NULL) entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True if nothing is indexed yet.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Records that row `rid` carries `row` (NULL key values are skipped).
    /// Must be called in ascending `rid` order — inserts append, which is
    /// what keeps candidate lists in scan order.
    pub fn insert(&mut self, row: &[Value], rid: usize) {
        let v = &row[self.column];
        if v.is_null() {
            return;
        }
        let key = index_key_of(v);
        let bucket = match &mut self.map {
            IndexMap::Hash(m) => m.entry(key).or_default(),
            IndexMap::BTree(m) => m.entry(OrdKey(key)).or_default(),
        };
        debug_assert!(bucket.last().is_none_or(|&last| last < rid));
        bucket.push(rid);
        self.entries += 1;
    }

    /// Applies a row removal: `new_rid[rid]` is a surviving row's id after
    /// the removal, `None` for a removed row. Surviving ids keep their
    /// ascending order and keys left without rows disappear, so the index
    /// equals one rebuilt from the surviving rows.
    pub(crate) fn renumber(&mut self, new_rid: &[Option<usize>]) {
        let mut entries = 0;
        let mut fix = |rids: &mut Vec<usize>| {
            rids.retain_mut(|rid| match new_rid[*rid] {
                Some(n) => {
                    *rid = n;
                    true
                }
                None => false,
            });
            entries += rids.len();
            !rids.is_empty()
        };
        match &mut self.map {
            IndexMap::Hash(m) => m.retain(|_, rids| fix(rids)),
            IndexMap::BTree(m) => m.retain(|_, rids| fix(rids)),
        }
        self.entries = entries;
    }

    /// Row ids whose column equals `v` (insertion order). NULL probes
    /// match nothing. Candidates still need an exact `=` recheck — the
    /// normalized key unifies `3` with `3.0` (correct) but also buckets
    /// NaN with itself (which SQL `=` rejects).
    pub fn lookup(&self, v: &Value) -> &[usize] {
        if v.is_null() {
            return &[];
        }
        let key = index_key_of(v);
        let bucket = match &self.map {
            IndexMap::Hash(m) => m.get(&key),
            IndexMap::BTree(m) => m.get(&OrdKey(key)),
        };
        bucket.map_or(&[], |b| b.as_slice())
    }

    /// Number of distinct indexed keys.
    pub fn distinct_keys(&self) -> usize {
        match &self.map {
            IndexMap::Hash(m) => m.len(),
            IndexMap::BTree(m) => m.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kind: IndexKind) -> SecondaryIndex {
        let mut idx = SecondaryIndex::new(1, kind);
        let rows = [
            vec![Value::Int(1), Value::Str("a".into())],
            vec![Value::Int(2), Value::Str("b".into())],
            vec![Value::Int(3), Value::Str("a".into())],
            vec![Value::Int(4), Value::Null],
        ];
        for (rid, row) in rows.iter().enumerate() {
            idx.insert(row, rid);
        }
        idx
    }

    #[test]
    fn lookup_preserves_insertion_order_and_skips_nulls() {
        for kind in [IndexKind::Hash, IndexKind::BTree] {
            let idx = sample(kind);
            assert_eq!(idx.lookup(&Value::Str("a".into())), &[0, 2]);
            assert_eq!(idx.lookup(&Value::Str("b".into())), &[1]);
            assert_eq!(idx.lookup(&Value::Str("zzz".into())), &[] as &[usize]);
            assert_eq!(idx.lookup(&Value::Null), &[] as &[usize]);
            assert_eq!(idx.len(), 3, "NULL key not indexed");
            assert_eq!(idx.distinct_keys(), 2);
        }
    }

    #[test]
    fn numeric_keys_unify_int_float_and_fold_negative_zero() {
        for kind in [IndexKind::Hash, IndexKind::BTree] {
            let mut idx = SecondaryIndex::new(0, kind);
            idx.insert(&[Value::Int(3)], 0);
            idx.insert(&[Value::Float(3.0)], 1);
            idx.insert(&[Value::Float(0.0)], 2);
            idx.insert(&[Value::Float(-0.0)], 3);
            assert_eq!(idx.lookup(&Value::Float(3.0)), &[0, 1]);
            assert_eq!(idx.lookup(&Value::Int(3)), &[0, 1]);
            assert_eq!(idx.lookup(&Value::Int(0)), &[2, 3]);
            assert_eq!(idx.lookup(&Value::Float(-0.0)), &[2, 3]);
        }
    }

    #[test]
    fn btree_orders_mixed_keys_totally() {
        let mut idx = SecondaryIndex::new(0, IndexKind::BTree);
        for (rid, v) in [
            Value::Str("m".into()),
            Value::Int(-5),
            Value::Bool(true),
            Value::Float(2.25),
            Value::Str("a".into()),
        ]
        .iter()
        .enumerate()
        {
            idx.insert(std::slice::from_ref(v), rid);
        }
        assert_eq!(idx.distinct_keys(), 5);
        for v in [Value::Int(-5), Value::Float(2.25), Value::Bool(true)] {
            assert_eq!(idx.lookup(&v).len(), 1);
        }
    }
}
