//! Secondary indexes over table columns.
//!
//! A [`SecondaryIndex`] maps the equality key of one column's value (the
//! key every hash join and `GROUP BY` of the engine uses) to the list of
//! row ids carrying it, **in insertion order** — so an equality lookup
//! yields exactly the rows a full scan filtered by `col = key` would, in
//! the same order. That order-preservation is what lets `plan::prepare`
//! swap a scan for an index lookup without perturbing published documents.
//!
//! There is one index shape, a hash map: equality is the only index access
//! path, and DDL's `USING HASH` and `USING BTREE` both declare it. NULLs
//! are never indexed: `col = NULL` matches nothing under SQL semantics,
//! and the planner's post-lookup `=` recheck keeps the keys' NaN and
//! large-integer collisions exact.

use std::collections::HashMap;

use crate::eval::{key_of, Key};
use crate::value::Value;

/// One secondary index: column position plus the key → row-id map.
#[derive(Debug, Clone)]
pub struct SecondaryIndex {
    column: usize,
    map: HashMap<Key, Vec<usize>>,
    entries: usize,
}

impl SecondaryIndex {
    /// An empty index over column position `column`.
    pub fn new(column: usize) -> Self {
        SecondaryIndex {
            column,
            map: HashMap::new(),
            entries: 0,
        }
    }

    /// The indexed column's position in the table schema.
    pub fn column(&self) -> usize {
        self.column
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
        let bucket = self.map.entry(key_of(v)).or_default();
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
        self.map.retain(|_, rids| {
            rids.retain_mut(|rid| match new_rid[*rid] {
                Some(n) => {
                    *rid = n;
                    true
                }
                None => false,
            });
            entries += rids.len();
            !rids.is_empty()
        });
        self.entries = entries;
    }

    /// Row ids whose column equals `v` (insertion order). NULL probes
    /// match nothing. Candidates still need an exact `=` recheck — the
    /// key unifies `3` with `3.0` (correct) but also buckets NaN with
    /// itself and 2^53 with 2^53 + 1 (which SQL `=` rejects).
    pub fn lookup(&self, v: &Value) -> &[usize] {
        if v.is_null() {
            return &[];
        }
        self.map.get(&key_of(v)).map_or(&[], Vec::as_slice)
    }

    /// Number of distinct indexed keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SecondaryIndex {
        let mut idx = SecondaryIndex::new(1);
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
        let idx = sample();
        assert_eq!(idx.lookup(&Value::Str("a".into())), &[0, 2]);
        assert_eq!(idx.lookup(&Value::Str("b".into())), &[1]);
        assert_eq!(idx.lookup(&Value::Str("zzz".into())), &[] as &[usize]);
        assert_eq!(idx.lookup(&Value::Null), &[] as &[usize]);
        assert_eq!(idx.len(), 3, "NULL key not indexed");
        assert_eq!(idx.distinct_keys(), 2);
    }

    #[test]
    fn numeric_keys_unify_int_float_and_fold_negative_zero() {
        let mut idx = SecondaryIndex::new(0);
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
