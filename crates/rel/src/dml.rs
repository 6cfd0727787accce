//! DML write path: `INSERT INTO` / `DELETE FROM` statements that mutate a
//! [`Database`] and return the [`Delta`] of rows they touched.
//!
//! The composition paper treats the database as read-only input `I` to the
//! publishing function `v(I)`; this module is the first write path, built
//! so a [`Delta`] can drive an incremental republish instead of a full
//! one: the publisher asks each view node's cached plans whether they read
//! a changed table ([`crate::PreparedPlan::reads`]) and which parents a
//! changed row keys into ([`crate::PreparedPlan::row_key`]).
//! The statements' grammar is [`crate::parse`]'s; this module executes
//! them:
//!
//! * `INSERT INTO t VALUES (lit, ...), (lit, ...)` — literal rows only,
//!   validated against the table schema before any row is stored;
//! * `DELETE FROM t [WHERE pred]` — the predicate is the same scalar
//!   fragment tag queries use, and it becomes the `WHERE` clause of a
//!   `SELECT * FROM t` built as a query tree and run as a prepared plan
//!   ([`crate::prepare`]), so DELETE semantics are exactly "rows the
//!   SELECT would return". The plan's scan hands over the positions of
//!   those rows, and the table removes them in place.
//!
//! Data mutations never change the catalog fingerprint (schemas are
//! untouched), so the publisher's prepared-plan cache stays warm across a
//! DML statement — the property the delta-republish path relies on.

use std::collections::BTreeMap;

use crate::ast::{ScalarExpr, SelectItem, SelectQuery, TableRef};
use crate::error::Result;
use crate::parse::{parse_dml, DmlStatement};
use crate::plan::prepare;
use crate::table::Database;
use crate::value::Value;

/// Rows inserted into / deleted from one table by a DML statement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableDelta {
    /// Rows appended, in insertion order.
    pub inserted: Vec<Vec<Value>>,
    /// Rows removed, in their former storage order.
    pub deleted: Vec<Vec<Value>>,
}

impl TableDelta {
    /// Total rows touched (inserted + deleted).
    pub fn row_count(&self) -> usize {
        self.inserted.len() + self.deleted.len()
    }
}

/// The net effect of one or more DML statements: per-table inserted and
/// deleted rows. `Session::republish_segments` and
/// `Session::republish_delta` find the view nodes to re-run by asking
/// their cached plans ([`crate::PreparedPlan::reads`],
/// [`crate::PreparedPlan::row_key`]) about the changed tables and rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Delta {
    /// Per-table deltas, keyed by table name (sorted for determinism).
    pub tables: BTreeMap<String, TableDelta>,
}

impl Delta {
    /// An empty delta.
    pub fn new() -> Self {
        Delta::default()
    }

    /// Total rows touched across all tables.
    pub fn row_count(&self) -> usize {
        self.tables.values().map(TableDelta::row_count).sum()
    }

    /// True if no rows were touched.
    pub fn is_empty(&self) -> bool {
        self.tables.values().all(|t| t.row_count() == 0)
    }

    /// Names of tables with at least one touched row, in sorted order.
    pub fn tables_changed(&self) -> Vec<&str> {
        self.tables
            .iter()
            .filter(|(_, d)| d.row_count() > 0)
            .map(|(n, _)| n.as_str())
            .collect()
    }

    /// Folds another delta into this one (later statements append).
    pub fn absorb(&mut self, other: Delta) {
        for (table, d) in other.tables {
            let e = self.tables.entry(table).or_default();
            e.inserted.extend(d.inserted);
            e.deleted.extend(d.deleted);
        }
    }

    fn record_inserts(&mut self, table: &str, rows: Vec<Vec<Value>>) {
        self.tables
            .entry(table.to_owned())
            .or_default()
            .inserted
            .extend(rows);
    }

    fn record_deletes(&mut self, table: &str, rows: Vec<Vec<Value>>) {
        self.tables
            .entry(table.to_owned())
            .or_default()
            .deleted
            .extend(rows);
    }
}

impl Database {
    /// Executes one DML statement (`INSERT INTO ...` or `DELETE FROM ...`,
    /// optionally `;`-terminated) and returns the delta of touched rows.
    ///
    /// A multi-row `INSERT` is all or nothing: every row is checked
    /// against the schema ([`crate::TableSchema::check_row`]) before any is
    /// stored, so a statement that fails leaves the table as it was.
    pub fn execute_dml(&mut self, sql: &str) -> Result<Delta> {
        match parse_dml(sql)? {
            DmlStatement::Insert { table, rows } => {
                // All or nothing: a statement with one bad row stores none.
                let schema = &self.table(&table)?.schema;
                for row in &rows {
                    schema.check_row(row)?;
                }
                let mut delta = Delta::new();
                for row in &rows {
                    self.insert(&table, row.clone())?;
                }
                delta.record_inserts(&table, rows);
                Ok(delta)
            }
            DmlStatement::Delete { table, predicate } => self.delete_from(&table, predicate),
        }
    }

    /// Deletes every row of `table` matching `predicate` (all rows when
    /// `None`), returning the delta. The matched rows are exactly what
    /// `SELECT * FROM table WHERE predicate` returns: that query runs as a
    /// prepared plan (a query that does not prepare fails the statement),
    /// whose scan yields the storage positions of the rows passing its
    /// filters ([`crate::PreparedPlan`]'s `matched_positions`), and the
    /// table drops the rows at those positions in place, keeping the
    /// survivors' order.
    pub fn delete_from(&mut self, table: &str, predicate: Option<ScalarExpr>) -> Result<Delta> {
        let mut doomed = vec![predicate.is_none(); self.table(table)?.len()];
        if let Some(pred) = predicate {
            let mut q = SelectQuery::new(vec![SelectItem::Star], vec![TableRef::table(table)]);
            q.where_clause = Some(pred);
            for rid in prepare(&q, &self.catalog())?.matched_positions(self)? {
                doomed[rid] = true;
            }
        }
        let deleted = if doomed.contains(&true) {
            self.remove_rows(table, &doomed)?
        } else {
            Vec::new()
        };
        let mut delta = Delta::new();
        delta.record_deletes(table, deleted);
        Ok(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::eval::{eval_query, ParamEnv};
    use crate::parse::parse_query;
    use crate::schema::{ColumnDef, ColumnType, TableSchema};
    use crate::table::Table;

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "city",
                vec![
                    ColumnDef::new("cityid", ColumnType::Int),
                    ColumnDef::new("cityname", ColumnType::Str),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn insert_literal_rows() {
        let mut db = db();
        let delta = db
            .execute_dml("INSERT INTO city VALUES (1, 'naperville'), (2, 'o''hare')")
            .unwrap();
        assert_eq!(delta.row_count(), 2);
        assert_eq!(delta.tables_changed(), vec!["city"]);
        let t = db.table("city").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows()[1][1], Value::Str("o'hare".into()));
        assert_eq!(delta.tables["city"].inserted[0][0], Value::Int(1));
    }

    #[test]
    fn insert_validates_against_schema() {
        let mut db = db();
        assert!(db
            .execute_dml("INSERT INTO city VALUES ('backwards', 1)")
            .is_err());
        assert!(db.execute_dml("INSERT INTO nope VALUES (1, 'x')").is_err());
    }

    #[test]
    fn failed_multi_row_insert_leaves_the_table_unchanged() {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "city",
                vec![
                    ColumnDef::new("cityid", ColumnType::Int).not_null(),
                    ColumnDef::new("cityname", ColumnType::Str),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_index("city", "cityid").unwrap();
        db.execute_dml("INSERT INTO city VALUES (1, 'a')").unwrap();
        // The third row violates NOT NULL.
        let rows = "(2, 'b'), (3, 'c'), (NULL, 'd')";
        let ctx = rows;
        assert!(
            db.execute_dml(&format!("INSERT INTO city VALUES {rows}"))
                .is_err(),
            "{ctx}"
        );
        let t = db.table("city").unwrap();
        assert_eq!(
            t.rows(),
            vec![vec![Value::Int(1), Value::Str("a".into())]],
            "{ctx}"
        );
        assert_eq!(t.index_for(0).unwrap().len(), 1, "{ctx}");
    }

    #[test]
    fn delete_with_predicate() {
        let mut db = db();
        db.execute_dml("INSERT INTO city VALUES (1, 'a'), (2, 'b'), (3, 'c')")
            .unwrap();
        let delta = db
            .execute_dml("DELETE FROM city WHERE cityid >= 2")
            .unwrap();
        assert_eq!(delta.tables["city"].deleted.len(), 2);
        assert_eq!(db.table("city").unwrap().len(), 1);
        assert_eq!(db.table("city").unwrap().rows()[0][0], Value::Int(1));
    }

    #[test]
    fn delete_matches_a_row_holding_nan() {
        let mut db = crate::ddl::database_from_ddl("CREATE TABLE t (id INT, x FLOAT)").unwrap();
        crate::csv::load_csv(&mut db, "t", "id,x\n1,NaN\n2,1.5\n3,NaN\n").unwrap();
        let delta = db.execute_dml("DELETE FROM t WHERE id = 1").unwrap();
        let deleted = &delta.tables["t"].deleted;
        assert_eq!(deleted.len(), 1, "{deleted:?}");
        assert_eq!(deleted[0][0], Value::Int(1));
        assert!(matches!(deleted[0][1], Value::Float(f) if f.is_nan()));
        let rows = db.table("t").unwrap().rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec![Value::Int(2), Value::Float(1.5)]);
        assert_eq!(rows[1][0], Value::Int(3));
        assert!(matches!(rows[1][1], Value::Float(f) if f.is_nan()));
    }

    #[test]
    fn delete_rejects_clauses_after_its_predicate() {
        let mut db = crate::ddl::database_from_ddl("CREATE TABLE t (a INT, b INT)").unwrap();
        db.create_index("t", "a").unwrap();
        db.execute_dml("INSERT INTO t VALUES (1, 1), (1, 2), (2, 3)")
            .unwrap();
        let rows = db.table("t").unwrap().rows().to_vec();
        let fingerprint = db.catalog_fingerprint();
        for (sql, clause) in [
            ("DELETE FROM t WHERE a = 1 GROUP BY a", "'GROUP'"),
            ("DELETE FROM t WHERE a = 1 HAVING COUNT(*) > 5", "'HAVING'"),
        ] {
            assert_eq!(
                db.execute_dml(sql),
                Err(Error::TrailingTokens {
                    found: clause.into()
                }),
                "{sql}"
            );
            let t = db.table("t").unwrap();
            assert_eq!(t.rows(), rows, "{sql}");
            let idx = t.index_for(0).unwrap();
            assert_eq!(idx.len(), 3, "{sql}");
            assert_eq!(idx.lookup(&Value::Int(1)), &[0, 1], "{sql}");
            assert_eq!(idx.lookup(&Value::Int(2)), &[2], "{sql}");
            assert_eq!(db.catalog_fingerprint(), fingerprint, "{sql}");
        }
    }

    #[test]
    fn delete_all_rows_without_where() {
        let mut db = db();
        db.execute_dml("INSERT INTO city VALUES (1, 'a')").unwrap();
        let delta = db.execute_dml("DELETE FROM city;").unwrap();
        assert_eq!(delta.row_count(), 1);
        assert!(db.table("city").unwrap().is_empty());
    }

    #[test]
    fn delete_preserves_indexes_and_fingerprint() {
        let mut db = db();
        db.create_index("city", "cityid").unwrap();
        let before = db.catalog_fingerprint();
        db.execute_dml("INSERT INTO city VALUES (1, 'a'), (2, 'b')")
            .unwrap();
        db.execute_dml("DELETE FROM city WHERE cityid = 1").unwrap();
        assert_eq!(db.catalog_fingerprint(), before);
        let t = db.table("city").unwrap();
        let idx = t.index_for(0).expect("index survives delete");
        assert_eq!(idx.lookup(&Value::Int(2)), &[0]);
        assert!(idx.lookup(&Value::Int(1)).is_empty());
    }

    /// The pre-in-place DELETE: every stored row equal to a matched row
    /// goes (an O(N·M) `contains` scan), the survivors are re-inserted
    /// into a fresh table. Returns `(deleted, surviving table)`.
    fn reference_delete(db: &Database, pred: &str) -> (Vec<Vec<Value>>, Table) {
        let q = parse_query(&format!("SELECT * FROM city WHERE {pred}")).unwrap();
        let matched = eval_query(db, &q, &ParamEnv::new()).unwrap().rows;
        let t = db.table("city").unwrap();
        let mut fresh = Table::new(t.schema.clone()).unwrap();
        let mut deleted = Vec::new();
        for row in t.rows() {
            if matched.contains(row) {
                deleted.push(row.clone());
            } else {
                fresh.insert(row.clone()).unwrap();
            }
        }
        (deleted, fresh)
    }

    #[test]
    fn in_place_delete_matches_rebuild() {
        for pred in [
            "cityid = 2",
            "cityname = 'b'",
            "cityid >= 2 AND cityid < 4",
            "cityname IS NULL",
            "cityid > 99",
        ] {
            let mut db = db();
            db.create_index("city", "cityid").unwrap();
            db.create_index("city", "cityname").unwrap();
            // Duplicate rows, and equal keys spread over the table.
            db.execute_dml(
                "INSERT INTO city VALUES (1, 'a'), (2, 'b'), (2, 'b'), (3, 'c'), \
                 (2, 'x'), (4, 'b'), (2, 'b'), (5, NULL), (3, 'c')",
            )
            .unwrap();
            let (want_deleted, want) = reference_delete(&db, pred);
            let delta = db
                .execute_dml(&format!("DELETE FROM city WHERE {pred}"))
                .unwrap();
            let got = db.table("city").unwrap();
            let ctx = format!("WHERE {pred}");
            assert_eq!(delta.tables["city"].deleted, want_deleted, "{ctx}");
            assert!(delta.tables["city"].inserted.is_empty(), "{ctx}");
            assert_eq!(got.rows(), want.rows(), "{ctx}: surviving rows and order");
            let probes = [
                Value::Int(1),
                Value::Int(2),
                Value::Int(3),
                Value::Int(4),
                Value::Int(5),
                Value::Str("a".into()),
                Value::Str("b".into()),
                Value::Str("c".into()),
                Value::Str("x".into()),
                Value::Null,
            ];
            for column in [0, 1] {
                let (g, w) = (
                    got.index_for(column).unwrap(),
                    want.index_for(column).unwrap(),
                );
                assert_eq!(g.len(), w.len(), "{ctx}: index on column {column}");
                for v in &probes {
                    assert_eq!(g.lookup(v), w.lookup(v), "{ctx}: lookup {v:?}");
                }
            }
        }
    }

    #[test]
    fn rejects_other_statements() {
        let mut db = db();
        assert!(db.execute_dml("UPDATE city SET cityname = 'x'").is_err());
        assert!(db
            .execute_dml("INSERT INTO city VALUES (1, 'a') garbage")
            .is_err());
    }

    #[test]
    fn delta_absorb_merges_per_table() {
        let mut db = db();
        let mut total = db.execute_dml("INSERT INTO city VALUES (1, 'a')").unwrap();
        total.absorb(db.execute_dml("DELETE FROM city WHERE cityid = 1").unwrap());
        assert_eq!(total.tables["city"].inserted.len(), 1);
        assert_eq!(total.tables["city"].deleted.len(), 1);
        assert!(!total.is_empty());
    }
}
