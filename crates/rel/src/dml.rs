//! DML write path: `INSERT INTO` / `DELETE FROM` statements that mutate a
//! [`Database`] and return the [`Delta`] of rows they touched.
//!
//! The composition paper treats the database as read-only input `I` to the
//! publishing function `v(I)`; this module is the first write path, built
//! so [`Delta`]s can be propagated through the static dependency map
//! (`xvc_core::deps`) into an incremental republish instead of a full one.
//! Deliberately tiny surface:
//!
//! * `INSERT INTO t VALUES (lit, ...), (lit, ...)` — literal rows only
//!   (integers, floats, single-quoted strings with `''` escaping, `NULL`,
//!   `TRUE`/`FALSE`), validated against the table schema on insert;
//! * `DELETE FROM t [WHERE pred]` — the predicate is the same scalar
//!   fragment tag queries use; it is parsed by wrapping it in
//!   `SELECT * FROM t WHERE pred` and reusing [`crate::parse_query`], then
//!   evaluated by the interpreter, so DELETE semantics are exactly "rows
//!   the SELECT would return".
//!
//! Data mutations never change the catalog fingerprint (schemas are
//! untouched), so the publisher's prepared-plan cache stays warm across a
//! DML statement — the property the delta-republish path relies on.

use std::collections::BTreeMap;

use crate::error::{Error, Result};
use crate::eval::{eval_query, ParamEnv};
use crate::parse::parse_query;
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
/// deleted rows. This is what `Session::republish_delta` maps through
/// the static dependency analysis to find the view nodes it must re-run.
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

    fn record_inserts(&mut self, table: &str, rows: &[Vec<Value>]) {
        self.tables
            .entry(table.to_owned())
            .or_default()
            .inserted
            .extend(rows.iter().cloned());
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
    /// ([`crate::Table::check_insert`]) before any is stored, so a
    /// statement that fails leaves the table as it was.
    pub fn execute_dml(&mut self, sql: &str) -> Result<Delta> {
        let mut p = DmlParser::new(sql);
        p.skip_ws();
        let delta = if p.eat_keyword("INSERT") {
            p.expect_keyword("INTO")?;
            let table = p.ident()?;
            p.expect_keyword("VALUES")?;
            let rows = p.values_list()?;
            p.finish()?;
            // All or nothing: a statement with one bad row stores none.
            let t = self.table(&table)?;
            for row in &rows {
                t.check_insert(row)?;
            }
            let mut delta = Delta::new();
            for row in &rows {
                self.insert(&table, row.clone())?;
            }
            delta.record_inserts(&table, &rows);
            delta
        } else if p.eat_keyword("DELETE") {
            p.expect_keyword("FROM")?;
            let table = p.ident()?;
            let predicate = p.rest_after_optional_where()?;
            self.delete_from(&table, predicate.as_deref())?
        } else {
            return Err(Error::UnexpectedToken {
                found: p.next_word_for_error(),
                expected: "INSERT or DELETE",
            });
        };
        Ok(delta)
    }

    /// Deletes every row of `table` matching `predicate` (all rows when
    /// `None`), returning the delta. The matched rows are exactly what
    /// `SELECT * FROM table WHERE predicate` returns — run as a prepared
    /// plan, which filters while it scans, or through the interpreter when
    /// the query does not prepare; every stored row equal to a matched row
    /// (`Value`'s `==`, except that NaN equals NaN) is removed (equal rows
    /// satisfy a pure predicate identically, so this is exact DELETE
    /// semantics). Stored rows are matched in one pass against the matched
    /// rows sorted by a row hash, and the table drops them in place,
    /// keeping the survivors' order.
    pub fn delete_from(&mut self, table: &str, predicate: Option<&str>) -> Result<Delta> {
        let doomed: Vec<bool> = match predicate {
            None => vec![true; self.table(table)?.len()],
            Some(pred) => {
                let q = parse_query(&format!("SELECT * FROM {table} WHERE {pred}"))?;
                let env = ParamEnv::new();
                let matched = match prepare(&q, &self.catalog()) {
                    Ok(plan) => plan.execute(self, &env)?.rows,
                    Err(_) => eval_query(self, &q, &env)?.rows,
                };
                let mut hashed: Vec<(u64, &Vec<Value>)> =
                    matched.iter().map(|row| (row_hash(row), row)).collect();
                hashed.sort_unstable_by_key(|&(h, _)| h);
                self.table(table)?
                    .scan()
                    .map(|row| {
                        let h = row_hash(&row);
                        let first = hashed.partition_point(|&(x, _)| x < h);
                        hashed[first..]
                            .iter()
                            .take_while(|&&(x, _)| x == h)
                            .any(|(_, m)| same_row(m, &row))
                    })
                    .collect()
            }
        };
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

/// Whether a stored row is a matched row for DELETE: `Value`'s `==`, under
/// which the two float zeros are equal, except that NaN matches NaN — a
/// matched row holding a NaN must find itself in storage.
fn same_row(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Value::Float(p), Value::Float(q)) => p == q || (p.is_nan() && q.is_nan()),
            _ => x == y,
        })
}

/// A row's hash for DELETE matching: rows equal under [`same_row`] hash
/// equally, since the only unequal bit patterns it identifies are the two
/// float zeros and the NaNs, each folded into one value. A cheap
/// multiplicative mix: collisions only cost an extra comparison.
fn row_hash(row: &[Value]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mix = |h: u64, x: u64| (h.rotate_left(5) ^ x).wrapping_mul(K);
    row.iter().fold(0, |h, v| match v {
        Value::Null => mix(h, 0),
        Value::Int(i) => mix(mix(h, 1), *i as u64),
        Value::Float(f) if *f == 0.0 => mix(mix(h, 2), 0),
        Value::Float(f) if f.is_nan() => mix(mix(h, 2), f64::NAN.to_bits()),
        Value::Float(f) => mix(mix(h, 2), f.to_bits()),
        Value::Str(s) => s.bytes().fold(mix(h, 3), |h, b| mix(h, u64::from(b))),
        Value::Bool(b) => mix(mix(h, 4), u64::from(*b)),
    })
}

/// Character-level scanner for the DML fragment. The SELECT parser in
/// [`crate::parse`] is token-based; DML needs so little syntax that a
/// dedicated scanner is smaller than threading new statement kinds
/// through it.
struct DmlParser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> DmlParser<'a> {
    fn new(src: &'a str) -> Self {
        DmlParser { src, pos: 0 }
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn skip_ws(&mut self) {
        while let Some(c) = self.rest().chars().next() {
            if c.is_whitespace() {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
    }

    fn next_word_for_error(&self) -> String {
        let w: String = self
            .rest()
            .chars()
            .take_while(|c| !c.is_whitespace())
            .take(16)
            .collect();
        if w.is_empty() {
            "<end of input>".to_owned()
        } else {
            w
        }
    }

    /// Consumes `kw` case-insensitively if it is the next word.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let rest = self.rest();
        if rest.len() >= kw.len() && rest[..kw.len()].eq_ignore_ascii_case(kw) {
            let boundary = rest[kw.len()..]
                .chars()
                .next()
                .is_none_or(|c| !c.is_alphanumeric() && c != '_');
            if boundary {
                self.pos += kw.len();
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &'static str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(Error::UnexpectedToken {
                found: self.next_word_for_error(),
                expected: kw,
            })
        }
    }

    fn ident(&mut self) -> Result<String> {
        self.skip_ws();
        let word: String = self
            .rest()
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if word.is_empty() || word.chars().next().is_some_and(char::is_numeric) {
            return Err(Error::UnexpectedToken {
                found: self.next_word_for_error(),
                expected: "identifier",
            });
        }
        self.pos += word.len();
        Ok(word)
    }

    fn eat_char(&mut self, ch: char) -> bool {
        self.skip_ws();
        if self.rest().starts_with(ch) {
            self.pos += ch.len_utf8();
            true
        } else {
            false
        }
    }

    fn expect_char(&mut self, ch: char, expected: &'static str) -> Result<()> {
        if self.eat_char(ch) {
            Ok(())
        } else {
            Err(Error::UnexpectedToken {
                found: self.next_word_for_error(),
                expected,
            })
        }
    }

    /// `(lit, ...), (lit, ...)` — at least one row.
    fn values_list(&mut self) -> Result<Vec<Vec<Value>>> {
        let mut rows = Vec::new();
        loop {
            self.expect_char('(', "'(' starting a VALUES row")?;
            let mut row = Vec::new();
            loop {
                row.push(self.literal()?);
                if !self.eat_char(',') {
                    break;
                }
            }
            self.expect_char(')', "')' ending a VALUES row")?;
            rows.push(row);
            if !self.eat_char(',') {
                break;
            }
        }
        Ok(rows)
    }

    fn literal(&mut self) -> Result<Value> {
        self.skip_ws();
        if self.eat_keyword("NULL") {
            return Ok(Value::Null);
        }
        if self.eat_keyword("TRUE") {
            return Ok(Value::Bool(true));
        }
        if self.eat_keyword("FALSE") {
            return Ok(Value::Bool(false));
        }
        let rest = self.rest();
        let mut chars = rest.chars();
        match chars.next() {
            Some('\'') => {
                // Single-quoted string; '' escapes a quote.
                let mut s = String::new();
                let mut i = 1;
                let bytes = rest.as_bytes();
                loop {
                    match bytes.get(i) {
                        None => {
                            return Err(Error::UnexpectedEnd {
                                expected: "closing ' in string literal",
                            })
                        }
                        Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => {
                            s.push('\'');
                            i += 2;
                        }
                        Some(b'\'') => {
                            i += 1;
                            break;
                        }
                        Some(_) => {
                            let c = rest[i..].chars().next().expect("in-bounds char");
                            s.push(c);
                            i += c.len_utf8();
                        }
                    }
                }
                self.pos += i;
                Ok(Value::Str(s))
            }
            Some(c) if c.is_ascii_digit() || c == '-' || c == '+' => {
                let mut len = c.len_utf8();
                let mut is_float = false;
                for c in chars {
                    if c.is_ascii_digit() {
                        len += 1;
                    } else if c == '.' && !is_float {
                        is_float = true;
                        len += 1;
                    } else {
                        break;
                    }
                }
                let text = &rest[..len];
                self.pos += len;
                if is_float {
                    text.parse::<f64>()
                        .map(Value::Float)
                        .map_err(|_| Error::UnexpectedToken {
                            found: text.to_owned(),
                            expected: "numeric literal",
                        })
                } else {
                    text.parse::<i64>()
                        .map(Value::Int)
                        .map_err(|_| Error::UnexpectedToken {
                            found: text.to_owned(),
                            expected: "integer literal",
                        })
                }
            }
            _ => Err(Error::UnexpectedToken {
                found: self.next_word_for_error(),
                expected: "literal (number, 'string', NULL, TRUE, FALSE)",
            }),
        }
    }

    /// After `DELETE FROM t`: either end-of-statement (returns `None`) or
    /// `WHERE <predicate text>` (returns the raw predicate, semicolon
    /// stripped).
    fn rest_after_optional_where(&mut self) -> Result<Option<String>> {
        if self.eat_keyword("WHERE") {
            let pred = self.rest().trim().trim_end_matches(';').trim();
            if pred.is_empty() {
                return Err(Error::UnexpectedEnd {
                    expected: "predicate after WHERE",
                });
            }
            self.pos = self.src.len();
            Ok(Some(pred.to_owned()))
        } else {
            self.finish()?;
            Ok(None)
        }
    }

    /// Accepts an optional trailing `;` then end of input.
    fn finish(&mut self) -> Result<()> {
        self.eat_char(';');
        self.skip_ws();
        if self.rest().is_empty() {
            Ok(())
        } else {
            Err(Error::TrailingTokens {
                found: self.next_word_for_error(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        );
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
        use crate::schema::IndexKind;
        use crate::table::Backend;
        let oversized = format!("(4, '{}')", "x".repeat(crate::storage::PAGE_SIZE));
        for backend in [Backend::Memory, Backend::paged()] {
            let mut db = Database::with_backend(backend);
            db.create_table(
                TableSchema::new(
                    "city",
                    vec![
                        ColumnDef::new("cityid", ColumnType::Int).not_null(),
                        ColumnDef::new("cityname", ColumnType::Str),
                    ],
                )
                .unwrap(),
            );
            db.create_index("city", "cityid", IndexKind::Hash).unwrap();
            db.execute_dml("INSERT INTO city VALUES (1, 'a')").unwrap();
            // The third row violates NOT NULL on both backends; on the
            // paged one, a row larger than a page fails the same way.
            let mut bad = vec!["(2, 'b'), (3, 'c'), (NULL, 'd')".to_owned()];
            if backend != Backend::Memory {
                bad.push(format!("(2, 'b'), (3, 'c'), {oversized}"));
            }
            for rows in bad {
                let ctx = format!("{backend:?}: {}", &rows[..30]);
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
        }
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
        db.create_index("city", "cityid", crate::schema::IndexKind::Hash)
            .unwrap();
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
        let mut fresh = Table::with_backend(t.schema.clone(), t.backend()).unwrap();
        let mut deleted = Vec::new();
        for row in t.rows().iter() {
            if matched.contains(row) {
                deleted.push(row.clone());
            } else {
                fresh.insert(row.clone()).unwrap();
            }
        }
        (deleted, fresh)
    }

    #[test]
    fn in_place_delete_matches_rebuild_on_both_backends() {
        use crate::schema::IndexKind;
        use crate::table::Backend;
        for backend in [Backend::Memory, Backend::paged()] {
            for pred in [
                "cityid = 2",
                "cityname = 'b'",
                "cityid >= 2 AND cityid < 4",
                "cityname IS NULL",
                "cityid > 99",
            ] {
                let mut db = db().to_backend(backend).unwrap();
                db.create_index("city", "cityid", IndexKind::Hash).unwrap();
                db.create_index("city", "cityname", IndexKind::BTree)
                    .unwrap();
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
                let ctx = format!("{backend:?}, WHERE {pred}");
                assert_eq!(delta.tables["city"].deleted, want_deleted, "{ctx}");
                assert!(delta.tables["city"].inserted.is_empty(), "{ctx}");
                assert_eq!(got.rows(), want.rows(), "{ctx}: surviving rows and order");
                assert_eq!(got.backend(), backend, "{ctx}");
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
