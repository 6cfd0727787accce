//! Row storage: tables and the database (catalog + data).
//!
//! A [`Table`] keeps its rows in memory, in insertion order, and owns its
//! [`SecondaryIndex`]es, maintained on every insert and described by the
//! schema's [`IndexDef`]s so prepared plans can select index access paths
//! from the catalog alone.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use crate::error::{Error, Result};
use crate::index::SecondaryIndex;
use crate::schema::{Catalog, IndexDef, TableSchema};
use crate::value::Value;

/// A table: schema, rows, and secondary indexes.
#[derive(Debug, Clone)]
pub struct Table {
    /// The table's schema (including its [`IndexDef`]s).
    pub schema: TableSchema,
    rows: Vec<Vec<Value>>,
    indexes: Vec<SecondaryIndex>,
}

impl Table {
    /// Creates an empty table with the given schema, building an index for
    /// every [`IndexDef`] it declares through [`Table::create_index`], which
    /// rejects a column the schema lacks or a second index on one column.
    pub fn new(mut schema: TableSchema) -> Result<Self> {
        let defs = std::mem::take(&mut schema.indexes);
        let mut table = Table {
            schema,
            rows: Vec::new(),
            indexes: Vec::new(),
        };
        for def in defs {
            table.create_index(&def.column)?;
        }
        Ok(table)
    }

    /// Appends one row after validating it against the schema.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<()> {
        self.schema.check_row(&row)?;
        let rid = self.rows.len();
        for idx in &mut self.indexes {
            idx.insert(&row, rid);
        }
        self.rows.push(row);
        Ok(())
    }

    /// Declares a secondary index over `column` in the schema and builds
    /// it. A column the schema lacks is [`Error::UnknownColumn`], an
    /// already indexed one [`Error::DuplicateIndex`].
    pub fn create_index(&mut self, column: &str) -> Result<()> {
        let pos = self.schema.declare_index(IndexDef {
            column: column.to_owned(),
        })?;
        let mut idx = SecondaryIndex::new(pos);
        for (rid, row) in self.rows.iter().enumerate() {
            idx.insert(row, rid);
        }
        self.indexes.push(idx);
        Ok(())
    }

    /// The index over schema column position `column`, if one exists.
    pub fn index_for(&self, column: usize) -> Option<&SecondaryIndex> {
        self.indexes.iter().find(|i| i.column() == column)
    }

    /// The stored rows, in insertion order; a row id is a position here.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Removes every row whose `doomed[rid]` is set (one flag per row) and
    /// returns the removed rows in storage order; the rest keep their
    /// order. The rows are dropped in place, cloning only the removed ones,
    /// and the secondary indexes are fixed up (dropping the removed row
    /// ids, shifting the rest down).
    pub(crate) fn remove_rows(&mut self, doomed: &[bool]) -> Vec<Vec<Value>> {
        debug_assert_eq!(doomed.len(), self.len(), "one flag per row");
        let mut kept = 0;
        let new_rid: Vec<Option<usize>> = doomed
            .iter()
            .map(|&gone| {
                (!gone).then(|| {
                    kept += 1;
                    kept - 1
                })
            })
            .collect();
        let mut removed = Vec::new();
        let mut rid = 0;
        self.rows.retain(|row| {
            let keep = !doomed[rid];
            rid += 1;
            if !keep {
                removed.push(row.clone());
            }
            keep
        });
        for idx in &mut self.indexes {
            idx.renumber(&new_rid);
        }
        removed
    }
}

impl PartialEq for Table {
    /// Schema (including index declarations) and row contents; the index
    /// structures follow from those two.
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.rows == other.rows
    }
}

/// A database instance `I`: a catalog and the table contents.
#[derive(Debug, Clone)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    /// Cached [`Database::catalog_fingerprint`]; schema mutations all go
    /// through `&mut self` methods, which keep it current.
    fingerprint: u64,
}

impl Default for Database {
    fn default() -> Self {
        let mut db = Database {
            tables: BTreeMap::new(),
            fingerprint: 0,
        };
        db.refresh_fingerprint();
        db
    }
}

impl PartialEq for Database {
    fn eq(&self, other: &Self) -> bool {
        self.tables == other.tables
    }
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Creates a table from a schema (empty). Fails, creating nothing, when
    /// a table of the same name exists ([`Error::DuplicateTable`], the rule
    /// every DDL entry point applies) or when the schema declares an index
    /// [`Table::new`] rejects.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<()> {
        if self.tables.contains_key(&schema.name) {
            return Err(Error::DuplicateTable { name: schema.name });
        }
        let table = Table::new(schema)?;
        self.tables.insert(table.schema.name.clone(), table);
        self.refresh_fingerprint();
        Ok(())
    }

    /// Declares and builds a secondary index on `table.column`, recording
    /// it in the table's schema (and therefore in the catalog and the
    /// database fingerprint).
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<()> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| Error::UnknownTable {
                name: table.to_owned(),
            })?;
        t.create_index(column)?;
        self.refresh_fingerprint();
        Ok(())
    }

    /// Inserts a row into the named table.
    pub fn insert(&mut self, table: &str, row: Vec<Value>) -> Result<()> {
        match self.tables.get_mut(table) {
            Some(t) => t.insert(row),
            None => Err(Error::UnknownTable {
                name: table.to_owned(),
            }),
        }
    }

    /// Looks up a table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables.get(name).ok_or_else(|| Error::UnknownTable {
            name: name.to_owned(),
        })
    }

    /// The catalog view of this database (schemas only).
    pub fn catalog(&self) -> Catalog {
        let mut c = Catalog::new();
        for t in self.tables.values() {
            c.add(t.schema.clone());
        }
        c
    }

    /// A cheap fingerprint of the catalog (schemas + index declarations).
    /// Two databases with equal catalogs have equal fingerprints, and any
    /// `create_table`/`create_index` changes it with overwhelming
    /// probability — the publisher's plan cache keys its invalidation on
    /// this instead of rebuilding and comparing whole [`Catalog`]s.
    pub fn catalog_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn refresh_fingerprint(&mut self) {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for t in self.tables.values() {
            t.schema.hash(&mut h);
        }
        self.fingerprint = h.finish();
    }

    /// Removes the rows of `table` whose `doomed[rid]` is set, keeping the
    /// rest in storage order, and returns the removed rows in their former
    /// storage order (see [`Table::remove_rows`]). The schema is untouched,
    /// so the catalog fingerprint — and therefore any plan cache keyed on
    /// it — stays valid (the DML path depends on this).
    pub(crate) fn remove_rows(&mut self, table: &str, doomed: &[bool]) -> Result<Vec<Vec<Value>>> {
        let t = self
            .tables
            .get_mut(table)
            .ok_or_else(|| Error::UnknownTable {
                name: table.to_owned(),
            })?;
        Ok(t.remove_rows(doomed))
    }

    /// Iterates tables in name order.
    pub fn iter(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(Table::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnType};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "metroarea",
                vec![
                    ColumnDef::new("metroid", ColumnType::Int),
                    ColumnDef::new("metroname", ColumnType::Str),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn insert_and_read_back() {
        let mut db = db();
        db.insert(
            "metroarea",
            vec![Value::Int(1), Value::Str("chicago".into())],
        )
        .unwrap();
        let t = db.table("metroarea").unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.rows()[0][1], Value::Str("chicago".into()));
    }

    #[test]
    fn insert_validates_schema() {
        let mut db = db();
        assert!(db
            .insert("metroarea", vec![Value::Str("x".into()), Value::Int(1)])
            .is_err());
        assert!(matches!(
            db.insert("nope", vec![]),
            Err(Error::UnknownTable { .. })
        ));
    }

    #[test]
    fn catalog_reflects_tables() {
        let db = db();
        let c = db.catalog();
        assert!(c.contains("metroarea"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn total_rows_sums_tables() {
        let mut db = db();
        db.insert("metroarea", vec![Value::Int(1), Value::Str("a".into())])
            .unwrap();
        db.insert("metroarea", vec![Value::Int(2), Value::Str("b".into())])
            .unwrap();
        assert_eq!(db.total_rows(), 2);
    }

    #[test]
    fn create_index_builds_and_maintains() {
        let mut db = db();
        for i in 0..10 {
            db.insert(
                "metroarea",
                vec![Value::Int(i % 3), Value::Str(format!("m{i}"))],
            )
            .unwrap();
        }
        db.create_index("metroarea", "metroid").unwrap();
        // Maintained on later inserts too.
        db.insert("metroarea", vec![Value::Int(1), Value::Str("late".into())])
            .unwrap();
        let t = db.table("metroarea").unwrap();
        let idx = t.index_for(0).unwrap();
        assert_eq!(idx.lookup(&Value::Int(1)), &[1, 4, 7, 10]);
        assert!(t.schema.index_on("metroid").is_some());
        assert!(db.create_index("metroarea", "metroid").is_err());
        assert!(db.create_index("metroarea", "nope").is_err());
        assert!(db.create_index("nope", "metroid").is_err());
    }

    #[test]
    fn create_table_rejects_a_bad_index_declaration() {
        let mut db = db();
        let fingerprint = db.catalog_fingerprint();
        let schema = |indexed: &[&str]| {
            let mut s = TableSchema::new("t", vec![ColumnDef::new("a", ColumnType::Int)]).unwrap();
            for column in indexed {
                s.indexes.push(IndexDef {
                    column: (*column).to_owned(),
                });
            }
            s
        };
        assert_eq!(
            db.create_table(schema(&["b"])),
            Err(Error::UnknownColumn {
                reference: "t.b".into()
            })
        );
        assert_eq!(
            db.create_table(schema(&["a", "a"])),
            Err(Error::DuplicateIndex {
                table: "t".into(),
                column: "a".into()
            })
        );
        // A rejected table leaves the database as it was.
        assert!(!db.catalog().contains("t"));
        assert_eq!(db.catalog_fingerprint(), fingerprint);
        db.create_table(schema(&["a"])).unwrap();
        assert!(db.table("t").unwrap().index_for(0).is_some());
    }

    #[test]
    fn create_table_rejects_an_existing_name() {
        let mut db = Database::new();
        db.execute_ddl("CREATE TABLE t (a INT); CREATE INDEX ON t (a)")
            .unwrap();
        db.insert("t", vec![Value::Int(7)]).unwrap();
        let fingerprint = db.catalog_fingerprint();
        let replacement =
            TableSchema::new("t", vec![ColumnDef::new("b", ColumnType::Str)]).unwrap();
        assert_eq!(
            db.create_table(replacement),
            Err(Error::DuplicateTable { name: "t".into() })
        );
        // The table keeps its rows, its column and its index.
        let t = db.table("t").unwrap();
        assert_eq!(t.rows(), &[vec![Value::Int(7)]]);
        assert_eq!(t.schema.columns[0].name, "a");
        assert_eq!(t.schema.columns.len(), 1);
        assert_eq!(t.index_for(0).unwrap().lookup(&Value::Int(7)), &[0]);
        assert_eq!(db.catalog_fingerprint(), fingerprint);
        // The DDL path rejects the name with the same error.
        assert_eq!(
            db.execute_ddl("CREATE TABLE t (b TEXT)"),
            Err(Error::DuplicateTable { name: "t".into() })
        );
    }

    #[test]
    fn fingerprint_tracks_schema_changes_only() {
        let mut db = db();
        let fp0 = db.catalog_fingerprint();
        db.insert("metroarea", vec![Value::Int(1), Value::Str("a".into())])
            .unwrap();
        assert_eq!(
            db.catalog_fingerprint(),
            fp0,
            "data does not change the catalog"
        );
        db.create_index("metroarea", "metroid").unwrap();
        let fp1 = db.catalog_fingerprint();
        assert_ne!(fp0, fp1, "index declarations are part of the catalog");
        db.create_table(
            TableSchema::new("extra", vec![ColumnDef::new("x", ColumnType::Int)]).unwrap(),
        )
        .unwrap();
        assert_ne!(db.catalog_fingerprint(), fp1);
        // Equal catalogs (built the same way) fingerprint equally.
        let mut twin = Database::new();
        twin.create_table(
            TableSchema::new(
                "metroarea",
                vec![
                    ColumnDef::new("metroid", ColumnType::Int),
                    ColumnDef::new("metroname", ColumnType::Str),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        twin.create_index("metroarea", "metroid").unwrap();
        twin.create_table(
            TableSchema::new("extra", vec![ColumnDef::new("x", ColumnType::Int)]).unwrap(),
        )
        .unwrap();
        assert_eq!(db.catalog_fingerprint(), twin.catalog_fingerprint());
    }
}
