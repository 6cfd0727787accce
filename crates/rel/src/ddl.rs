//! DDL: the one rule set for declaring `CREATE TABLE` / `CREATE INDEX`
//! scripts on a catalog, and their application to a [`Database`]. The
//! statements' grammar — type names, column constraints, the `CREATE
//! INDEX [name] ON table (column) [USING HASH|BTREE]` form — is
//! [`crate::parse`]'s.
//!
//! ```text
//! CREATE TABLE hotel (
//!     hotelid   INT PRIMARY KEY,
//!     hotelname TEXT,
//!     starrating INT
//! );
//! CREATE INDEX ON hotel (starrating) USING BTREE;
//! ```
//!
//! The column annotations `PRIMARY KEY` and `NOT NULL` are retained on
//! [`crate::ColumnDef`]: they seed the predicate-dataflow fact base, and
//! `check_row` enforces NOT NULL on insert. Every declared index
//! ([`crate::IndexDef`]) is the one equality index
//! ([`crate::SecondaryIndex`]), whether the script says `USING HASH`,
//! `USING BTREE` or neither; prepared plans select index access paths from
//! these declarations.
//!
//! [`parse_ddl`], [`database_from_ddl`] and [`Database::execute_ddl`]
//! accept and reject the same scripts: a table is created once, a column
//! is indexed at most once, and an index names a declared table and column.

use crate::error::{Error, Result};
use crate::parse::{parse_ddl_statements, DdlStatement};
use crate::schema::Catalog;
use crate::table::Database;

/// Parses a script of `CREATE TABLE` / `CREATE INDEX` statements into a
/// [`Catalog`] (index declarations attach to their table's schema). The
/// statements are declared on an empty catalog under the rules every DDL
/// entry point shares (see [`Database::execute_ddl`]).
pub fn parse_ddl(input: &str) -> Result<Catalog> {
    let mut catalog = Catalog::new();
    declare(&mut catalog, &parse_ddl_statements(input)?)?;
    Ok(catalog)
}

/// Parses a DDL script into an empty [`Database`] (tables created, no
/// rows, declared indexes built): [`Database::execute_ddl`] on a new
/// database.
pub fn database_from_ddl(input: &str) -> Result<Database> {
    let mut db = Database::new();
    db.execute_ddl(input)?;
    Ok(db)
}

impl Database {
    /// Executes a DDL script against a *live* database: `CREATE TABLE`
    /// adds an empty table, `CREATE INDEX` builds a secondary index over
    /// the table's existing rows. Returns the number of statements
    /// applied.
    ///
    /// The `xvc serve` DDL endpoint routes through it so a long-running
    /// engine can gain indexes mid-flight. Both statement kinds change the
    /// catalog fingerprint, so cached publish plans recompile on the next
    /// request. The whole batch is declared on a copy of the catalog
    /// before any statement is applied, so a rejected batch leaves the
    /// database unchanged.
    pub fn execute_ddl(&mut self, sql: &str) -> Result<usize> {
        let statements = parse_ddl_statements(sql)?;
        declare(&mut self.catalog(), &statements)?;
        let applied = statements.len();
        for stmt in statements {
            match stmt {
                DdlStatement::CreateTable(schema) => self.create_table(schema)?,
                DdlStatement::CreateIndex { table, def } => {
                    self.create_index(&table, &def.column)?;
                }
            }
        }
        Ok(applied)
    }
}

/// Declares DDL statements, in order, on `catalog`: the one rule set of
/// [`parse_ddl`], [`database_from_ddl`] and [`Database::execute_ddl`].
/// Rejects a table that already exists (in the catalog or earlier in the
/// batch), an index on an unknown table, and whatever
/// [`TableSchema::declare_index`] rejects — the errors applying the
/// statements to a database would raise.
fn declare(catalog: &mut Catalog, statements: &[DdlStatement]) -> Result<()> {
    for stmt in statements {
        match stmt {
            DdlStatement::CreateTable(schema) => {
                if catalog.contains(&schema.name) {
                    return Err(Error::DuplicateTable {
                        name: schema.name.clone(),
                    });
                }
                catalog.add(schema.clone());
            }
            DdlStatement::CreateIndex { table, def } => {
                let mut schema = catalog.get(table)?.clone();
                schema.declare_index(def.clone())?;
                catalog.add(schema);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;

    #[test]
    fn parses_single_table() {
        let catalog =
            parse_ddl("CREATE TABLE hotel (hotelid INT, hotelname TEXT, starrating INT)").unwrap();
        let s = catalog.get("hotel").unwrap();
        assert_eq!(s.name, "hotel");
        assert_eq!(s.columns.len(), 3);
        assert_eq!(s.columns[1].ty, ColumnType::Str);
    }

    #[test]
    fn parses_script_with_comments_and_annotations() {
        let catalog = parse_ddl(
            "-- the hotel schema\n\
             CREATE TABLE metroarea (metroid INT PRIMARY KEY, metroname VARCHAR(64));\n\
             create table availability (a_id int, price DECIMAL(10,2), startdate DATE);\n",
        )
        .unwrap();
        assert_eq!(catalog.len(), 2);
        let avail = catalog.get("availability").unwrap();
        assert_eq!(avail.columns[1].ty, ColumnType::Float);
        assert_eq!(avail.columns[2].ty, ColumnType::Str);
        // PRIMARY KEY is retained, not stripped.
        let metro = catalog.get("metroarea").unwrap();
        assert!(metro.columns[0].primary_key);
        assert!(metro.columns[0].not_null);
        assert!(!metro.columns[1].primary_key);
        assert_eq!(metro.primary_key(), vec!["metroid"]);
    }

    #[test]
    fn retains_not_null_and_enforces_it() {
        use crate::value::Value;
        let db =
            database_from_ddl("CREATE TABLE t (id INT PRIMARY KEY, name TEXT NOT NULL, note TEXT)")
                .unwrap();
        let schema = db.table("t").unwrap().schema.clone();
        assert!(schema.columns[1].not_null && !schema.columns[1].primary_key);
        assert!(!schema.columns[2].not_null);
        assert!(schema
            .check_row(&[Value::Int(1), Value::Null, Value::Null])
            .is_err());
    }

    #[test]
    fn database_from_ddl_creates_empty_tables() {
        let db = database_from_ddl("CREATE TABLE t (a INT)").unwrap();
        assert_eq!(db.table("t").unwrap().len(), 0);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_ddl("DROP TABLE x").is_err());
        assert!(parse_ddl("CREATE TABLE (a INT)").is_err());
        assert!(parse_ddl("CREATE TABLE t (a BLOB)").is_err());
        assert!(parse_ddl("CREATE TABLE t a INT").is_err());
    }

    #[test]
    fn create_index_attaches_to_catalog_and_database() {
        let ddl = "CREATE TABLE hotel (hotelid INT, metroid INT);\n\
                   CREATE INDEX idx_metro ON hotel (metroid);\n\
                   CREATE INDEX ON hotel (hotelid) USING BTREE;";
        let catalog = parse_ddl(ddl).unwrap();
        let hotel = catalog.get("hotel").unwrap();
        assert_eq!(hotel.indexes.len(), 2);
        assert!(hotel.index_on("metroid").is_some() && hotel.index_on("hotelid").is_some());

        let db = database_from_ddl(ddl).unwrap();
        let t = db.table("hotel").unwrap();
        assert!(t.index_for(0).is_some() && t.index_for(1).is_some());
        // The database's catalog carries the declarations too.
        assert_eq!(db.catalog().get("hotel").unwrap().indexes.len(), 2);
    }

    #[test]
    fn execute_ddl_builds_index_over_live_rows_and_changes_fingerprint() {
        use crate::value::Value;
        let mut db = database_from_ddl("CREATE TABLE hotel (hotelid INT, metroid INT)").unwrap();
        db.insert("hotel", vec![Value::Int(1), Value::Int(7)])
            .unwrap();
        let before = db.catalog_fingerprint();

        assert_eq!(
            db.execute_ddl("CREATE INDEX ON hotel (metroid) USING BTREE")
                .unwrap(),
            1
        );
        // The index exists over the existing row and the catalog changed.
        assert!(db.table("hotel").unwrap().index_for(1).is_some());
        assert_ne!(db.catalog_fingerprint(), before);

        // CREATE TABLE works at runtime too, but never clobbers a table.
        assert_eq!(db.execute_ddl("CREATE TABLE extra (x INT)").unwrap(), 1);
        assert!(db.execute_ddl("CREATE TABLE hotel (x INT)").is_err());
        assert_eq!(db.table("hotel").unwrap().len(), 1);
    }

    #[test]
    fn rejected_ddl_batch_changes_nothing() {
        let mut db =
            database_from_ddl("CREATE TABLE sight (sid INT, fee INT); CREATE INDEX ON sight (sid)")
                .unwrap();
        // The catalog holds every table with its index declarations.
        let catalog = db.catalog();
        let before = db.catalog_fingerprint();
        for bad in [
            // An index on an unknown table after a valid CREATE TABLE.
            "CREATE TABLE audit (id INT); CREATE INDEX ON missing (x)",
            // A valid index before a duplicate table.
            "CREATE INDEX ON sight (fee); CREATE TABLE sight (id INT)",
            // A table duplicated within the batch.
            "CREATE TABLE audit (id INT); CREATE TABLE audit (id INT)",
            // An unknown column, and a duplicate index within the batch.
            "CREATE TABLE audit (id INT); CREATE INDEX ON audit (nope)",
            "CREATE INDEX ON sight (fee); CREATE INDEX ON sight (fee)",
            // An index the table already has.
            "CREATE TABLE audit (id INT); CREATE INDEX ON sight (sid)",
        ] {
            assert!(db.execute_ddl(bad).is_err(), "{bad}");
            assert_eq!(db.catalog(), catalog, "{bad}");
            assert!(db.table("sight").unwrap().index_for(1).is_none(), "{bad}");
            assert_eq!(db.catalog_fingerprint(), before, "{bad}");
        }
        // A valid batch that creates a table and indexes it applies both.
        assert_eq!(
            db.execute_ddl("CREATE TABLE audit (id INT); CREATE INDEX ON audit (id)")
                .unwrap(),
            2
        );
        assert!(db.table("audit").unwrap().index_for(0).is_some());
        assert_ne!(db.catalog_fingerprint(), before);
    }

    #[test]
    fn every_entry_point_applies_the_same_rules() {
        let rejected = [
            (
                "CREATE TABLE t (a INT); CREATE TABLE t (b TEXT)",
                Error::DuplicateTable { name: "t".into() },
            ),
            (
                "CREATE TABLE t (a INT); CREATE INDEX i ON t (a); CREATE INDEX j ON t (a)",
                Error::DuplicateIndex {
                    table: "t".into(),
                    column: "a".into(),
                },
            ),
            (
                "CREATE TABLE t (a INT); CREATE INDEX i ON u (a)",
                Error::UnknownTable { name: "u".into() },
            ),
            (
                "CREATE TABLE t (a INT); CREATE INDEX i ON t (b)",
                Error::UnknownColumn {
                    reference: "t.b".into(),
                },
            ),
        ];
        for (script, want) in rejected {
            assert_eq!(parse_ddl(script).err(), Some(want.clone()), "{script}");
            assert_eq!(
                database_from_ddl(script).err(),
                Some(want.clone()),
                "{script}"
            );
            assert_eq!(
                Database::new().execute_ddl(script).err(),
                Some(want),
                "{script}"
            );
        }
        let valid = "CREATE TABLE hotel (hotelid INT PRIMARY KEY, metroid INT NOT NULL);\n\
                     CREATE INDEX ON hotel (metroid);\n\
                     CREATE TABLE metroarea (metroid INT, metroname TEXT);\n\
                     CREATE INDEX ON metroarea (metroid) USING BTREE;\n\
                     CREATE INDEX ON hotel (hotelid) USING BTREE;";
        assert_eq!(
            parse_ddl(valid).unwrap(),
            database_from_ddl(valid).unwrap().catalog()
        );
    }

    #[test]
    fn create_index_rejects_bad_targets() {
        assert!(parse_ddl("CREATE INDEX i ON nope (x)").is_err());
        assert!(parse_ddl("CREATE TABLE t (a INT); CREATE INDEX i ON t (b)").is_err());
        assert!(parse_ddl("CREATE TABLE t (a INT); CREATE INDEX i ON t (a) USING TRIE").is_err());
        assert!(parse_ddl("CREATE TABLE t (a INT, b INT); CREATE INDEX i ON t (a, b)").is_err());
        assert!(database_from_ddl("CREATE INDEX i ON nope (x)").is_err());
    }
}
