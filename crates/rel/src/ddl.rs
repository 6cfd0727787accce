//! A minimal DDL dialect: `CREATE TABLE` statements for catalog/database
//! bootstrap (used by the `xvc` CLI and file-based workflows).
//!
//! ```text
//! CREATE TABLE hotel (
//!     hotelid   INT,
//!     hotelname TEXT,
//!     starrating INT
//! );
//! ```
//!
//! Accepted type names: `INT`/`INTEGER`/`BIGINT` → [`ColumnType::Int`],
//! `FLOAT`/`REAL`/`DOUBLE` → [`ColumnType::Float`], `TEXT`/`STRING`/
//! `VARCHAR`/`CHAR`/`DATE` → [`ColumnType::Str`] (dates are ISO strings in
//! this engine). The column annotations `PRIMARY KEY` and `NOT NULL` are
//! retained on [`ColumnDef`] — they seed the predicate-dataflow fact base
//! and `check_row` enforces NOT NULL on insert. Other trailing tokens up
//! to `,`/`)` (e.g. `DEFAULT 0`, `UNIQUE`) still parse through unrecorded.
//!
//! `CREATE INDEX [name] ON table (column)` declares a secondary index
//! ([`IndexDef`]) on a previously created table — hash-shaped by default,
//! `USING BTREE` for the ordered shape. Prepared plans select index access
//! paths from these declarations.
//!
//! [`parse_ddl`], [`database_from_ddl`] and [`Database::execute_ddl`]
//! accept and reject the same scripts: a table is created once, a column
//! is indexed at most once, and an index names a declared table and column.

use crate::error::{Error, Result};
use crate::schema::{Catalog, ColumnDef, ColumnType, IndexDef, IndexKind, TableSchema};
use crate::table::Database;

/// One parsed DDL statement.
enum DdlStatement {
    CreateTable(TableSchema),
    /// `CREATE INDEX ... ON table (column) [USING BTREE]`.
    CreateIndex {
        table: String,
        def: IndexDef,
    },
}

/// Parses a script of `CREATE TABLE` / `CREATE INDEX` statements into a
/// [`Catalog`] (index declarations attach to their table's schema). The
/// statements are declared on an empty catalog under the rules every DDL
/// entry point shares (see [`Database::execute_ddl`]).
pub fn parse_ddl(input: &str) -> Result<Catalog> {
    let mut catalog = Catalog::new();
    declare(&mut catalog, &parse_statements(input)?)?;
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
        let statements = parse_statements(sql)?;
        declare(&mut self.catalog(), &statements)?;
        let applied = statements.len();
        for stmt in statements {
            match stmt {
                DdlStatement::CreateTable(schema) => self.create_table(schema)?,
                DdlStatement::CreateIndex { table, def } => {
                    self.create_index(&table, &def.column, def.kind)?;
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

fn parse_statements(input: &str) -> Result<Vec<DdlStatement>> {
    let mut out = Vec::new();
    // Strip `--` line comments.
    let cleaned: String = input
        .lines()
        .map(|l| l.split("--").next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n");
    for stmt in cleaned.split(';') {
        let stmt = stmt.trim();
        if stmt.is_empty() {
            continue;
        }
        if strip_keywords(stmt, &["CREATE", "INDEX"]).is_some() {
            out.push(parse_create_index(stmt)?);
        } else {
            out.push(DdlStatement::CreateTable(parse_create_table(stmt)?));
        }
    }
    Ok(out)
}

/// Parses one `CREATE INDEX [name] ON table (column) [USING BTREE]`
/// statement. The index name is accepted and discarded (indexes are
/// identified by table + column); the shape defaults to hash.
fn parse_create_index(stmt: &str) -> Result<DdlStatement> {
    let rest = strip_keywords(stmt.trim(), &["CREATE", "INDEX"]).ok_or_else(|| {
        Error::UnexpectedToken {
            found: format!("'{}'", head(stmt)),
            expected: "CREATE INDEX",
        }
    })?;
    // Optional index name before ON (token-wise, so a name like `online`
    // is not mistaken for the keyword).
    let mut parts = rest.splitn(2, char::is_whitespace);
    let first = parts.next().unwrap_or("");
    let rest = if first.eq_ignore_ascii_case("ON") {
        parts.next().unwrap_or("").trim_start()
    } else {
        strip_keywords(parts.next().unwrap_or(""), &["ON"]).ok_or(Error::UnexpectedEnd {
            expected: "ON after index name",
        })?
    };
    let open = rest.find('(').ok_or(Error::UnexpectedEnd {
        expected: "'(' after table name",
    })?;
    let table = rest[..open].trim();
    if table.is_empty() || !table.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return Err(Error::UnexpectedToken {
            found: format!("'{table}'"),
            expected: "a table name",
        });
    }
    let close = rest.rfind(')').ok_or(Error::UnexpectedEnd {
        expected: "')' closing the column list",
    })?;
    let column = rest[open + 1..close].trim();
    if column.is_empty() || column.contains(',') {
        return Err(Error::UnexpectedToken {
            found: format!("'{column}'"),
            expected: "exactly one indexed column",
        });
    }
    let trailing: Vec<String> = rest[close + 1..]
        .split_whitespace()
        .map(str::to_ascii_uppercase)
        .collect();
    let kind = match trailing.as_slice() {
        [] => IndexKind::Hash,
        [using, shape] if using == "USING" => match shape.as_str() {
            "BTREE" => IndexKind::BTree,
            "HASH" => IndexKind::Hash,
            other => {
                return Err(Error::UnexpectedToken {
                    found: format!("'{other}'"),
                    expected: "USING HASH or USING BTREE",
                })
            }
        },
        other => {
            return Err(Error::UnexpectedToken {
                found: format!("'{}'", other.join(" ")),
                expected: "USING HASH, USING BTREE, or end of statement",
            })
        }
    };
    Ok(DdlStatement::CreateIndex {
        table: table.to_owned(),
        def: IndexDef {
            column: column.to_owned(),
            kind,
        },
    })
}

/// Parses one `CREATE TABLE name (col type, ...)` statement.
pub fn parse_create_table(stmt: &str) -> Result<TableSchema> {
    let rest = strip_keywords(stmt.trim(), &["CREATE", "TABLE"]).ok_or_else(|| {
        Error::UnexpectedToken {
            found: format!("'{}'", head(stmt)),
            expected: "CREATE TABLE",
        }
    })?;
    let open = rest.find('(').ok_or(Error::UnexpectedEnd {
        expected: "'(' after table name",
    })?;
    let name = rest[..open].trim();
    if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return Err(Error::UnexpectedToken {
            found: format!("'{name}'"),
            expected: "a table name",
        });
    }
    let close = rest.rfind(')').ok_or(Error::UnexpectedEnd {
        expected: "')' closing the column list",
    })?;
    let body = &rest[open + 1..close];
    let mut columns = Vec::new();
    for col in split_top_level_commas(body) {
        let col = col.trim();
        if col.is_empty() {
            continue;
        }
        let mut parts = col.split_whitespace();
        let col_name = parts.next().ok_or(Error::UnexpectedEnd {
            expected: "a column name",
        })?;
        let ty_name = parts.next().ok_or(Error::UnexpectedEnd {
            expected: "a column type",
        })?;
        let ty = column_type(ty_name).ok_or_else(|| Error::UnexpectedToken {
            found: format!("'{ty_name}'"),
            expected: "INT/FLOAT/TEXT-family type",
        })?;
        let mut def = ColumnDef::new(col_name, ty);
        // Constraint annotations after the type: `PRIMARY KEY`, `NOT NULL`.
        let trailing: Vec<String> = parts.map(str::to_ascii_uppercase).collect();
        for pair in trailing.windows(2) {
            match (pair[0].as_str(), pair[1].as_str()) {
                ("PRIMARY", "KEY") => def = def.primary_key(),
                ("NOT", "NULL") => def = def.not_null(),
                _ => {}
            }
        }
        columns.push(def);
    }
    TableSchema::new(name, columns)
}

fn head(s: &str) -> &str {
    s.split_whitespace().next().unwrap_or("")
}

fn strip_keywords<'a>(s: &'a str, kws: &[&str]) -> Option<&'a str> {
    let mut rest = s;
    for kw in kws {
        rest = rest.trim_start();
        if rest.len() < kw.len() || !rest[..kw.len()].eq_ignore_ascii_case(kw) {
            return None;
        }
        rest = &rest[kw.len()..];
    }
    Some(rest.trim_start())
}

/// Splits on commas outside parentheses (types like `DECIMAL(10,2)` parse
/// through — the precision is ignored).
fn split_top_level_commas(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

fn column_type(name: &str) -> Option<ColumnType> {
    let base = name.split('(').next().unwrap_or(name);
    match base.to_ascii_uppercase().as_str() {
        "INT" | "INTEGER" | "BIGINT" | "SMALLINT" => Some(ColumnType::Int),
        "FLOAT" | "REAL" | "DOUBLE" | "DECIMAL" | "NUMERIC" => Some(ColumnType::Float),
        "TEXT" | "STRING" | "VARCHAR" | "CHAR" | "DATE" | "TIMESTAMP" => Some(ColumnType::Str),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_single_table() {
        let s =
            parse_create_table("CREATE TABLE hotel (hotelid INT, hotelname TEXT, starrating INT)")
                .unwrap();
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
        assert!(parse_create_table("DROP TABLE x").is_err());
        assert!(parse_create_table("CREATE TABLE (a INT)").is_err());
        assert!(parse_create_table("CREATE TABLE t (a BLOB)").is_err());
        assert!(parse_create_table("CREATE TABLE t a INT").is_err());
    }

    #[test]
    fn create_index_attaches_to_catalog_and_database() {
        let ddl = "CREATE TABLE hotel (hotelid INT, metroid INT);\n\
                   CREATE INDEX idx_metro ON hotel (metroid);\n\
                   CREATE INDEX ON hotel (hotelid) USING BTREE;";
        let catalog = parse_ddl(ddl).unwrap();
        let hotel = catalog.get("hotel").unwrap();
        assert_eq!(hotel.indexes.len(), 2);
        assert_eq!(hotel.index_on("metroid").unwrap().kind, IndexKind::Hash);
        assert_eq!(hotel.index_on("hotelid").unwrap().kind, IndexKind::BTree);

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
