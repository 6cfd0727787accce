//! Table schemas and the catalog: the columns of each table and the
//! secondary indexes declared on it. An index declaration ([`IndexDef`])
//! names one column; every declared index is the one equality index shape
//! ([`crate::SecondaryIndex`]) that the planner uses.

use std::collections::BTreeMap;

use crate::error::{Error, Result};
use crate::value::Value;

/// Column type, used for validation and workload generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// String (also dates, as ISO-8601 strings).
    Str,
}

impl ColumnType {
    /// True if `v` is storable in a column of this type (NULL always is).
    pub fn admits(self, v: &Value) -> bool {
        matches!(
            (self, v),
            (_, Value::Null)
                | (ColumnType::Int, Value::Int(_))
                | (ColumnType::Float, Value::Float(_))
                | (ColumnType::Float, Value::Int(_))
                | (ColumnType::Str, Value::Str(_))
        )
    }
}

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnDef {
    /// Column name (unique within the table).
    pub name: String,
    /// Column type.
    pub ty: ColumnType,
    /// `NOT NULL` constraint (also implied by `primary_key`).
    pub not_null: bool,
    /// `PRIMARY KEY` constraint (implies uniqueness and NOT NULL).
    pub primary_key: bool,
}

impl ColumnDef {
    /// Convenience constructor (no constraints).
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        ColumnDef {
            name: name.into(),
            ty,
            not_null: false,
            primary_key: false,
        }
    }

    /// Marks the column `NOT NULL`.
    #[must_use]
    pub fn not_null(mut self) -> Self {
        self.not_null = true;
        self
    }

    /// Marks the column `PRIMARY KEY` (which also implies NOT NULL).
    #[must_use]
    pub fn primary_key(mut self) -> Self {
        self.primary_key = true;
        self.not_null = true;
        self
    }

    /// True if NULL is rejected in this column (`NOT NULL` or key column).
    pub fn rejects_null(&self) -> bool {
        self.not_null || self.primary_key
    }
}

/// Declares a secondary index over one column. Carried on the
/// [`TableSchema`] so the catalog (and therefore `plan::prepare`'s
/// access-path selection and the database fingerprint) sees it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IndexDef {
    /// The indexed column's name.
    pub column: String,
}

/// Schema of one table.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TableSchema {
    /// Table name.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<ColumnDef>,
    /// Secondary indexes in creation order.
    pub indexes: Vec<IndexDef>,
}

impl TableSchema {
    /// Creates a schema; column names must be unique.
    pub fn new(name: impl Into<String>, columns: Vec<ColumnDef>) -> Result<Self> {
        let name = name.into();
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            if !seen.insert(c.name.as_str()) {
                return Err(Error::SchemaMismatch {
                    reason: format!("duplicate column {:?} in table {:?}", c.name, name),
                });
            }
        }
        Ok(TableSchema {
            name,
            columns,
            indexes: Vec::new(),
        })
    }

    /// The declared index over `column`, if any.
    pub fn index_on(&self, column: &str) -> Option<&IndexDef> {
        self.indexes.iter().find(|i| i.column == column)
    }

    /// Declares a secondary index and returns the indexed column's
    /// position: the rule every index declaration goes through, in DDL and
    /// on a live table. A column the schema lacks is
    /// [`Error::UnknownColumn`], an already indexed one
    /// [`Error::DuplicateIndex`].
    pub(crate) fn declare_index(&mut self, def: IndexDef) -> Result<usize> {
        let pos = self
            .column_index(&def.column)
            .ok_or_else(|| Error::UnknownColumn {
                reference: format!("{}.{}", self.name, def.column),
            })?;
        if self.index_on(&def.column).is_some() {
            return Err(Error::DuplicateIndex {
                table: self.name.clone(),
                column: def.column,
            });
        }
        self.indexes.push(def);
        Ok(pos)
    }

    /// Column names in declaration order.
    pub fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Names of the `PRIMARY KEY` columns, in declaration order.
    pub fn primary_key(&self) -> Vec<&str> {
        self.columns
            .iter()
            .filter(|c| c.primary_key)
            .map(|c| c.name.as_str())
            .collect()
    }

    /// Validates one row against the schema.
    pub fn check_row(&self, row: &[Value]) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(Error::SchemaMismatch {
                reason: format!(
                    "table {:?} expects {} columns, row has {}",
                    self.name,
                    self.columns.len(),
                    row.len()
                ),
            });
        }
        for (col, v) in self.columns.iter().zip(row) {
            if col.rejects_null() && matches!(v, Value::Null) {
                return Err(Error::SchemaMismatch {
                    reason: format!("NULL value in NOT NULL column {}.{}", self.name, col.name),
                });
            }
            if !col.ty.admits(v) {
                return Err(Error::SchemaMismatch {
                    reason: format!(
                        "value {v} does not fit column {}.{} of type {:?}",
                        self.name, col.name, col.ty
                    ),
                });
            }
        }
        Ok(())
    }
}

/// A catalog: the set of table schemas, keyed by name.
///
/// Uses a `BTreeMap` so iteration (and thus rendered artifacts) is
/// deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Catalog {
    tables: BTreeMap<String, TableSchema>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Adds (or replaces) a table schema.
    pub fn add(&mut self, schema: TableSchema) {
        self.tables.insert(schema.name.clone(), schema);
    }

    /// Looks up a table schema.
    pub fn get(&self, name: &str) -> Result<&TableSchema> {
        self.tables.get(name).ok_or_else(|| Error::UnknownTable {
            name: name.to_owned(),
        })
    }

    /// True if the catalog has a table of this name.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Iterates schemas in name order.
    pub fn iter(&self) -> impl Iterator<Item = &TableSchema> {
        self.tables.values()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True if no tables are defined.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metro_schema() -> TableSchema {
        TableSchema::new(
            "metroarea",
            vec![
                ColumnDef::new("metroid", ColumnType::Int),
                ColumnDef::new("metroname", ColumnType::Str),
            ],
        )
        .unwrap()
    }

    #[test]
    fn rejects_duplicate_columns() {
        assert!(TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", ColumnType::Int),
                ColumnDef::new("a", ColumnType::Str),
            ],
        )
        .is_err());
    }

    #[test]
    fn check_row_validates_arity_and_types() {
        let s = metro_schema();
        assert!(s
            .check_row(&[Value::Int(1), Value::Str("chi".into())])
            .is_ok());
        assert!(s.check_row(&[Value::Null, Value::Null]).is_ok());
        assert!(s.check_row(&[Value::Int(1)]).is_err());
        assert!(s
            .check_row(&[Value::Str("x".into()), Value::Str("chi".into())])
            .is_err());
    }

    #[test]
    fn not_null_columns_reject_null() {
        let s = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ColumnType::Int).primary_key(),
                ColumnDef::new("name", ColumnType::Str).not_null(),
                ColumnDef::new("note", ColumnType::Str),
            ],
        )
        .unwrap();
        assert!(s
            .check_row(&[Value::Int(1), Value::Str("a".into()), Value::Null])
            .is_ok());
        assert!(s
            .check_row(&[Value::Null, Value::Str("a".into()), Value::Null])
            .is_err());
        assert!(s
            .check_row(&[Value::Int(1), Value::Null, Value::Null])
            .is_err());
        assert_eq!(s.primary_key(), vec!["id"]);
    }

    #[test]
    fn float_columns_admit_ints() {
        let s = TableSchema::new("t", vec![ColumnDef::new("x", ColumnType::Float)]).unwrap();
        assert!(s.check_row(&[Value::Int(3)]).is_ok());
    }

    #[test]
    fn catalog_lookup() {
        let mut c = Catalog::new();
        c.add(metro_schema());
        assert!(c.get("metroarea").is_ok());
        assert!(matches!(c.get("nope"), Err(Error::UnknownTable { .. })));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn column_index_lookup() {
        let s = metro_schema();
        assert_eq!(s.column_index("metroname"), Some(1));
        assert_eq!(s.column_index("nope"), None);
    }
}
