//! Error type for the relational engine.

use std::fmt;

/// Result alias used throughout `xvc-rel`.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced while parsing or evaluating SQL.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Lexical error in SQL text.
    Lex {
        /// The offending character.
        found: char,
        /// Byte offset in the SQL source.
        offset: usize,
    },
    /// The SQL text ended prematurely.
    UnexpectedEnd {
        /// What the parser expected next.
        expected: &'static str,
    },
    /// A token that is not legal at this position.
    UnexpectedToken {
        /// Rendering of the offending token.
        found: String,
        /// What the parser expected instead.
        expected: &'static str,
    },
    /// Trailing tokens after a complete statement.
    TrailingTokens {
        /// Rendering of the first extra token.
        found: String,
    },
    /// Reference to a table that does not exist in the catalog.
    UnknownTable {
        /// The table name.
        name: String,
    },
    /// A column reference could not be resolved in any scope.
    UnknownColumn {
        /// The reference as written (possibly qualified).
        reference: String,
    },
    /// A column name resolves in more than one FROM item.
    AmbiguousColumn {
        /// The ambiguous name.
        name: String,
    },
    /// A `$var.column` parameter was not bound at evaluation time.
    UnboundParameter {
        /// The binding-variable name.
        var: String,
    },
    /// A `$var.column` parameter referenced a column the binding tuple
    /// does not carry.
    ParameterColumn {
        /// The binding-variable name.
        var: String,
        /// The missing column.
        column: String,
    },
    /// Two FROM items use the same alias.
    DuplicateAlias {
        /// The repeated alias.
        alias: String,
    },
    /// An aggregate appeared where aggregates are not allowed (e.g. WHERE).
    MisplacedAggregate,
    /// A typed operation was applied to incompatible values.
    Type {
        /// Human-readable explanation.
        reason: String,
    },
    /// A table was created or loaded with rows that do not fit its schema.
    SchemaMismatch {
        /// Human-readable explanation.
        reason: String,
    },
    /// A table was created under a name the database or DDL script
    /// already declares.
    DuplicateTable {
        /// The table name.
        name: String,
    },
    /// A second secondary index was declared on an already indexed column.
    DuplicateIndex {
        /// The table.
        table: String,
        /// The column that already has an index.
        column: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Lex { found, offset } => {
                write!(f, "unexpected character {found:?} at byte {offset}")
            }
            Error::UnexpectedEnd { expected } => {
                write!(f, "unexpected end of SQL; expected {expected}")
            }
            Error::UnexpectedToken { found, expected } => {
                write!(f, "unexpected token {found}; expected {expected}")
            }
            Error::TrailingTokens { found } => {
                write!(f, "trailing tokens after statement, starting at {found}")
            }
            Error::UnknownTable { name } => write!(f, "unknown table {name:?}"),
            Error::UnknownColumn { reference } => {
                write!(f, "unknown column {reference:?}")
            }
            Error::AmbiguousColumn { name } => write!(f, "ambiguous column {name:?}"),
            Error::UnboundParameter { var } => write!(f, "unbound parameter ${var}"),
            Error::ParameterColumn { var, column } => {
                write!(f, "parameter ${var} has no column {column:?}")
            }
            Error::DuplicateAlias { alias } => {
                write!(f, "duplicate FROM alias {alias:?}")
            }
            Error::MisplacedAggregate => {
                write!(f, "aggregate function not allowed in this clause")
            }
            Error::Type { reason } => write!(f, "type error: {reason}"),
            Error::SchemaMismatch { reason } => write!(f, "schema mismatch: {reason}"),
            Error::DuplicateTable { name } => write!(f, "table {name:?} already exists"),
            Error::DuplicateIndex { table, column } => {
                write!(f, "table {table:?} already has an index on {column:?}")
            }
        }
    }
}

impl std::error::Error for Error {}
