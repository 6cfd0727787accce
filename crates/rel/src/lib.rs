//! # `xvc-rel` — in-memory relational engine
//!
//! The SIGMOD'03 composition paper assumes a relational engine behind the
//! XML-publishing middleware: schema-tree *tag queries* are parameterized
//! SQL, and the composition algorithm itself **rewrites SQL** (the
//! `UNBIND`/`NEST` functions of Figures 10–13 substitute binding variables
//! with derived-table subqueries, add `GROUP BY` clauses to preserve
//! aggregation semantics, and wrap sibling subtrees in `EXISTS` checks).
//! No SQL crate is available offline, so this crate provides everything
//! first-party:
//!
//! * [`value`] — dynamically typed SQL values with NULL semantics;
//! * [`schema`] / [`table`] — catalogs, table schemas and in-memory row
//!   storage ([`Database`]);
//! * [`index`] — equality (hash) secondary indexes over table columns,
//!   order-preserving so index access paths publish identical documents;
//! * [`ast`] — the SQL fragment the algorithm emits: select lists with
//!   aggregates and qualified stars, derived tables, parameters
//!   (`$bv.column`), `GROUP BY`/`HAVING`, `EXISTS` subqueries;
//! * [`parse`] — the one SQL front end: a lexer and parser for that
//!   fragment (so the paper's queries can be written as text and
//!   round-tripped), for `INSERT`/`DELETE` and for `CREATE TABLE`/`CREATE
//!   INDEX` scripts;
//! * [`mod@print`] — a deterministic pretty-printer (golden tests compare SQL);
//! * [`eval`] — the interpreter: eager single-table filters, hash
//!   equi-joins, grouping, aggregate & `HAVING` evaluation, correlated
//!   `EXISTS` with constant-per-parameterization caching;
//! * [`plan`] — prepared plans: the interpreter's classification hoisted
//!   to compile time (predicate pushdown assignment, join order and
//!   hash-key selection, parameter slots), executable once per binding —
//!   what the publisher's per-`SchemaTree` plan cache stores;
//! * [`rewrite`] — the query-surgery helpers `UNBIND`/`NEST` rely on;
//! * [`mod@optimize`] — the Kim-style unnesting pass the paper points at
//!   (§4.2.1), applied opt-in after composition;
//! * [`dml`] — the write path: executes `INSERT INTO` / `DELETE FROM`
//!   statements, returning per-table [`Delta`]s for incremental
//!   republishing;
//! * [`ddl`] — the one rule set for declaring `CREATE TABLE` / `CREATE
//!   INDEX` scripts on a catalog or a live database;
//! * [`domain`] / [`facts`] — the predicate-dataflow engine: a per-column
//!   equality/interval/nullability abstract domain seeded from retained
//!   DDL constraints, with conjunct-level satisfiability, entailment and
//!   fact-chain provenance (consumed by TVQ pruning and `xvc check`).

#![warn(missing_docs)]
// Curated clippy::pedantic subset shared with `xvc-analyze` (kept clean
// under `-D warnings` in ci.sh).
#![warn(
    clippy::doc_markdown,
    clippy::explicit_iter_loop,
    clippy::items_after_statements,
    clippy::manual_let_else,
    clippy::match_same_arms,
    clippy::needless_pass_by_value,
    clippy::redundant_closure_for_method_calls,
    clippy::semicolon_if_nothing_returned,
    clippy::uninlined_format_args
)]

pub mod ast;
pub mod csv;
pub mod ddl;
pub mod dml;
pub mod domain;
pub mod error;
pub mod eval;
pub mod facts;
pub mod index;
pub mod optimize;
pub mod parse;
pub mod plan;
pub mod print;
pub mod rewrite;
pub mod schema;
pub mod table;
pub mod value;

pub use ast::{AggFunc, BinOp, ScalarExpr, SelectItem, SelectQuery, TableRef};
pub use csv::load_csv;
pub use ddl::{database_from_ddl, parse_ddl};
pub use dml::{Delta, TableDelta};
pub use domain::{Assumption, Card, CardBound, ColumnDomain};
pub use error::{Error, Result};
pub use eval::{
    eval_query, eval_query_stats, eval_query_with, EvalOptions, EvalStats, NamedTuple, ParamEnv,
    Relation,
};
pub use facts::{
    analyze_query, bound_query, drop_redundant_conjuncts, param_key, query_cardinality, ClauseKind,
    FactEntry, FactSet, QueryAnalysis, QueryCardinality,
};
pub use index::SecondaryIndex;
pub use optimize::optimize;
pub use parse::parse_query;
pub use plan::{
    prepare, BatchResult, BatchRows, Bindings, JoinKey, PreparedPlan, RowKey, SharedScan,
};
pub use schema::{Catalog, ColumnDef, ColumnType, IndexDef, TableSchema};
pub use table::{Database, Table};
pub use value::Value;
