//! # `xvc-view` — XML-publishing middleware (schema-tree view queries)
//!
//! Implements Definition 1 of the paper: a *schema-tree query* `v` is a tree
//! of nodes, each carrying a unique id, an XML tag, a binding variable, and
//! a parameterized SQL *tag query*. Evaluating `v` against a relational
//! database instance `I` produces an XML document `v(I)`: each tuple
//! returned by a node's tag query becomes an element bearing the node's
//! tag, with the tuple's columns as XML attributes; the node's binding
//! variable ranges over those tuples and parameterizes the tag queries of
//! descendant nodes. A unique document root is implied (§2.1).
//!
//! The format is adapted from ROLEX \[2, 3\], itself adapted from the
//! intermediate query representation of `SilkRoute` — the paper's composition
//! algorithm "does not rely on any particular features of ROLEX".
//!
//! Publishing tracks [`PublishStats`] (elements materialized, tuples
//! fetched, queries executed) — the currency of the paper's efficiency
//! argument: the composed stylesheet view "does not generate the
//! unnecessary nodes".

#![warn(missing_docs)]
// Curated clippy::pedantic subset shared with `xvc-rel` / `xvc-analyze`
// (kept clean under `-D warnings` in ci.sh).
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

pub mod bounds;
pub mod display;
pub mod engine;
pub mod error;
pub mod parse;
pub mod publish;
pub mod schema_tree;

pub use bounds::{analyze_view_bounds, NodeBounds, ViewBounds};
pub use engine::{Engine, EngineTotals, Session, Streamed};
pub use error::{Error, Result};
pub use parse::parse_view;
pub use publish::{
    PublishStats, PublishTrace, Published, Segmented, SpliceIndex, SpliceTask, TraceEntry,
};
pub use schema_tree::{AttrProjection, SchemaTree, ViewNode, ViewNodeId};
