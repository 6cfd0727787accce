//! # `xvc` — Composing XSL Transformations with XML Publishing Views
//!
//! A from-scratch Rust reproduction of the SIGMOD 2003 paper by Chengkai
//! Li, Philip Bohannon, Henry F. Korth and P.P.S. Narayan.
//!
//! Given an XML-publishing view `v` (a *schema-tree query* mapping
//! relational tables to an XML document) and an XSLT stylesheet `x`, the
//! composition algorithm produces a **stylesheet view** `v'` such that for
//! every database instance `I`:
//!
//! ```text
//! v'(I) = x(v(I))          (document order excluded)
//! ```
//!
//! — the XSLT run disappears; its work is pushed into SQL executed by the
//! relational engine, and none of the intermediate or unreferenced view
//! nodes are ever materialized.
//!
//! ## Quickstart
//!
//! ```
//! use xvc::prelude::*;
//!
//! // A database: one table, two rows.
//! let mut db = Database::new();
//! db.create_table(
//!     TableSchema::new(
//!         "city",
//!         vec![
//!             ColumnDef::new("id", ColumnType::Int),
//!             ColumnDef::new("name", ColumnType::Str),
//!         ],
//!     )
//!     .unwrap(),
//! ).unwrap();
//! db.insert("city", vec![Value::Int(1), Value::Str("chicago".into())]).unwrap();
//! db.insert("city", vec![Value::Int(2), Value::Str("nyc".into())]).unwrap();
//!
//! // A publishing view: <city id=... name=...> per row.
//! let mut view = SchemaTree::new();
//! view.add_root_node(ViewNode::new(
//!     1,
//!     "city",
//!     "c",
//!     parse_query("SELECT id, name FROM city").unwrap(),
//! ))
//! .unwrap();
//!
//! // A stylesheet renaming cities into <place> wrappers.
//! let xslt = parse_stylesheet(
//!     r#"<xsl:stylesheet>
//!          <xsl:template match="/"><places><xsl:apply-templates select="city"/></places></xsl:template>
//!          <xsl:template match="city"><place><xsl:value-of select="@name"/></place></xsl:template>
//!        </xsl:stylesheet>"#,
//! )
//! .unwrap();
//!
//! // Compose: the stylesheet disappears into SQL.
//! let composition = Composer::new(&view, &xslt, &db.catalog()).run().unwrap();
//!
//! // Publish through an Engine: tag queries are compiled to prepared
//! // plans once per catalog and shared across publishes (and across
//! // concurrent sessions); `.parallel(n)` evaluates independent root
//! // subtrees of `publish` and `publish_segments` (and a delta's
//! // root-level re-runs) on n threads, while the streamed `publish_to`
//! // runs them one at a time. Each request-scoped Session publishes
//! // through the shared compilation.
//! let engine = Engine::new(&composition.view);
//! let direct = engine.session().publish(&db).unwrap().document;
//!
//! // Same document as materializing the view and running the stylesheet.
//! let full = Engine::new(&view).session().publish(&db).unwrap().document;
//! let expected = process(&xslt, &full).unwrap();
//! assert!(documents_equal_unordered(&direct, &expected));
//! assert_eq!(
//!     direct.to_xml(),
//!     "<places><place name=\"chicago\"/><place name=\"nyc\"/></places>"
//! );
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |-------|----------|
//! | [`xml`] (`xvc-xml`) | arena DOM, parser, serializers, unordered canonical comparison |
//! | [`xpath`] (`xvc-xpath`) | the paper's XPath dialect: paths, patterns, predicates, evaluation |
//! | [`rel`] (`xvc-rel`) | in-memory relational engine: SQL AST/parser/printer/evaluator |
//! | [`view`] (`xvc-view`) | schema-tree queries (Definition 1) and the XML publisher |
//! | [`xslt`] (`xvc-xslt`) | stylesheet model, Figure-5 engine, `XSLT_basic` checks, §5.2 rewrites |
//! | [`core`] (`xvc-core`) | the composition algorithm: CTG → TVQ → OTT → stylesheet view; §5.3 recursion |
//! | [`analyze`] (`xvc-analyze`) | `xvc check` static analysis: dialect conformance, tag-query typing, CTG blowup prediction |
//! | [`serve`] (in this crate) | `xvc serve`: a concurrent publishing server over one shared [`view::Engine`] |

#![warn(missing_docs)]

pub mod serve;

pub use xvc_analyze as analyze;
pub use xvc_core as core;
pub use xvc_rel as rel;
pub use xvc_view as view;
pub use xvc_xml as xml;
pub use xvc_xpath as xpath;
pub use xvc_xslt as xslt;

/// One-stop imports for the common workflow.
pub mod prelude {
    pub use xvc_analyze::{check_sources, check_workload, CheckOptions, Report};
    pub use xvc_core::{
        check_composition, compose_recursive, ComposeOptions, ComposeStats, Composer, Composition,
        Divergence, DivergenceKind, RecursiveComposition,
    };
    pub use xvc_rel::{
        parse_query, prepare, BatchResult, Catalog, ColumnDef, ColumnType, Database, EvalStats,
        PreparedPlan, SelectQuery, TableSchema, Value,
    };
    pub use xvc_view::{
        analyze_view_bounds, AttrProjection, Engine, EngineTotals, PublishStats, PublishTrace,
        Published, SchemaTree, Session, Streamed, ViewBounds, ViewNode,
    };
    pub use xvc_xml::{documents_equal_unordered, Document};
    pub use xvc_xpath::{parse_expr, parse_path, parse_pattern};
    pub use xvc_xslt::{check_basic, parse_stylesheet, process, Stylesheet};
}
