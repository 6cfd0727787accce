//! # `xvc-analyze` — static analysis for view/stylesheet workloads
//!
//! `xvc check` runs this analyzer *before* composition. Seven passes, each
//! emitting [`Diagnostic`]s with stable `XVCnnn` codes, severities, source
//! spans and suggestions (see `DIAGNOSTICS.md` for the catalogue):
//!
//! 1. **Dialect conformance** ([`dialect`]) — the stylesheet against
//!    `XSLT_basic` (§2.2.2): which deviations the §5 extensions can lower
//!    (warnings) and which are fatal (errors);
//! 2. **View well-formedness** ([`view_check`]) — every tag query against
//!    the catalog: unknown tables/columns, type-mixing comparisons,
//!    Definition 1 parameter scoping, aggregate/GROUP BY consistency;
//! 3. **CTG analysis** ([`ctg_check`]) — unreachable rules, dead view
//!    nodes, recursion cycles, and the §4.5 duplication-blowup
//!    prediction (exact, cross-checked against `ComposeStats`);
//! 4. **Composed-output validation** ([`composed_check`]) — the SQL that
//!    `UNBIND`/`NEST` generated for `v′`, re-checked with the same typed
//!    resolver;
//! 5. **Predicate dataflow** ([`dataflow`]) — abstract interpretation over
//!    the TVQ (per-column equality/interval/nullability domains seeded
//!    from DDL constraints): dead subtrees, contradictions, redundant
//!    conjuncts, tautological `EXISTS`, NULL comparisons, key-implied
//!    duplicate joins, and what `ComposeOptions::prune` would remove;
//! 6. **Cardinality analysis** ([`cardinality`]) — static row bounds
//!    (`0 / <=1 / <=k / unbounded`) from `PRIMARY KEY` constraints and
//!    equality pushdowns: provably empty tag queries, cross-product
//!    fan-out, unbounded recursive growth, non-single-row rebind guards,
//!    and a whole-document bound report, lifted over the composed view,
//!    when one is finite (`XVC5xx`); pass 2 additionally warns about
//!    declared indexes no tag query can use (`XVC120`);
//! 7. **Dependency lineage** ([`deps_check`]) — the static
//!    [`xvc_core::deps::DependencyMap`] over the same TVQ (or the raw
//!    view when the CTG is cyclic): write-amplifying columns, forced
//!    recomputation through recursion cycles, dead catalog tables, and
//!    the per-table impact report (`XVC6xx`).
//!
//! Passes 4–7 read one [`ComposedWorkload`]: the CTG, the TVQ and the
//! composed stylesheet view are built once per check, and the TVQ's
//! predicate dataflow is analyzed once.
//!
//! The analyzer never executes queries and needs no database instance —
//! only the catalog.

#![warn(missing_docs)]
// Curated clippy::pedantic subset for this crate (kept clean under
// `-D warnings` in ci.sh).
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

pub mod cardinality;
pub mod composed_check;
pub mod ctg_check;
pub mod dataflow;
pub mod deps_check;
pub mod diag;
pub mod dialect;
pub mod render;
pub mod view_check;

use xvc_core::prune::{analyze_tvq, TvqAnalysis};
use xvc_core::stylesheet_view::build_stylesheet_view;
use xvc_core::tvq::{build_tvq, Tvq, DEFAULT_TVQ_LIMIT};
use xvc_core::Ctg;
use xvc_rel::Catalog;
use xvc_view::SchemaTree;
use xvc_xslt::Stylesheet;

pub use cardinality::{check_cardinality, check_index_usage, check_recursion_growth};
pub use composed_check::check_composed;
pub use ctg_check::{check_ctg, predict_tvq, BlowupPrediction};
pub use dataflow::check_dataflow;
pub use deps_check::{check_deps, check_deps_recursive, WRITE_AMPLIFICATION_THRESHOLD};
pub use diag::{Code, Diagnostic, Severity, Stage};
pub use dialect::check_stylesheet;
pub use render::{render, render_summary, sort_for_display, Sources};
pub use view_check::{check_view, TreeKind};

/// Analyzer knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOptions {
    /// TVQ node budget mirrored from
    /// [`xvc_core::ComposeOptions`]; a prediction above it is an error
    /// (XVC204) because `build_tvq` will refuse.
    pub tvq_limit: usize,
    /// Duplication factor (`predicted TVQ nodes / CTG nodes`) above which
    /// a warning-level XVC204 is emitted.
    pub blowup_factor: f64,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            tvq_limit: DEFAULT_TVQ_LIMIT,
            blowup_factor: 4.0,
        }
    }
}

/// The analyzer's output: diagnostics plus the CTG-level prediction when
/// one was computed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// All findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
    /// The §4.5 TVQ prediction, when both view and stylesheet were given
    /// and a CTG could be built.
    pub prediction: Option<BlowupPrediction>,
}

impl Report {
    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// True if any diagnostic is an error.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// The codes present, in emission order (for tests).
    pub fn codes(&self) -> Vec<Code> {
        self.diagnostics.iter().map(|d| d.code).collect()
    }
}

/// One composition of a workload, built once and read by passes 4–7.
#[derive(Debug, Clone)]
pub struct ComposedWorkload {
    /// The traverse view query, which passes 5–7 walk.
    pub tvq: Tvq,
    /// The predicate-dataflow verdicts over `tvq`, which passes 5 and 6
    /// read.
    pub analysis: TvqAnalysis,
    /// The composed stylesheet view `v′`, which passes 4 and 6 read.
    pub view: SchemaTree,
}

impl ComposedWorkload {
    /// Chains the three stages [`xvc_core::Composer::run`] chains under
    /// default options — CTG, TVQ, stylesheet view — and analyzes the TVQ
    /// once. `ctg` is `stylesheet`'s CTG when the caller has built it
    /// already (pass 3 has, unless the stylesheet was lowered since).
    pub fn new(
        view: &SchemaTree,
        stylesheet: &Stylesheet,
        ctg: Option<Ctg>,
        catalog: &Catalog,
        tvq_limit: usize,
    ) -> xvc_core::Result<ComposedWorkload> {
        view.validate()?;
        let ctg = match ctg {
            Some(ctg) => ctg,
            None => xvc_core::build_ctg(view, stylesheet)?,
        };
        let tvq = build_tvq(view, stylesheet, &ctg, catalog, tvq_limit)?;
        let composed = build_stylesheet_view(view, stylesheet, &tvq, catalog)?;
        let analysis = analyze_tvq(&tvq, catalog);
        Ok(ComposedWorkload {
            tvq,
            analysis,
            view: composed,
        })
    }
}

/// Checks already-parsed artifacts. Any of the three inputs may be absent;
/// passes needing a missing input are skipped.
pub fn check_workload(
    view: Option<&SchemaTree>,
    stylesheet: Option<&Stylesheet>,
    catalog: Option<&Catalog>,
    opts: &CheckOptions,
) -> Report {
    let mut report = Report::default();

    // Pass 1: dialect conformance.
    if let Some(x) = stylesheet {
        report.diagnostics.extend(dialect::check_stylesheet(x));
    }

    // Pass 2: view well-formedness, plus the index-usability advisory.
    if let (Some(v), Some(cat)) = (view, catalog) {
        report
            .diagnostics
            .extend(view_check::check_view(v, cat, TreeKind::Input));
        report
            .diagnostics
            .extend(cardinality::check_index_usage(v, cat));
    }

    // Pass 3: CTG-level analysis.
    let mut cyclic = false;
    let mut ctg = None;
    if let (Some(v), Some(x)) = (view, stylesheet) {
        match xvc_core::build_ctg(v, x) {
            Ok(c) => {
                let (ds, prediction) = ctg_check::check_ctg(v, x, &c, opts);
                cyclic = prediction.cyclic;
                report.diagnostics.extend(ds);
                report.prediction = Some(prediction);
                ctg = Some(c);
            }
            Err(e) => {
                // "No root rule" is already XVC008; anything else is a
                // genuine composability defect.
                if !report.diagnostics.iter().any(|d| d.code == Code::Xvc008) {
                    report.diagnostics.push(Diagnostic::new(
                        Code::Xvc009,
                        Stage::General,
                        e.to_string(),
                    ));
                }
            }
        }
    }

    // Passes 4–7 read one composition of the workload: the CTG, the TVQ
    // and the stylesheet view, built once, plus one predicate-dataflow
    // analysis of the TVQ. Only when the workload is error-free so far
    // (errors mean composition is known to fail) and acyclic (recursion
    // takes the §5.3 path instead).
    if let (Some(v), Some(x), Some(cat)) = (view, stylesheet, catalog) {
        if !report.has_errors() && !cyclic {
            let needs_lowering = report.diagnostics.iter().any(|d| {
                matches!(
                    d.code,
                    Code::Xvc001 | Code::Xvc002 | Code::Xvc003 | Code::Xvc006
                )
            });
            // §5.1 predicates compose directly; §5.2 deviations lower first.
            let lowered;
            let target: Option<&Stylesheet> = if needs_lowering {
                match xvc_xslt::rewrite::lower_to_basic(x) {
                    Ok(l) => {
                        lowered = l;
                        Some(&lowered)
                    }
                    Err(e) => {
                        report.diagnostics.push(
                            Diagnostic::new(
                                Code::Xvc009,
                                Stage::General,
                                xvc_core::Error::from(e).to_string(),
                            )
                            .with_help(
                                "the stylesheet parses and type-checks but falls outside \
                                 the composable fragment",
                            ),
                        );
                        None
                    }
                }
            } else {
                Some(x)
            };
            if let Some(xs) = target {
                // Lowering changes the CTG; otherwise pass 3's is the one.
                let ctg = ctg.filter(|_| !needs_lowering);
                match ComposedWorkload::new(v, xs, ctg, cat, opts.tvq_limit) {
                    Ok(c) => {
                        // Pass 4: the composed view's SQL.
                        report
                            .diagnostics
                            .extend(composed_check::check_composed(&c.view, cat));
                        // Pass 5: XVC4xx over the same (lowered) workload.
                        report.diagnostics.extend(dataflow::check_dataflow(v, &c));
                        // Pass 6: XVC5xx cardinality analysis.
                        report
                            .diagnostics
                            .extend(cardinality::check_cardinality(v, &c, cat));
                        // Pass 7: XVC6xx dependency lineage over the TVQ.
                        report
                            .diagnostics
                            .extend(deps_check::check_deps(v, &c, cat));
                    }
                    Err(xvc_core::Error::TvqTooLarge { limit }) => {
                        if !report.diagnostics.iter().any(|d| d.code == Code::Xvc204) {
                            report.diagnostics.push(
                                Diagnostic::new(
                                    Code::Xvc204,
                                    Stage::General,
                                    format!("traverse view query exceeds the {limit}-node budget"),
                                )
                                .as_error(),
                            );
                        }
                    }
                    Err(e) => report.diagnostics.push(
                        Diagnostic::new(Code::Xvc009, Stage::General, e.to_string()).with_help(
                            "the stylesheet parses and type-checks but falls outside the \
                             composable fragment",
                        ),
                    ),
                }
            }
        }
        // Cyclic workloads have no TVQ; the cardinality pass instead
        // bounds the recursive expansion at the view level (XVC503).
        if !report.has_errors() && cyclic {
            report
                .diagnostics
                .extend(cardinality::check_recursion_growth(v, x, cat));
            // Pass 7, cyclic flavor: the dependency map over the raw view,
            // every edge recompute-required (XVC602 per structural column).
            report
                .diagnostics
                .extend(deps_check::check_deps_recursive(v, cat));
        }
    }
    report
}

/// Parses source texts and checks them; parse failures become diagnostics
/// (XVC010/XVC104/XVC107/XVC110) instead of hard errors, with spans.
pub fn check_sources(
    view_src: Option<&str>,
    xslt_src: Option<&str>,
    catalog: Option<&Catalog>,
    opts: &CheckOptions,
) -> Report {
    let mut parse_diags = Vec::new();

    let view = view_src.and_then(|src| match xvc_view::parse_view(src) {
        Ok(v) => Some(v),
        Err(e) => {
            parse_diags.push(view_error_to_diag(&e));
            None
        }
    });
    let stylesheet = xslt_src.and_then(|src| match xvc_xslt::parse_stylesheet(src) {
        Ok(x) => Some(x),
        Err(e) => {
            parse_diags.push(
                Diagnostic::new(Code::Xvc010, Stage::Stylesheet, e.to_string()).with_span(e.span()),
            );
            None
        }
    });

    let mut report = check_workload(view.as_ref(), stylesheet.as_ref(), catalog, opts);
    // Parse problems lead the report.
    parse_diags.append(&mut report.diagnostics);
    report.diagnostics = parse_diags;
    report
}

fn view_error_to_diag(e: &xvc_view::Error) -> Diagnostic {
    let code = match e {
        xvc_view::Error::UnboundViewParameter { .. } => Code::Xvc104,
        xvc_view::Error::DuplicateId { .. } | xvc_view::Error::DuplicateBindingVariable { .. } => {
            Code::Xvc107
        }
        _ => Code::Xvc110,
    };
    let mut d = Diagnostic::new(code, Stage::View, e.to_string()).with_span(e.span());
    if code == Code::Xvc104 {
        d = d.with_help(
            "Definition 1: tag-query parameters must be binding variables of ancestor view nodes",
        );
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use xvc_core::paper_fixtures::figure2_catalog;

    const VIEW: &str = "node metro $m {\n    query: SELECT metroid, metroname FROM metroarea;\n}";
    const XSLT: &str = r#"<xsl:stylesheet>
      <xsl:template match="/"><r><xsl:apply-templates select="metro"/></r></xsl:template>
      <xsl:template match="metro"><m><xsl:value-of select="@metroname"/></m></xsl:template>
    </xsl:stylesheet>"#;

    #[test]
    fn clean_workload_has_empty_report() {
        // A catalog holding exactly the tables the view reads: the XVC603
        // dead-table advisory stays quiet, like every other pass.
        let mut cat = Catalog::new();
        let full = figure2_catalog();
        cat.add(full.get("metroarea").unwrap().clone());
        let r = check_sources(Some(VIEW), Some(XSLT), Some(&cat), &CheckOptions::default());
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert!(r.prediction.is_some());
        assert!(!r.has_errors());
    }

    #[test]
    fn parse_errors_become_diagnostics() {
        let cat = figure2_catalog();
        let r = check_sources(
            Some("node metro { query: SELECT 1 FROM t; }"),
            Some("<nope/>"),
            Some(&cat),
            &CheckOptions::default(),
        );
        assert!(r.codes().contains(&Code::Xvc110), "{:?}", r.codes());
        assert!(r.codes().contains(&Code::Xvc010), "{:?}", r.codes());
        assert!(r.has_errors());
    }

    #[test]
    fn stylesheet_only_check_works() {
        let r = check_sources(None, Some(XSLT), None, &CheckOptions::default());
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert!(r.prediction.is_none());
    }

    #[test]
    fn duplicate_bv_maps_to_107() {
        let r = check_sources(
            Some(
                "node a $x { query: SELECT metroid FROM metroarea; }\n\
                 node b $x { query: SELECT metroid FROM metroarea; }",
            ),
            None,
            None,
            &CheckOptions::default(),
        );
        assert_eq!(r.codes(), vec![Code::Xvc107]);
    }
}
