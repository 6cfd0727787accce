//! The top-level composition entry points (Figure 9's `Compose(v, x)`).

use xvc_rel::Catalog;
use xvc_view::SchemaTree;
use xvc_xslt::{rewrite, Stylesheet};

use crate::ctg::build_ctg;
use crate::error::Result;
use crate::stylesheet_view::build_stylesheet_view;
use crate::tvq::{build_tvq, DEFAULT_TVQ_LIMIT};

/// Tuning knobs for composition.
#[derive(Debug, Clone, Copy)]
pub struct ComposeOptions {
    /// Budget for TVQ duplication (§4.5's exponential case). Exceeding it
    /// yields [`crate::Error::TvqTooLarge`] instead of unbounded blowup.
    pub tvq_limit: usize,
    /// Run the Kim-style simplification pass (`xvc_rel::optimize`) over
    /// every generated tag query: trivial derived tables unnest, duplicate
    /// conjuncts collapse. Off by default so the artifacts match the
    /// paper's figures verbatim.
    pub optimize: bool,
    /// Run the predicate-dataflow pruning pass ([`crate::prune`]) between
    /// the TVQ and stylesheet-view stages: provably dead TVQ subtrees are
    /// removed and redundant conjuncts dropped, with every decision
    /// justified by a recorded fact chain. Off by default for the same
    /// reason as `optimize`.
    pub prune: bool,
}

impl Default for ComposeOptions {
    fn default() -> Self {
        ComposeOptions {
            tvq_limit: DEFAULT_TVQ_LIMIT,
            optimize: false,
            prune: false,
        }
    }
}

/// Everything one composition produced.
#[derive(Debug, Clone)]
pub struct Composition {
    /// The stylesheet view `v'` with `v'(I) = x(v(I))`.
    pub view: SchemaTree,
    /// Per-stage size statistics (CTG/TVQ/composed-view counts, §4.5
    /// duplication factor, unbind depth, pruning counters).
    pub stats: crate::stats::ComposeStats,
    /// The stylesheet actually composed: the input verbatim, or its §5.2
    /// lowering when [`Composer::rewrites`] was enabled.
    pub stylesheet: Stylesheet,
}

/// Builder-style composition entry point (Figure 9's `Compose(v, x)`):
/// configures the §5.2 rewrites, pruning, optimization and the TVQ budget,
/// then [`run`](Composer::run)s, producing a [`Composition`] whose view
/// satisfies `v'(I) = x(v(I))` for every instance `I` (document order
/// excluded, §2.2.2).
///
/// ```no_run
/// # use xvc_core::Composer;
/// # fn demo(view: &xvc_view::SchemaTree, xslt: &xvc_xslt::Stylesheet,
/// #         catalog: &xvc_rel::Catalog) -> xvc_core::Result<()> {
/// let composition = Composer::new(view, xslt, catalog)
///     .rewrites(true) // lower flow control / general value-of first
///     .prune(true)    // drop provably dead TVQ subtrees
///     .run()?;
/// println!("{}", composition.view.render());
/// # Ok(()) }
/// ```
///
/// Recursive stylesheets go through [`crate::compose_recursive`] instead.
#[derive(Debug, Clone)]
pub struct Composer<'a> {
    view: &'a SchemaTree,
    stylesheet: &'a Stylesheet,
    catalog: &'a Catalog,
    rewrites: bool,
    options: ComposeOptions,
}

impl<'a> Composer<'a> {
    /// A composer over `view` and `stylesheet` with default options: no
    /// rewrites, no pruning, no optimization, the default TVQ budget.
    pub fn new(view: &'a SchemaTree, stylesheet: &'a Stylesheet, catalog: &'a Catalog) -> Self {
        Composer {
            view,
            stylesheet,
            catalog,
            rewrites: false,
            options: ComposeOptions::default(),
        }
    }

    /// Lower the stylesheet through the §5.2 `XSLT_transformable` rewrites
    /// (flow control, general `value-of`, conflict resolution) before
    /// composing. The lowered stylesheet is returned in
    /// [`Composition::stylesheet`].
    pub fn rewrites(mut self, on: bool) -> Self {
        self.rewrites = on;
        self
    }

    /// Run the predicate-dataflow pruning pass ([`crate::prune`]) between
    /// the TVQ and stylesheet-view stages.
    pub fn prune(mut self, on: bool) -> Self {
        self.options.prune = on;
        self
    }

    /// Run the Kim-style simplification pass (`xvc_rel::optimize`) over
    /// every generated tag query.
    pub fn optimize(mut self, on: bool) -> Self {
        self.options.optimize = on;
        self
    }

    /// Budget for TVQ duplication (§4.5's exponential case).
    pub fn tvq_limit(mut self, limit: usize) -> Self {
        self.options.tvq_limit = limit;
        self
    }

    /// Apply a whole [`ComposeOptions`] at once (the CLI's path).
    pub fn with_options(mut self, options: ComposeOptions) -> Self {
        self.options = options;
        self
    }

    /// Composes, producing the stylesheet view plus statistics.
    pub fn run(&self) -> Result<Composition> {
        let effective = if self.rewrites {
            Some(rewrite::lower_to_basic(self.stylesheet)?)
        } else {
            None
        };
        let stylesheet = effective.as_ref().unwrap_or(self.stylesheet);
        let (view, stats) = compose_impl(self.view, stylesheet, self.catalog, self.options)?;
        Ok(Composition {
            view,
            stats,
            stylesheet: effective.unwrap_or_else(|| self.stylesheet.clone()),
        })
    }
}

fn compose_impl(
    view: &SchemaTree,
    stylesheet: &Stylesheet,
    catalog: &Catalog,
    options: ComposeOptions,
) -> Result<(SchemaTree, crate::stats::ComposeStats)> {
    view.validate()?;
    let ctg = build_ctg(view, stylesheet)?;
    let mut tvq = build_tvq(view, stylesheet, &ctg, catalog, options.tvq_limit)?;
    let prune_stats = if options.prune {
        crate::prune::prune_tvq(&mut tvq, catalog)
    } else {
        crate::prune::PruneStats::default()
    };
    let mut composed = build_stylesheet_view(view, stylesheet, &tvq, catalog)?;
    if options.optimize {
        for vid in composed.node_ids() {
            if let Some(node) = composed.node_mut(vid) {
                if let Some(q) = &mut node.query {
                    xvc_rel::optimize(q, catalog)?;
                }
            }
        }
    }
    let mut stats = crate::stats::ComposeStats::collect(view, stylesheet, &ctg, &tvq, &composed);
    stats.tvq_nodes_pruned = prune_stats.nodes_removed;
    stats.conjuncts_eliminated = prune_stats.conjuncts_eliminated;
    Ok((composed, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_fixtures::{
        figure1_view, figure2_catalog, sample_database, FIGURE15_XSLT, FIGURE17_XSLT,
    };
    use xvc_rel::{Database, Value};
    use xvc_view::Engine;
    use xvc_xml::{documents_equal_unordered, Document};
    use xvc_xslt::parse::FIGURE4_XSLT;
    use xvc_xslt::{parse_stylesheet, process};

    /// Shadows the deprecated free function: the tests exercise the
    /// builder path.
    fn compose(view: &SchemaTree, x: &Stylesheet, catalog: &Catalog) -> Result<SchemaTree> {
        Composer::new(view, x, catalog).run().map(|c| c.view)
    }

    fn publish_doc(tree: &SchemaTree, db: &Database) -> Document {
        Engine::new(tree).session().publish(db).unwrap().document
    }

    /// The headline theorem: `v'(I) = x(v(I))`, checked without document
    /// order.
    fn assert_equivalent(xslt: &str) {
        let v = figure1_view();
        let x = parse_stylesheet(xslt).unwrap();
        let db = sample_database();
        let composed =
            compose(&v, &x, &figure2_catalog()).unwrap_or_else(|e| panic!("compose failed: {e}"));
        let view_doc = publish_doc(&v, &db);
        let expected = process(&x, &view_doc).unwrap();
        let actual = publish_doc(&composed, &db);
        assert!(
            documents_equal_unordered(&expected, &actual),
            "expected (x(v(I))):\n{}\nactual (v'(I)):\n{}\nstylesheet view:\n{}",
            expected.to_pretty_xml(),
            actual.to_pretty_xml(),
            composed.render(),
        );
    }

    /// Same theorem, for stylesheets that first need the §5.2 rewrites.
    fn assert_equivalent_with_rewrites(xslt: &str) {
        let v = figure1_view();
        let x = parse_stylesheet(xslt).unwrap();
        let db = sample_database();
        let composition = Composer::new(&v, &x, &figure2_catalog())
            .rewrites(true)
            .run()
            .unwrap_or_else(|e| panic!("compose with rewrites failed: {e}"));
        let composed = &composition.view;
        let view_doc = publish_doc(&v, &db);
        let expected = process(&x, &view_doc).unwrap();
        let actual = publish_doc(composed, &db);
        assert!(
            documents_equal_unordered(&expected, &actual),
            "expected (x(v(I))):\n{}\nactual (v'(I)):\n{}\nlowered rules: {}\nstylesheet view:\n{}",
            expected.to_pretty_xml(),
            actual.to_pretty_xml(),
            composition.stylesheet.len(),
            composed.render(),
        );
    }

    #[test]
    fn figure4_composes_and_matches_engine() {
        assert_equivalent(FIGURE4_XSLT);
    }

    #[test]
    fn figure15_forced_unbinding_matches_engine() {
        assert_equivalent(FIGURE15_XSLT);
    }

    #[test]
    fn figure7c_structure() {
        let v = figure1_view();
        let x = parse_stylesheet(FIGURE4_XSLT).unwrap();
        let composed = compose(&v, &x, &figure2_catalog()).unwrap();
        let r = composed.render();
        // The HTML skeleton survives as literals.
        assert!(r.contains("<HTML>  [literal]"), "{r}");
        assert!(r.contains("<BODY>  [literal]"), "{r}");
        // result_metro carries Qm_new; result_confstat carries Qs_new;
        // confroom carries Qc_new.
        assert!(r.contains("<result_metro>"), "{r}");
        assert!(r.contains("SELECT metroid, metroname"), "{r}");
        assert!(r.contains("<result_confstat>"), "{r}");
        assert!(r.contains("SELECT SUM(capacity), TEMP.*"), "{r}");
        assert!(r.contains("<confroom>"), "{r}");
        assert!(r.contains("EXISTS ("), "{r}");
    }

    #[test]
    fn figure17_predicates_match_engine() {
        assert_equivalent(FIGURE17_XSLT);
    }

    #[test]
    fn computed_column_predicate_matches_engine() {
        // `population / 1000` publishes as `col2`, so `@col2` must resolve
        // to that expression in the composed query, as it does in x(v(I)).
        let mut db = xvc_rel::database_from_ddl(
            "CREATE TABLE city (id INT PRIMARY KEY, name TEXT, population INT);",
        )
        .unwrap();
        for (id, name, population) in [
            (1, "chicago", 2_700_000),
            (2, "galena", 3200),
            (3, "nyc", 8_300_000),
        ] {
            db.insert(
                "city",
                vec![
                    Value::Int(id),
                    Value::Str(name.into()),
                    Value::Int(population),
                ],
            )
            .unwrap();
        }
        let v = xvc_view::parse_view(
            "node city $c { query: SELECT id, name, population / 1000 FROM city; }",
        )
        .unwrap();
        let x = parse_stylesheet(
            r#"<xsl:stylesheet>
                 <xsl:template match="/"><guide><xsl:apply-templates select="city[@col2 &gt; 1000]"/></guide></xsl:template>
                 <xsl:template match="city"><big><xsl:value-of select="@name"/></big></xsl:template>
               </xsl:stylesheet>"#,
        )
        .unwrap();
        let composed = compose(&v, &x, &db.catalog()).unwrap();
        assert!(
            composed.render().contains("WHERE population / 1000 > 1000"),
            "{}",
            composed.render()
        );
        let expected = process(&x, &publish_doc(&v, &db)).unwrap();
        assert_eq!(
            expected.to_xml(),
            r#"<guide><big name="chicago"/><big name="nyc"/></guide>"#
        );
        assert_eq!(publish_doc(&composed, &db).to_xml(), expected.to_xml());
    }

    #[test]
    fn figure17_composed_sql_has_predicates() {
        let v = figure1_view();
        let x = parse_stylesheet(FIGURE17_XSLT).unwrap();
        let composed = compose(&v, &x, &figure2_catalog()).unwrap();
        let r = composed.render();
        // Figure 20's conditions, modulo our column naming (see DESIGN.md):
        assert!(r.contains("capacity > 250"), "{r}");
        assert!(r.contains("$s_new.sum < 200"), "{r}");
        assert!(r.contains("$m_new.metroname = 'chicago'"), "{r}");
        assert!(r.contains("HAVING SUM(capacity) > 100"), "{r}");
    }

    #[test]
    fn flow_control_if_composes_via_rewrites() {
        assert_equivalent_with_rewrites(
            r#"<xsl:stylesheet>
                 <xsl:template match="/"><out><xsl:apply-templates select="metro"/></out></xsl:template>
                 <xsl:template match="metro">
                   <m>
                     <xsl:apply-templates select="hotel"/>
                   </m>
                 </xsl:template>
                 <xsl:template match="hotel">
                   <h>
                     <xsl:if test="@pool='yes'"><has_pool/></xsl:if>
                   </h>
                 </xsl:template>
               </xsl:stylesheet>"#,
        );
    }

    #[test]
    fn flow_control_choose_composes_via_rewrites() {
        assert_equivalent_with_rewrites(
            r#"<xsl:stylesheet>
                 <xsl:template match="/"><out><xsl:apply-templates select="metro/hotel"/></out></xsl:template>
                 <xsl:template match="hotel">
                   <h>
                     <xsl:choose>
                       <xsl:when test="@pool='yes'"><pool/></xsl:when>
                       <xsl:when test="@gym='yes'"><gym_only/></xsl:when>
                       <xsl:otherwise><plain/></xsl:otherwise>
                     </xsl:choose>
                   </h>
                 </xsl:template>
               </xsl:stylesheet>"#,
        );
    }

    #[test]
    fn value_of_attribute_composes() {
        assert_equivalent(
            r#"<xsl:stylesheet>
                 <xsl:template match="/"><out><xsl:apply-templates select="metro"/></out></xsl:template>
                 <xsl:template match="metro">
                   <m><xsl:value-of select="@metroname"/></m>
                 </xsl:template>
               </xsl:stylesheet>"#,
        );
    }

    #[test]
    fn nested_value_of_context_composes() {
        // value-of "." nested under a literal element: a context-copy node.
        assert_equivalent(
            r#"<xsl:stylesheet>
                 <xsl:template match="/"><out><xsl:apply-templates select="metro/hotel"/></out></xsl:template>
                 <xsl:template match="hotel">
                   <wrapper><inner><xsl:value-of select="."/></inner></wrapper>
                 </xsl:template>
               </xsl:stylesheet>"#,
        );
    }

    #[test]
    fn copy_of_grafts_original_subtree() {
        assert_equivalent(
            r#"<xsl:stylesheet>
                 <xsl:template match="/"><out><xsl:apply-templates select="metro/hotel"/></out></xsl:template>
                 <xsl:template match="hotel">
                   <xsl:copy-of select="."/>
                 </xsl:template>
               </xsl:stylesheet>"#,
        );
    }

    #[test]
    fn general_value_of_composes_via_rewrites() {
        assert_equivalent_with_rewrites(
            r#"<xsl:stylesheet>
                 <xsl:template match="/"><out><xsl:apply-templates select="metro"/></out></xsl:template>
                 <xsl:template match="metro">
                   <m><xsl:value-of select="hotel/confroom"/></m>
                 </xsl:template>
               </xsl:stylesheet>"#,
        );
    }

    #[test]
    fn multiple_applies_compose() {
        // Two apply-templates reaching different nodes.
        assert_equivalent(
            r#"<xsl:stylesheet>
                 <xsl:template match="/"><out><xsl:apply-templates select="metro"/></out></xsl:template>
                 <xsl:template match="metro">
                   <m>
                     <xsl:apply-templates select="confstat" mode="summary"/>
                     <xsl:apply-templates select="hotel"/>
                   </m>
                 </xsl:template>
                 <xsl:template match="confstat" mode="summary"><sum_node/></xsl:template>
                 <xsl:template match="hotel"><h><xsl:value-of select="@hotelname"/></h></xsl:template>
               </xsl:stylesheet>"#,
        );
    }

    #[test]
    fn text_output_is_rejected_with_guidance() {
        let v = figure1_view();
        let x = parse_stylesheet(
            r#"<xsl:stylesheet><xsl:template match="/"><a>text!</a></xsl:template></xsl:stylesheet>"#,
        )
        .unwrap();
        let err = compose(&v, &x, &figure2_catalog()).unwrap_err();
        assert!(matches!(err, crate::Error::NotComposable { .. }));
        assert!(err.to_string().contains("attribute-only"));
    }

    #[test]
    fn figure16_structure() {
        let v = figure1_view();
        let x = parse_stylesheet(FIGURE15_XSLT).unwrap();
        let composed = compose(&v, &x, &figure2_catalog()).unwrap();
        let r = composed.render();
        // R2 had no output: result_confstat's query swallowed Qm (forced
        // unbinding) — a nested derived table over metroarea appears.
        assert!(r.contains("<result_confstat>"), "{r}");
        assert!(r.contains("FROM metroarea"), "{r}");
        assert!(!r.contains("result_metro"), "{r}");
    }
}
