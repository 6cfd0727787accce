//! Failure injection across the stack: malformed inputs and out-of-scope
//! constructs must produce typed, actionable errors — never panics or
//! silently wrong output.

use xvc::core::paper_fixtures::{figure1_view, figure2_catalog, sample_database};
use xvc::prelude::*;

// Local shims over the builder API: the deprecated free functions are
// exercised only by the dedicated compat tests.
fn compose(v: &SchemaTree, x: &Stylesheet, c: &Catalog) -> xvc::core::Result<SchemaTree> {
    Composer::new(v, x, c).run().map(|c| c.view)
}

fn publish(v: &SchemaTree, db: &Database) -> xvc::view::Result<(Document, PublishStats)> {
    Engine::new(v)
        .session()
        .publish(db)
        .map(|p| (p.document, p.stats))
}

fn compose_err(xslt: &str) -> xvc::core::Error {
    let v = figure1_view();
    let x = parse_stylesheet(xslt).unwrap();
    compose(&v, &x, &figure2_catalog()).unwrap_err()
}

#[test]
fn recursion_is_detected_and_redirected() {
    let err = compose_err(
        r#"<xsl:stylesheet>
             <xsl:template match="/"><xsl:apply-templates select="metro/hotel"/></xsl:template>
             <xsl:template match="hotel"><h><xsl:apply-templates select="confstat"/></h></xsl:template>
             <xsl:template match="confstat"><c><xsl:apply-templates select=".."/></c></xsl:template>
           </xsl:stylesheet>"#,
    );
    assert!(matches!(err, xvc::core::Error::RecursiveStylesheet { .. }));
    assert!(err.to_string().contains("compose_recursive"));
}

#[test]
fn missing_root_rule_is_reported() {
    let err = compose_err(
        "<xsl:stylesheet><xsl:template match=\"metro\"><m/></xsl:template></xsl:stylesheet>",
    );
    assert!(err.to_string().contains("document root"));
}

#[test]
fn flow_control_without_rewrites_is_rejected_with_guidance() {
    let err = compose_err(
        r#"<xsl:stylesheet>
             <xsl:template match="/"><r><xsl:apply-templates select="metro"/></r></xsl:template>
             <xsl:template match="metro"><xsl:if test="@metroname"><m/></xsl:if></xsl:template>
           </xsl:stylesheet>"#,
    );
    assert!(err.to_string().contains("Composer::rewrites"), "{err}");
}

#[test]
fn attribute_axis_select_is_rejected() {
    // Selects must yield nodes (Definition 3). (The descendant axis, which
    // XSLT_basic also excludes, is *supported* by this implementation —
    // see `descendant_selects_compose` in stress_composition.)
    let err = compose_err(
        r#"<xsl:stylesheet>
             <xsl:template match="/"><r><xsl:apply-templates select="metro/@metroname"/></r></xsl:template>
             <xsl:template match="metro"><m/></xsl:template>
           </xsl:stylesheet>"#,
    );
    assert!(err.to_string().contains("attribute axis"), "{err}");
}

#[test]
fn variables_in_predicates_are_rejected_for_plain_compose() {
    let err = compose_err(
        r#"<xsl:stylesheet>
             <xsl:template match="/"><r><xsl:apply-templates select="metro[@metroname=$city]"/></r></xsl:template>
             <xsl:template match="metro"><m/></xsl:template>
           </xsl:stylesheet>"#,
    );
    assert!(
        err.to_string().contains("§5.3") || err.to_string().contains("variable"),
        "{err}"
    );
}

#[test]
fn malformed_inputs_error_cleanly_everywhere() {
    // XML
    assert!(xvc::xml::parse("<unclosed>").is_err());
    assert!(xvc::xml::parse("").is_err());
    // XPath
    assert!(parse_path("a[").is_err());
    assert!(parse_expr("@a <").is_err());
    assert!(parse_pattern("../up").is_err());
    // SQL
    assert!(parse_query("SELEKT x FROM t").is_err());
    assert!(parse_query("SELECT FROM").is_err());
    // XSLT
    assert!(parse_stylesheet("<div/>").is_err());
    assert!(parse_stylesheet("<xsl:stylesheet><xsl:template/></xsl:stylesheet>").is_err());
}

#[test]
fn view_validation_failures_surface_through_publish() {
    let mut v = SchemaTree::new();
    v.add_root_node(ViewNode::new(
        1,
        "a",
        "x",
        parse_query("SELECT * FROM hotel WHERE metro_id = $ghost.id").unwrap(),
    ))
    .unwrap();
    let db = sample_database();
    let err = publish(&v, &db).unwrap_err();
    assert!(err.to_string().contains("$ghost"), "{err}");
}

#[test]
fn unknown_table_surfaces_at_publish_time() {
    let mut v = SchemaTree::new();
    v.add_root_node(ViewNode::new(
        1,
        "a",
        "x",
        parse_query("SELECT * FROM not_a_table").unwrap(),
    ))
    .unwrap();
    let err = publish(&v, &sample_database()).unwrap_err();
    assert!(err.to_string().contains("not_a_table"), "{err}");

    // A child whose tag query cannot prepare, under a parent that has
    // rows: its batch raises the cached prepare error, and every entry
    // point reports the unknown table.
    let mut v = SchemaTree::new();
    let metro = v
        .add_root_node(ViewNode::new(
            1,
            "metro",
            "m",
            parse_query("SELECT metroid FROM metroarea").unwrap(),
        ))
        .unwrap();
    v.add_child(
        metro,
        ViewNode::new(
            2,
            "ghost",
            "g",
            parse_query("SELECT * FROM not_a_table WHERE id = $m.metroid").unwrap(),
        ),
    )
    .unwrap();
    let db = sample_database();
    assert!(!db.table("metroarea").unwrap().is_empty());
    let engine = Engine::new(&v);
    let errors = [
        engine.session().publish(&db).map(|_| ()).unwrap_err(),
        engine
            .session()
            .publish_to(&db, std::io::sink())
            .map(|_| ())
            .unwrap_err(),
        engine
            .session()
            .publish_segments(&db)
            .map(|_| ())
            .unwrap_err(),
    ];
    for err in errors {
        assert!(err.to_string().contains("not_a_table"), "{err}");
    }
}

#[test]
fn engine_recursion_limit_is_typed() {
    let doc = xvc::xml::parse("<a/>").unwrap();
    let x = parse_stylesheet(
        r#"<xsl:stylesheet>
             <xsl:template match="/"><xsl:apply-templates select="a"/></xsl:template>
             <xsl:template match="a"><xsl:apply-templates select="."/></xsl:template>
           </xsl:stylesheet>"#,
    )
    .unwrap();
    let err = xvc::xslt::process_with_limit(&x, &doc, 10).unwrap_err();
    assert!(matches!(
        err,
        xvc::xslt::Error::RecursionLimit { limit: 10 }
    ));
}

#[test]
fn tvq_budget_is_enforced() {
    use xvc_bench::synthetic::{chain_catalog, chain_view, fan_stylesheet};
    let v = chain_view(10);
    let x = fan_stylesheet(10, 2);
    let err = Composer::new(&v, &x, &chain_catalog(10))
        .tvq_limit(100)
        .run()
        .unwrap_err();
    assert!(matches!(err, xvc::core::Error::TvqTooLarge { limit: 100 }));
}

#[test]
fn recursive_composer_rejects_non_recursive_shapes() {
    let v = figure1_view();
    let x = parse_stylesheet(xvc::xslt::parse::FIGURE4_XSLT).unwrap();
    let err = compose_recursive(&v, &x, &figure2_catalog()).unwrap_err();
    assert!(err.to_string().contains("§5.3"), "{err}");
}

#[test]
fn ambiguous_sql_columns_are_rejected_not_misscoped() {
    // `capacity` exists in `confroom` only, but `rackrate` is in both
    // confroom and guestroom — an unqualified reference must error.
    let db = sample_database();
    let q = parse_query("SELECT rackrate FROM confroom, guestroom WHERE c_id = r_id").unwrap();
    let err = xvc::rel::eval_query(&db, &q, &Default::default()).unwrap_err();
    assert!(
        matches!(err, xvc::rel::Error::AmbiguousColumn { .. }),
        "{err}"
    );
}
