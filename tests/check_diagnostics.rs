//! One minimal fixture per diagnostic code: each test triggers exactly the
//! code under test (plus documented companions) and pins down the span —
//! either the exact source slice it underlines, or its deliberate absence.
//!
//! This file is the executable counterpart of `DIAGNOSTICS.md`.

use xvc::analyze::{
    check_composed, check_sources, check_workload, CheckOptions, Code, Diagnostic, Report,
    Severity, Stage,
};
use xvc::core::paper_fixtures::{figure1_view, figure2_catalog};
use xvc::prelude::*;

fn check(view: Option<&str>, xslt: Option<&str>) -> Report {
    let cat = figure2_catalog();
    check_sources(view, xslt, Some(&cat), &CheckOptions::default())
}

/// The single diagnostic with this code; fails if it is absent or repeated.
fn the(report: &Report, code: Code) -> Diagnostic {
    let hits: Vec<&Diagnostic> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == code)
        .collect();
    assert_eq!(
        hits.len(),
        1,
        "expected exactly one {}: {:?}",
        code.as_str(),
        report.diagnostics
    );
    hits[0].clone()
}

fn slice<'a>(src: &'a str, d: &Diagnostic) -> &'a str {
    let span = d.span.unwrap_or_else(|| panic!("{} has no span", d));
    &src[span.start..span.end]
}

// ---------------------------------------------------------------- stylesheet

#[test]
fn xvc001_predicates() {
    let src = r#"<xsl:stylesheet>
      <xsl:template match="/"><r><xsl:apply-templates select="metro[@metroid=1]"/></r></xsl:template>
      <xsl:template match="metro"><m/></xsl:template>
    </xsl:stylesheet>"#;
    let r = check(None, Some(src));
    assert_eq!(r.codes(), vec![Code::Xvc001]);
    let d = the(&r, Code::Xvc001);
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(slice(src, &d), "metro[@metroid=1]");
}

#[test]
fn xvc002_flow_control() {
    let src = r#"<xsl:stylesheet>
      <xsl:template match="/"><r><xsl:apply-templates select="metro"/></r></xsl:template>
      <xsl:template match="metro"><xsl:if test="@pool='yes'"><m/></xsl:if></xsl:template>
    </xsl:stylesheet>"#;
    let r = check(None, Some(src));
    let d = the(&r, Code::Xvc002);
    assert_eq!(d.severity, Severity::Warning);
    assert!(slice(src, &d).starts_with("<xsl:if"), "{:?}", d.span);
}

#[test]
fn xvc003_conflicting_rules() {
    let src = r#"<xsl:stylesheet>
      <xsl:template match="/"><r><xsl:apply-templates select="metro"/></r></xsl:template>
      <xsl:template match="metro"><m1/></xsl:template>
      <xsl:template match="metro"><m2/></xsl:template>
    </xsl:stylesheet>"#;
    let r = check(None, Some(src));
    let d = the(&r, Code::Xvc003);
    assert_eq!(d.severity, Severity::Warning);
    // The span points at the *second* (conflicting) rule's match pattern.
    assert_eq!(slice(src, &d), "metro");
    assert!(d.span.unwrap().start > src.find("<m1/>").unwrap());
}

#[test]
fn xvc004_parameters() {
    let src = r#"<xsl:stylesheet>
      <xsl:template match="/"><r><xsl:apply-templates select="metro"/></r></xsl:template>
      <xsl:template match="metro"><xsl:param name="depth"/><m/></xsl:template>
    </xsl:stylesheet>"#;
    let r = check(None, Some(src));
    let d = the(&r, Code::Xvc004);
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(slice(src, &d), "metro");
}

#[test]
fn xvc005_descendant_axis() {
    let src = r#"<xsl:stylesheet>
      <xsl:template match="/"><r><xsl:apply-templates select="metro"/></r></xsl:template>
      <xsl:template match="metro//hotel"><h/></xsl:template>
    </xsl:stylesheet>"#;
    let r = check(None, Some(src));
    let d = the(&r, Code::Xvc005);
    // Outside XSLT_basic, but the composer handles unambiguous descendant
    // steps — a warning, not a gate.
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(slice(src, &d), "metro//hotel");
}

#[test]
fn xvc006_value_of_select() {
    let src = r#"<xsl:stylesheet>
      <xsl:template match="/"><r><xsl:apply-templates select="metro"/></r></xsl:template>
      <xsl:template match="metro"><m><xsl:value-of select="hotel/@hotelname"/></m></xsl:template>
    </xsl:stylesheet>"#;
    let r = check(None, Some(src));
    let d = the(&r, Code::Xvc006);
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(slice(src, &d), "hotel/@hotelname");
}

#[test]
fn xvc007_empty_mode() {
    let src = r#"<xsl:stylesheet>
      <xsl:template match="/"><r><xsl:apply-templates select="metro" mode="ghost"/></r></xsl:template>
      <xsl:template match="metro"><m/></xsl:template>
    </xsl:stylesheet>"#;
    let r = check(None, Some(src));
    let d = the(&r, Code::Xvc007);
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(slice(src, &d), "metro");
}

#[test]
fn xvc008_no_root_rule() {
    let src = r#"<xsl:stylesheet>
      <xsl:template match="metro"><m/></xsl:template>
    </xsl:stylesheet>"#;
    let r = check(None, Some(src));
    let d = the(&r, Code::Xvc008);
    assert_eq!(d.severity, Severity::Error);
    assert!(d.span.is_none(), "{d}");
    assert!(d.help.as_deref().unwrap().contains("match=\"/\""));
}

#[test]
fn xvc009_not_composable() {
    // Literal text output: the paper's views are attribute-only, so this
    // stylesheet parses and type-checks but cannot be composed.
    let src = r#"<xsl:stylesheet>
      <xsl:template match="/"><a>text!</a></xsl:template>
    </xsl:stylesheet>"#;
    let cat = figure2_catalog();
    let v = figure1_view();
    let x = parse_stylesheet(src).unwrap();
    let r = check_workload(Some(&v), Some(&x), Some(&cat), &CheckOptions::default());
    let d = the(&r, Code::Xvc009);
    assert_eq!(d.severity, Severity::Error);
    assert!(d.span.is_none(), "{d}");
}

#[test]
fn xvc010_stylesheet_parse_error() {
    let src = "<not-a-stylesheet/>";
    let r = check(None, Some(src));
    let d = the(&r, Code::Xvc010);
    assert_eq!(d.severity, Severity::Error);
    assert!(d.span.is_some(), "{d}");
}

// ---------------------------------------------------------------------- view

#[test]
fn xvc101_unknown_table() {
    let src = "node a $x { query: SELECT metroid FROM metrarea; }";
    let r = check(Some(src), None);
    let d = the(&r, Code::Xvc101);
    assert_eq!(d.severity, Severity::Error);
    assert_eq!(slice(src, &d), "SELECT metroid FROM metrarea");
    assert!(d.help.as_deref().unwrap().contains("metroarea"));
}

#[test]
fn xvc102_unknown_column() {
    let src = "node a $x { query: SELECT metroidd FROM metroarea; }";
    let r = check(Some(src), None);
    assert_eq!(r.codes(), vec![Code::Xvc102]);
    let d = the(&r, Code::Xvc102);
    assert_eq!(slice(src, &d), "SELECT metroidd FROM metroarea");
    assert!(d.help.as_deref().unwrap().contains("metroid"));
}

#[test]
fn xvc103_type_mismatch() {
    let src = "node a $x { query: SELECT metroid FROM metroarea WHERE metroname = 3; }";
    let r = check(Some(src), None);
    assert_eq!(r.codes(), vec![Code::Xvc103]);
    let d = the(&r, Code::Xvc103);
    assert!(slice(src, &d).starts_with("SELECT metroid"));
    assert!(d.message.contains("Str"), "{d}");
    assert!(d.message.contains("Int"), "{d}");
}

#[test]
fn xvc104_unbound_parameter() {
    // $m is never bound by an ancestor: rejected while parsing, reported
    // with the offending tag query's span.
    let src = "node hotel $h { query: SELECT hotelid FROM hotel WHERE metro_id = $m.metroid; }";
    let r = check(Some(src), None);
    assert_eq!(r.codes(), vec![Code::Xvc104]);
    let d = the(&r, Code::Xvc104);
    assert_eq!(d.severity, Severity::Error);
    assert!(slice(src, &d).contains("$m.metroid"), "{:?}", d.span);
    assert!(d.help.as_deref().unwrap().contains("Definition 1"));
}

#[test]
fn xvc105_parameter_column_missing() {
    let src = "node metro $m { query: SELECT metroid, metroname FROM metroarea;\n\
               node hotel $h { query: SELECT hotelid FROM hotel WHERE metro_id = $m.hqstate; } }";
    let r = check(Some(src), None);
    assert_eq!(r.codes(), vec![Code::Xvc105]);
    let d = the(&r, Code::Xvc105);
    assert_eq!(
        slice(src, &d),
        "SELECT hotelid FROM hotel WHERE metro_id = $m.hqstate"
    );
    assert!(d.help.as_deref().unwrap().contains("metroid"));
}

#[test]
fn xvc106_aggregate_projection() {
    let src = "node a $x { query: SELECT SUM(capacity), croomnumber FROM confroom; }";
    let r = check(Some(src), None);
    assert_eq!(r.codes(), vec![Code::Xvc106]);
    let d = the(&r, Code::Xvc106);
    assert!(slice(src, &d).starts_with("SELECT SUM(capacity)"));
    assert!(d.message.contains("croomnumber"), "{d}");
}

#[test]
fn xvc107_duplicate_binding() {
    let src = "node a $x { query: SELECT metroid FROM metroarea; }\n\
               node b $x { query: SELECT metroname FROM metroarea; }";
    let r = check(Some(src), None);
    assert_eq!(r.codes(), vec![Code::Xvc107]);
    let d = the(&r, Code::Xvc107);
    assert_eq!(d.severity, Severity::Error);
    assert!(d.span.is_some(), "{d}");
}

#[test]
fn xvc110_view_parse_error() {
    let src = "node metro { query: SELECT metroid FROM metroarea; }";
    let r = check(Some(src), None);
    assert_eq!(r.codes(), vec![Code::Xvc110]);
    let d = the(&r, Code::Xvc110);
    assert_eq!(d.severity, Severity::Error);
    assert!(d.span.is_some(), "{d}");
}

// ----------------------------------------------------------------------- CTG

const TWO_LEVEL_VIEW: &str = "\
node metro $m {
    query: SELECT metroid, metroname FROM metroarea;
    node hotel $h {
        query: SELECT hotelid FROM hotel WHERE metro_id = $m.metroid;
    }
}";

#[test]
fn xvc201_unreachable_rule() {
    let src = r#"<xsl:stylesheet>
      <xsl:template match="/"><r><xsl:apply-templates select="metro"/></r></xsl:template>
      <xsl:template match="metro"><m/></xsl:template>
      <xsl:template match="guestroom"><g/></xsl:template>
    </xsl:stylesheet>"#;
    let r = check(Some(TWO_LEVEL_VIEW), Some(src));
    let d = the(&r, Code::Xvc201);
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(slice(src, &d), "guestroom");
}

#[test]
fn xvc202_dead_view_node() {
    let src = r#"<xsl:stylesheet>
      <xsl:template match="/"><r><xsl:apply-templates select="metro"/></r></xsl:template>
      <xsl:template match="metro"><m/></xsl:template>
    </xsl:stylesheet>"#;
    let r = check(Some(TWO_LEVEL_VIEW), Some(src));
    let d = the(&r, Code::Xvc202);
    assert_eq!(d.severity, Severity::Warning);
    // The span underlines the dead node's tag query in the view source.
    assert_eq!(
        slice(TWO_LEVEL_VIEW, &d),
        "SELECT hotelid FROM hotel WHERE metro_id = $m.metroid"
    );
}

#[test]
fn xvc203_recursion() {
    let src = r#"<xsl:stylesheet>
      <xsl:template match="/"><r><xsl:apply-templates select="metro"/></r></xsl:template>
      <xsl:template match="metro"><m><xsl:apply-templates select="hotel"/></m></xsl:template>
      <xsl:template match="hotel"><h><xsl:apply-templates select=".."/></h></xsl:template>
    </xsl:stylesheet>"#;
    let r = check(Some(TWO_LEVEL_VIEW), Some(src));
    let d = the(&r, Code::Xvc203);
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.span.is_some(), "{d}");
    assert!(d.help.as_deref().unwrap().contains("compose_recursive"));
}

/// Four levels of double apply-templates: occurrences 1, 2, 4, 8, 16 —
/// 31 TVQ nodes from a 5-node CTG (§4.5's exponential case in miniature).
const BLOWUP_VIEW: &str = "\
node a $a {
    query: SELECT metroid FROM metroarea;
    node b $b {
        query: SELECT metroid FROM metroarea;
        node c $c {
            query: SELECT metroid FROM metroarea;
            node d $d {
                query: SELECT metroid FROM metroarea;
            }
        }
    }
}";

const BLOWUP_XSLT: &str = r#"<xsl:stylesheet>
  <xsl:template match="/"><r><xsl:apply-templates select="a"/><xsl:apply-templates select="a"/></r></xsl:template>
  <xsl:template match="a"><xa><xsl:apply-templates select="b"/><xsl:apply-templates select="b"/></xa></xsl:template>
  <xsl:template match="b"><xb><xsl:apply-templates select="c"/><xsl:apply-templates select="c"/></xb></xsl:template>
  <xsl:template match="c"><xc><xsl:apply-templates select="d"/><xsl:apply-templates select="d"/></xc></xsl:template>
  <xsl:template match="d"><xd/></xsl:template>
</xsl:stylesheet>"#;

#[test]
fn xvc204_blowup_warning_with_exact_prediction() {
    let r = check(Some(BLOWUP_VIEW), Some(BLOWUP_XSLT));
    let d = the(&r, Code::Xvc204);
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.span.is_some(), "{d}");
    assert!(d.message.contains("6.2x"), "{d}");

    let p = r.prediction.as_ref().unwrap();
    assert_eq!(p.ctg_nodes, 5);
    assert_eq!(p.predicted_tvq_nodes, 31);
    assert_eq!(p.per_node.iter().max(), Some(&16));

    // Acceptance cross-check: the §4.5 estimate equals what composition
    // actually measures.
    let v = xvc::view::parse_view(BLOWUP_VIEW).unwrap();
    let x = parse_stylesheet(BLOWUP_XSLT).unwrap();
    let cat = figure2_catalog();
    let stats = Composer::new(&v, &x, &cat).run().unwrap().stats;
    assert_eq!(p.predicted_tvq_nodes, stats.tvq_nodes);
    assert!((p.duplication_factor - stats.duplication_factor).abs() < 1e-9);
}

#[test]
fn xvc204_is_an_error_above_the_budget() {
    let cat = figure2_catalog();
    let opts = CheckOptions {
        tvq_limit: 10,
        ..CheckOptions::default()
    };
    let r = check_sources(Some(BLOWUP_VIEW), Some(BLOWUP_XSLT), Some(&cat), &opts);
    let d = the(&r, Code::Xvc204);
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("31"), "{d}");
    assert!(r.has_errors());
}

// ------------------------------------------------------------------ composed

fn corrupt_composed(extra: xvc::rel::ScalarExpr) -> (SchemaTree, Catalog) {
    let v = figure1_view();
    let x = parse_stylesheet(xvc::xslt::parse::FIGURE4_XSLT).unwrap();
    let cat = figure2_catalog();
    let mut composed = Composer::new(&v, &x, &cat).run().unwrap().view;
    let victim = composed
        .node_ids()
        .into_iter()
        .find(|&i| composed.node(i).is_some_and(|n| n.query.is_some()))
        .unwrap();
    composed
        .node_mut(victim)
        .unwrap()
        .query
        .as_mut()
        .unwrap()
        .and_where(extra);
    (composed, cat)
}

#[test]
fn xvc301_composed_not_well_typed() {
    let (composed, cat) = corrupt_composed(xvc::rel::ScalarExpr::eq(
        xvc::rel::ScalarExpr::col("no_such_column"),
        xvc::rel::ScalarExpr::int(1),
    ));
    let ds = check_composed(&composed, &cat);
    let hits: Vec<&Diagnostic> = ds.iter().filter(|d| d.code == Code::Xvc301).collect();
    assert_eq!(hits.len(), 1, "{ds:?}");
    assert_eq!(hits[0].severity, Severity::Error);
    assert_eq!(hits[0].stage, Stage::Composed);
    // Composed trees are built in memory — no source, no span.
    assert!(hits[0].span.is_none(), "{}", hits[0]);
}

#[test]
fn xvc302_composed_scoping() {
    let (composed, cat) = corrupt_composed(xvc::rel::ScalarExpr::eq(
        xvc::rel::ScalarExpr::Param {
            var: "ghost".into(),
            column: "q".into(),
        },
        xvc::rel::ScalarExpr::int(1),
    ));
    let ds = check_composed(&composed, &cat);
    let hits: Vec<&Diagnostic> = ds.iter().filter(|d| d.code == Code::Xvc302).collect();
    assert_eq!(hits.len(), 1, "{ds:?}");
    assert_eq!(hits[0].severity, Severity::Error);
    assert_eq!(hits[0].stage, Stage::Composed);
    assert!(hits[0].span.is_none(), "{}", hits[0]);
}

// ------------------------------------------------- predicate dataflow (4xx)

/// The paper's hotel filter (`starrating > 4`), as textual view source.
const STAR_VIEW: &str = "\
node metro $m {
    query: SELECT metroid, metroname FROM metroarea;
    node hotel $h {
        query: SELECT hotelid, hotelname, starrating FROM hotel \
               WHERE metro_id = $m.metroid AND starrating > 4;
    }
}";

#[test]
fn xvc401_dead_subtree_with_fact_chain() {
    // Figure 4 extended with a conflicting match predicate: the view keeps
    // only hotels with starrating > 4, the stylesheet selects < 3.
    let xslt = r#"<xsl:stylesheet>
      <xsl:template match="/"><r><xsl:apply-templates select="metro"/></r></xsl:template>
      <xsl:template match="metro"><m><xsl:apply-templates select="hotel[@starrating &lt; 3]"/></m></xsl:template>
      <xsl:template match="hotel"><h/></xsl:template>
    </xsl:stylesheet>"#;
    let r = check(Some(STAR_VIEW), Some(xslt));
    let d = the(&r, Code::Xvc401);
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.stage, Stage::Composed);
    assert!(d.span.is_none(), "{d}");
    let help = d.help.as_deref().unwrap();
    assert!(help.contains("fact chain"), "{help}");
    assert!(help.contains("starrating"), "{help}");
    // The prune report quantifies the removal.
    let p = the(&r, Code::Xvc407);
    assert!(p.message.contains("remove 1 of"), "{p}");
    assert!(!r.has_errors());
}

#[test]
fn xvc402_implicit_aggregate_survives_contradiction() {
    // WHERE is provably false, but SUM over no tuples still yields a row —
    // the node is NOT dead, and the report says why.
    let view = "node stat $s { query: SELECT SUM(capacity) AS total FROM confroom \
                WHERE capacity > 10 AND capacity < 5; }";
    let xslt = r#"<xsl:stylesheet>
      <xsl:template match="/"><r><xsl:apply-templates select="stat"/></r></xsl:template>
      <xsl:template match="stat"><s/></xsl:template>
    </xsl:stylesheet>"#;
    let r = check(Some(view), Some(xslt));
    let d = the(&r, Code::Xvc402);
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains("implicit"), "{d}");
    assert!(!r.codes().contains(&Code::Xvc401), "{:?}", r.codes());
}

#[test]
fn xvc403_redundant_conjunct_and_prune_report() {
    let view = "node hotel $h { query: SELECT hotelid, starrating FROM hotel \
                WHERE starrating > 4 AND starrating > 2; }";
    let xslt = r#"<xsl:stylesheet>
      <xsl:template match="/"><r><xsl:apply-templates select="hotel"/></r></xsl:template>
      <xsl:template match="hotel"><h/></xsl:template>
    </xsl:stylesheet>"#;
    let r = check(Some(view), Some(xslt));
    let d = the(&r, Code::Xvc403);
    assert!(d.message.contains("starrating > 2"), "{d}");
    assert!(
        d.help.as_deref().unwrap().contains("starrating > 4"),
        "{d:?}"
    );
    let p = the(&r, Code::Xvc407);
    assert!(p.message.contains("drop 1 redundant conjunct"), "{p}");
}

#[test]
fn xvc404_tautological_exists() {
    // An implicitly aggregating subquery always yields its one row, so the
    // EXISTS is always TRUE.
    let view = "node metro $m { query: SELECT metroid FROM metroarea \
                WHERE EXISTS (SELECT COUNT(*) FROM availability); }";
    let xslt = r#"<xsl:stylesheet>
      <xsl:template match="/"><r><xsl:apply-templates select="metro"/></r></xsl:template>
      <xsl:template match="metro"><m/></xsl:template>
    </xsl:stylesheet>"#;
    let r = check(Some(view), Some(xslt));
    let d = the(&r, Code::Xvc404);
    assert!(d.message.contains("tautological"), "{d}");
}

#[test]
fn xvc405_is_null_on_key_column() {
    // hotelid is the table's PRIMARY KEY (retained from the DDL), so
    // `IS NULL` can never bind — and the node is dead.
    let view = "node hotel $h { query: SELECT hotelid FROM hotel WHERE hotelid IS NULL; }";
    let xslt = r#"<xsl:stylesheet>
      <xsl:template match="/"><r><xsl:apply-templates select="hotel"/></r></xsl:template>
      <xsl:template match="hotel"><h/></xsl:template>
    </xsl:stylesheet>"#;
    let r = check(Some(view), Some(xslt));
    let d = the(&r, Code::Xvc405);
    assert!(d.message.contains("NOT NULL"), "{d}");
    let dead = the(&r, Code::Xvc401);
    assert!(
        dead.help.as_deref().unwrap().contains("PRIMARY KEY"),
        "{dead:?}"
    );
}

#[test]
fn xvc406_key_implied_duplicate_join() {
    let view = "node h $h { query: SELECT a.hotelid, a.hotelname FROM hotel AS a, hotel AS b \
                WHERE a.hotelid = b.hotelid; }";
    let xslt = r#"<xsl:stylesheet>
      <xsl:template match="/"><r><xsl:apply-templates select="h"/></r></xsl:template>
      <xsl:template match="h"><x/></xsl:template>
    </xsl:stylesheet>"#;
    let r = check(Some(view), Some(xslt));
    let d = the(&r, Code::Xvc406);
    assert!(d.message.contains("primary key"), "{d}");
    assert!(d.message.contains("hotelid"), "{d}");
}

// --------------------------------------------------- cardinality (120, 5xx)

#[test]
fn xvc120_unusable_index() {
    // starrating is only ever compared with `>`; the index can never be an
    // access path. The metro_id index is used and stays silent.
    let ddl = "CREATE TABLE hotel (\n\
                   hotelid INT PRIMARY KEY,\n\
                   metro_id INT,\n\
                   starrating INT\n\
               );\n\
               CREATE INDEX hotel_star ON hotel (starrating) USING HASH;\n\
               CREATE INDEX hotel_metro ON hotel (metro_id) USING HASH;";
    let cat = xvc::rel::parse_ddl(ddl).unwrap();
    let view = "node hotel $h { query: SELECT hotelid, starrating FROM hotel \
                WHERE metro_id = 7 AND starrating > 4; }";
    let r = check_sources(Some(view), None, Some(&cat), &CheckOptions::default());
    assert_eq!(r.codes(), vec![Code::Xvc120]);
    let d = the(&r, Code::Xvc120);
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains("hotel.starrating"), "{d}");
    assert!(d.help.as_deref().unwrap().contains("equality"), "{d:?}");
}

#[test]
fn xvc501_zero_bound_accompanies_dead_subtree() {
    // Same fixture as XVC401: the cardinality pass restates the dead
    // subtree as a 0-row bound, with the same fact chain as justification.
    let xslt = r#"<xsl:stylesheet>
      <xsl:template match="/"><r><xsl:apply-templates select="metro"/></r></xsl:template>
      <xsl:template match="metro"><m><xsl:apply-templates select="hotel[@starrating &lt; 3]"/></m></xsl:template>
      <xsl:template match="hotel"><h/></xsl:template>
    </xsl:stylesheet>"#;
    let r = check(Some(STAR_VIEW), Some(xslt));
    let d = the(&r, Code::Xvc501);
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.stage, Stage::Composed);
    assert!(d.message.contains("0 rows"), "{d}");
    assert!(
        d.justification.iter().any(|j| j.contains("starrating")),
        "{d:?}"
    );
    // The dataflow pass reports the same region.
    the(&r, Code::Xvc401);
}

#[test]
fn xvc502_cross_product_fan_out() {
    let view = "node pair $p { query: SELECT a.metroid, b.hotelid \
                FROM metroarea AS a, hotel AS b; }";
    let xslt = r#"<xsl:stylesheet>
      <xsl:template match="/"><r><xsl:apply-templates select="pair"/></r></xsl:template>
      <xsl:template match="pair"><p/></xsl:template>
    </xsl:stylesheet>"#;
    let r = check(Some(view), Some(xslt));
    let d = the(&r, Code::Xvc502);
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains("cross product"), "{d}");
    assert!(d.message.contains("`b`"), "{d}");
    assert!(!d.justification.is_empty(), "{d:?}");
}

#[test]
fn xvc503_unbounded_recursive_growth() {
    // The XVC203 recursion fixture: metro's tag query is unbounded, so the
    // cyclic expansion has no finite growth bound either.
    let src = r#"<xsl:stylesheet>
      <xsl:template match="/"><r><xsl:apply-templates select="metro"/></r></xsl:template>
      <xsl:template match="metro"><m><xsl:apply-templates select="hotel"/></m></xsl:template>
      <xsl:template match="hotel"><h><xsl:apply-templates select=".."/></h></xsl:template>
    </xsl:stylesheet>"#;
    let r = check(Some(TWO_LEVEL_VIEW), Some(src));
    the(&r, Code::Xvc203);
    // Both metro and hotel lie on the cycle, and neither tag query is
    // provably single-row — one finding per distinct view node.
    let hits: Vec<&Diagnostic> = r
        .diagnostics
        .iter()
        .filter(|d| d.code == Code::Xvc503)
        .collect();
    assert_eq!(hits.len(), 2, "{:?}", r.diagnostics);
    let d = hits[0];
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.stage, Stage::View);
    assert!(d.span.is_some(), "{d}");
    assert!(d.message.contains("CTG cycle"), "{d}");
    assert!(
        d.help.as_deref().unwrap().contains("compose_recursive"),
        "{d:?}"
    );
}

#[test]
fn xvc504_rebind_guard_probe_not_single_row() {
    // `.[hotel]` composes to a rebind whose guard probes hotel existence;
    // the probe pins no primary key, so it is not provably single-row.
    let xslt = r#"<xsl:stylesheet>
      <xsl:template match="/"><r><xsl:apply-templates select="metro"/></r></xsl:template>
      <xsl:template match="metro"><m><xsl:apply-templates select=".[hotel]" mode="g"/></m></xsl:template>
      <xsl:template match="metro" mode="g"><gm/></xsl:template>
    </xsl:stylesheet>"#;
    let r = check(Some(TWO_LEVEL_VIEW), Some(xslt));
    let d = the(&r, Code::Xvc504);
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains("EXISTS probe"), "{d}");
    assert!(d.help.as_deref().unwrap().contains("point lookup"), "{d:?}");
}

#[test]
fn xvc505_finite_document_bound_report() {
    // The root tag query pins metroarea's full primary key to a literal:
    // the whole document is statically bounded, and the report says so.
    let view = "node metro $m { query: SELECT metroid, metroname FROM metroarea \
                WHERE metroid = 1; }";
    let xslt = r#"<xsl:stylesheet>
      <xsl:template match="/"><r><xsl:apply-templates select="metro"/></r></xsl:template>
      <xsl:template match="metro"><m/></xsl:template>
    </xsl:stylesheet>"#;
    let r = check(Some(view), Some(xslt));
    let d = the(&r, Code::Xvc505);
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.stage, Stage::General);
    assert!(d.message.contains("at most"), "{d}");
    assert!(
        d.justification.iter().any(|j| j.contains("fan-out")),
        "{d:?}"
    );
    assert!(!r.has_errors());
}

#[test]
fn xvc505_bound_covers_every_published_element() {
    // The report lifts the bounds over the composed view, so it counts
    // the elements the template emits, not the TVQ nodes that bind them:
    // `<r>` plus one metro's `<m><n/><o/></m>` is four elements.
    let view = "node metro $m { query: SELECT metroid, metroname FROM metroarea \
                WHERE metroid = 1; }";
    let xslt = r#"<xsl:stylesheet>
      <xsl:template match="/"><r><xsl:apply-templates select="metro"/></r></xsl:template>
      <xsl:template match="metro"><m><n/><o/></m></xsl:template>
    </xsl:stylesheet>"#;
    let r = check(Some(view), Some(xslt));
    let d = the(&r, Code::Xvc505);
    let bound: u64 = d
        .message
        .split("at most ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no bound in {d}"));
    let v = xvc::view::parse_view(view).unwrap();
    let x = parse_stylesheet(xslt).unwrap();
    let composed = Composer::new(&v, &x, &figure2_catalog())
        .run()
        .unwrap()
        .view;
    let published = Engine::new(&composed)
        .session()
        .publish(&xvc::core::paper_fixtures::sample_database())
        .unwrap();
    assert_eq!(published.stats.elements, 4);
    assert!(bound >= 4, "{d}");
    // One fan-out line per composed view node.
    assert_eq!(d.justification.len(), composed.len(), "{d:?}");
    assert!(
        d.justification.iter().all(|j| j.contains("fan-out")),
        "{d:?}"
    );
}

// ------------------------------------------------- dependency lineage (6xx)

/// Five sibling nodes all joining on the same parent key: `metroarea.metroid`
/// feeds the parent's projection plus four join keys — write amplification.
const FANOUT_VIEW: &str = "\
node metro $m {
    query: SELECT metroid FROM metroarea;
    node h1 $a { query: SELECT hotelid FROM hotel WHERE metro_id = $m.metroid; }
    node h2 $b { query: SELECT hotelid FROM hotel WHERE metro_id = $m.metroid; }
    node h3 $c { query: SELECT hotelid FROM hotel WHERE metro_id = $m.metroid; }
    node h4 $d { query: SELECT hotelid FROM hotel WHERE metro_id = $m.metroid; }
}";

const FANOUT_XSLT: &str = r#"<xsl:stylesheet>
  <xsl:template match="/"><r><xsl:apply-templates select="metro"/></r></xsl:template>
  <xsl:template match="metro"><m>
    <xsl:apply-templates select="h1"/><xsl:apply-templates select="h2"/>
    <xsl:apply-templates select="h3"/><xsl:apply-templates select="h4"/>
  </m></xsl:template>
  <xsl:template match="h1"><x1/></xsl:template>
  <xsl:template match="h2"><x2/></xsl:template>
  <xsl:template match="h3"><x3/></xsl:template>
  <xsl:template match="h4"><x4/></xsl:template>
</xsl:stylesheet>"#;

#[test]
fn xvc601_write_amplifying_column() {
    let r = check(Some(FANOUT_VIEW), Some(FANOUT_XSLT));
    let hits: Vec<&Diagnostic> = r
        .diagnostics
        .iter()
        .filter(|d| d.code == Code::Xvc601)
        .collect();
    assert!(!hits.is_empty(), "{:?}", r.diagnostics);
    let d = hits
        .iter()
        .find(|d| d.message.contains("metroarea.metroid"))
        .unwrap_or_else(|| panic!("no metroid amplification: {hits:?}"));
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.stage, Stage::General);
    assert!(d.span.is_none(), "{d}");
    assert!(d.message.contains("write amplification"), "{d}");
    // Each justifying fact names a TVQ node the column feeds.
    assert!(d.justification.len() > 3, "{:?}", d.justification);
    assert!(d.help.as_deref().unwrap().contains("fact chain"), "{d:?}");
    assert!(!r.has_errors());
}

#[test]
fn xvc602_recursive_dependency_recomputes() {
    // The XVC203/XVC503 recursion fixture: the cyclic branch walks the raw
    // view, and the hotel join key surfaces as a forced-recompute edge.
    let src = r#"<xsl:stylesheet>
      <xsl:template match="/"><r><xsl:apply-templates select="metro"/></r></xsl:template>
      <xsl:template match="metro"><m><xsl:apply-templates select="hotel"/></m></xsl:template>
      <xsl:template match="hotel"><h><xsl:apply-templates select=".."/></h></xsl:template>
    </xsl:stylesheet>"#;
    let r = check(Some(TWO_LEVEL_VIEW), Some(src));
    the(&r, Code::Xvc203);
    let hits: Vec<&Diagnostic> = r
        .diagnostics
        .iter()
        .filter(|d| d.code == Code::Xvc602)
        .collect();
    assert!(!hits.is_empty(), "{:?}", r.diagnostics);
    let d = hits
        .iter()
        .find(|d| d.message.contains("metroarea.metroid"))
        .unwrap_or_else(|| panic!("no metroid recursion edge: {hits:?}"));
    assert_eq!(d.severity, Severity::Warning);
    assert!(d.message.contains("recursion cycle"), "{d}");
    assert!(d.message.contains("join-key"), "{d}");
    assert!(
        d.justification
            .iter()
            .any(|j| j.contains("recursion cycle")),
        "{:?}",
        d.justification
    );
    assert!(!r.has_errors());
}

#[test]
fn xvc603_dead_base_table() {
    // STAR_VIEW reads metroarea and hotel only; the other four Figure 2
    // tables are dead weight for this workload.
    let xslt = r#"<xsl:stylesheet>
      <xsl:template match="/"><r><xsl:apply-templates select="metro"/></r></xsl:template>
      <xsl:template match="metro"><m><xsl:apply-templates select="hotel"/></m></xsl:template>
      <xsl:template match="hotel"><h/></xsl:template>
    </xsl:stylesheet>"#;
    let r = check(Some(STAR_VIEW), Some(xslt));
    let hits: Vec<&Diagnostic> = r
        .diagnostics
        .iter()
        .filter(|d| d.code == Code::Xvc603)
        .collect();
    assert_eq!(hits.len(), 4, "{:?}", r.diagnostics);
    let d = hits
        .iter()
        .find(|d| d.message.contains("hotelchain"))
        .unwrap_or_else(|| panic!("hotelchain not reported dead: {hits:?}"));
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.stage, Stage::General);
    assert!(
        d.help.as_deref().unwrap().contains("skip republishing"),
        "{d:?}"
    );
    assert!(!r.has_errors());
}

#[test]
fn xvc604_impact_report() {
    // Same workload: hotel's join key on metroarea.metroid is structural,
    // so the impact report fires exactly once, with per-table fact lines.
    let xslt = r#"<xsl:stylesheet>
      <xsl:template match="/"><r><xsl:apply-templates select="metro"/></r></xsl:template>
      <xsl:template match="metro"><m><xsl:apply-templates select="hotel"/></m></xsl:template>
      <xsl:template match="hotel"><h/></xsl:template>
    </xsl:stylesheet>"#;
    let r = check(Some(STAR_VIEW), Some(xslt));
    let d = the(&r, Code::Xvc604);
    assert_eq!(d.severity, Severity::Warning);
    assert_eq!(d.stage, Stage::General);
    assert!(d.message.contains("dependency impact"), "{d}");
    assert!(d.message.contains("xvc deps"), "{d}");
    assert!(
        d.justification
            .iter()
            .any(|j| j.contains("recompute-required")),
        "{:?}",
        d.justification
    );
    assert!(!r.has_errors());
}

// ------------------------------------------------------------------- catalog

/// Every code in the catalogue has a fixture in this file (or is the clean
/// case); keep `Code::all()` and this list in sync with `DIAGNOSTICS.md`.
#[test]
fn every_code_is_exercised() {
    assert_eq!(Code::all().len(), 41);
}
