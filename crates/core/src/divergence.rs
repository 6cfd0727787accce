//! Divergence reporter: localized diffs of `v'(I)` against `x(v(I))`.
//!
//! The equivalence theorem says the composed view and the naive
//! publish-then-transform pipeline agree on every instance. When they do
//! not (a composition bug, or a deliberately mutated view), a bare
//! "documents differ" is useless for debugging — the interesting question
//! is *which* subtree diverged and *which tag query under which bindings*
//! produced it.
//!
//! [`check_composition`] evaluates both sides, compares them under the
//! same unordered-multiset semantics as
//! [`xvc_xml::documents_equal_unordered`], and on mismatch descends to the
//! first divergent node: unmatched children are paired by tag and recursed
//! into, so the reported path is as deep as the documents still agree.
//! The composed side is published with a provenance trace
//! ([`xvc_view::Engine::traced`]), letting the report name the
//! schema-tree node, its tag query, and the [`ParamEnv`] in effect at the
//! divergent path.
//!
//! [`ParamEnv`]: xvc_rel::ParamEnv

use std::collections::HashMap;

use xvc_rel::Database;
use xvc_view::{Engine, PublishTrace, SchemaTree, ViewNodeId};
use xvc_xml::{canonical_string, documents_equal_unordered, Document, NodeId, NodeKind};
use xvc_xslt::Stylesheet;

use crate::error::Result;

/// What kind of disagreement was found at the divergence point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// A subtree required by `x(v(I))` has no counterpart in `v'(I)`.
    Missing,
    /// `v'(I)` produced a subtree `x(v(I))` does not contain.
    Unexpected,
    /// Same-tag subtrees exist on both sides but no pairing makes them
    /// equal (differing attributes or descendants).
    Mismatch,
    /// Text content differs under the reported path.
    TextMismatch,
}

impl std::fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DivergenceKind::Missing => "missing subtree (in x(v(I)), absent from v'(I))",
            DivergenceKind::Unexpected => "unexpected subtree (in v'(I), absent from x(v(I)))",
            DivergenceKind::Mismatch => "subtree mismatch",
            DivergenceKind::TextMismatch => "text mismatch",
        })
    }
}

/// A structured first-divergence report.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Indexed XML path of the divergent node (or of the parent under
    /// which a subtree is missing), e.g. `/result[1]/hotel[2]`.
    pub path: String,
    /// What went wrong there.
    pub kind: DivergenceKind,
    /// The subtree the naive pipeline `x(v(I))` expects (serialized XML).
    pub expected: Option<String>,
    /// The subtree the composed view `v'(I)` produced.
    pub actual: Option<String>,
    /// The schema-tree node of the composed view that produced (or should
    /// have produced) the divergent subtree.
    pub view_node: Option<ViewNodeId>,
    /// That node's tag query, rendered as SQL.
    pub tag_query: Option<String>,
    /// The parameter bindings in effect: `(variable, rendered tuple)`.
    pub param_env: Vec<(String, String)>,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "composition divergence at {}", self.path)?;
        writeln!(f, "  kind: {}", self.kind)?;
        match &self.expected {
            Some(x) => writeln!(f, "  expected (naive x(v(I))): {x}")?,
            None => writeln!(f, "  expected (naive x(v(I))): (nothing)")?,
        }
        match &self.actual {
            Some(x) => writeln!(f, "  actual (composed v'(I)):  {x}")?,
            None => writeln!(f, "  actual (composed v'(I)):  (nothing)")?,
        }
        if let Some(v) = self.view_node {
            writeln!(f, "  produced by composed view node {v:?}")?;
        }
        if let Some(q) = &self.tag_query {
            writeln!(f, "  tag query: {q}")?;
        }
        if self.param_env.is_empty() {
            write!(f, "  bindings: (empty)")?;
        } else {
            write!(f, "  bindings:")?;
            for (var, tuple) in &self.param_env {
                write!(f, "\n    ${var} = {tuple}")?;
            }
        }
        Ok(())
    }
}

/// Evaluates the naive pipeline `x(v(I))` and the composed view `v'(I)`
/// side by side. Returns `None` when they agree (unordered semantics,
/// §2.2.2) and a localized [`Divergence`] when they do not.
pub fn check_composition(
    view: &SchemaTree,
    stylesheet: &Stylesheet,
    composed: &SchemaTree,
    db: &Database,
) -> Result<Option<Divergence>> {
    // Both sides run through the one publish walk serving uses, so the
    // equivalence check certifies exactly what is served.
    let vi = Engine::new(view).session().publish(db)?.document;
    let expected = xvc_xslt::process(stylesheet, &vi)?;
    let published = Engine::new(composed).traced(true).session().publish(db)?;
    let (actual, trace) = (
        published.document,
        published.trace.expect("tracing was enabled"),
    );
    if documents_equal_unordered(&expected, &actual) {
        return Ok(None);
    }
    let raw = diff_pair(
        &expected,
        expected.root(),
        &actual,
        actual.root(),
        String::new(),
    )
    .unwrap_or(RawDivergence {
        path: String::new(),
        kind: DivergenceKind::Mismatch,
        expected: Some(expected.to_xml()),
        actual: Some(actual.to_xml()),
        missing_tag: None,
    });
    Ok(Some(attribute(raw, composed, &trace)))
}

struct RawDivergence {
    /// Indexed path of the divergent actual node, or of the parent when
    /// the divergence is a missing subtree. Empty string = document root.
    path: String,
    kind: DivergenceKind,
    expected: Option<String>,
    actual: Option<String>,
    /// Tag of the missing expected subtree, when [`DivergenceKind::Missing`].
    missing_tag: Option<String>,
}

/// Compares two paired nodes (same tag by construction); returns the first
/// divergence found, descending into same-tag unmatched children.
/// `path` is the indexed path of `a` (empty for the root).
fn diff_pair(
    e_doc: &Document,
    e: NodeId,
    a_doc: &Document,
    a: NodeId,
    path: String,
) -> Option<RawDivergence> {
    // Attribute disagreement on the pair itself.
    if let (NodeKind::Element { .. }, NodeKind::Element { .. }) = (e_doc.kind(e), a_doc.kind(a)) {
        let mut ea: Vec<_> = e_doc.attrs(e).to_vec();
        let mut aa: Vec<_> = a_doc.attrs(a).to_vec();
        ea.sort();
        aa.sort();
        if ea != aa {
            return Some(RawDivergence {
                path,
                kind: DivergenceKind::Mismatch,
                expected: Some(e_doc.node_to_xml(e)),
                actual: Some(a_doc.node_to_xml(a)),
                missing_tag: None,
            });
        }
    }

    let e_keys = child_keys(e_doc, e);
    let a_keys = child_keys(a_doc, a);
    let unmatched_e = unmatched(&e_keys, &a_keys);
    let unmatched_a = unmatched(&a_keys, &e_keys);
    if unmatched_e.is_empty() && unmatched_a.is_empty() {
        return None; // subtrees agree as multisets
    }

    // Pair off same-tag unmatched elements and descend: the divergence is
    // inside them, and recursing localizes it further.
    for &(_, ex) in &unmatched_e {
        let Some(tag) = e_doc.name(ex) else { continue };
        for &(_, ax) in &unmatched_a {
            if a_doc.is_element_named(ax, tag) {
                let child_path = format!("{path}/{}", indexed_segment(a_doc, a, ax));
                if let Some(d) = diff_pair(e_doc, ex, a_doc, ax, child_path) {
                    return Some(d);
                }
            }
        }
    }

    // No same-tag pair explains it: report at this level.
    let first_e = unmatched_e.first().map(|&(_, id)| id);
    let first_a = unmatched_a.first().map(|&(_, id)| id);
    let text_only = first_e.map(|id| !e_doc.is_element(id)).unwrap_or(true)
        && first_a.map(|id| !a_doc.is_element(id)).unwrap_or(true);
    let (kind, report_path) = match (first_e, first_a) {
        _ if text_only => (DivergenceKind::TextMismatch, path.clone()),
        (Some(_), None) => (DivergenceKind::Missing, path.clone()),
        (None, Some(ax)) if a_doc.is_element(ax) => (
            DivergenceKind::Unexpected,
            format!("{path}/{}", indexed_segment(a_doc, a, ax)),
        ),
        (Some(_), Some(ax)) if a_doc.is_element(ax) => (
            DivergenceKind::Mismatch,
            format!("{path}/{}", indexed_segment(a_doc, a, ax)),
        ),
        _ => (DivergenceKind::Mismatch, path.clone()),
    };
    Some(RawDivergence {
        path: report_path,
        kind,
        expected: first_e.map(|id| e_doc.node_to_xml(id)),
        actual: first_a.map(|id| a_doc.node_to_xml(id)),
        missing_tag: first_e
            .filter(|_| kind == DivergenceKind::Missing)
            .and_then(|id| e_doc.name(id).map(str::to_owned)),
    })
}

/// Canonical comparison keys for a node's relevant children (elements and
/// non-whitespace text), mirroring `documents_equal_unordered`.
fn child_keys(doc: &Document, id: NodeId) -> Vec<(String, NodeId)> {
    let mut out = Vec::new();
    for &c in doc.children(id) {
        match doc.kind(c) {
            NodeKind::Element { .. } => out.push((canonical_string(doc, c), c)),
            NodeKind::Text(t) if !t.trim().is_empty() => {
                out.push((format!("\u{1}text:{}", t.trim()), c));
            }
            _ => {}
        }
    }
    out
}

/// Entries of `left` that cannot be matched against `right` (multiset
/// difference on the canonical keys).
fn unmatched(left: &[(String, NodeId)], right: &[(String, NodeId)]) -> Vec<(String, NodeId)> {
    let mut avail: HashMap<&str, usize> = HashMap::new();
    for (k, _) in right {
        *avail.entry(k.as_str()).or_insert(0) += 1;
    }
    let mut out = Vec::new();
    for (k, id) in left {
        match avail.get_mut(k.as_str()) {
            Some(c) if *c > 0 => *c -= 1,
            _ => out.push((k.clone(), *id)),
        }
    }
    out
}

/// Indexed path segment (`tag[i]`) of element `child` under `parent`,
/// counting same-tag element siblings in document order (1-based) — the
/// same convention the publish trace records.
fn indexed_segment(doc: &Document, parent: NodeId, child: NodeId) -> String {
    let tag = doc.name(child).unwrap_or("?");
    let mut n = 0;
    for &c in doc.children(parent) {
        if doc.is_element_named(c, tag) {
            n += 1;
        }
        if c == child {
            break;
        }
    }
    format!("{tag}[{n}]")
}

/// Joins a raw diff with the publish trace: which schema-tree node of the
/// composed view is responsible, under which bindings.
fn attribute(raw: RawDivergence, composed: &SchemaTree, trace: &PublishTrace) -> Divergence {
    let display_path = if raw.path.is_empty() {
        "/".to_owned()
    } else {
        raw.path.clone()
    };
    let entry = trace
        .lookup(&raw.path)
        .or_else(|| trace.deepest_ancestor(&raw.path));
    let mut view_node = None;
    let mut tag_query = None;
    let mut param_env = Vec::new();
    if let Some(entry) = entry {
        let mut responsible = entry.view;
        // For a missing subtree the trace names the emitted parent; the
        // responsible node is the parent's child that carries the tag.
        if raw.kind == DivergenceKind::Missing {
            if let Some(tag) = &raw.missing_tag {
                if let Some(&child) = composed
                    .children(entry.view)
                    .iter()
                    .find(|&&c| composed.node(c).map(|n| n.tag == *tag).unwrap_or(false))
                {
                    responsible = child;
                }
            }
        }
        view_node = Some(responsible);
        tag_query = composed
            .node(responsible)
            .and_then(|n| n.query.as_ref())
            .map(xvc_rel::SelectQuery::to_sql_inline);
        let mut vars: Vec<_> = entry.env.iter().collect();
        vars.sort_by(|a, b| a.0.cmp(b.0));
        for (var, tuple) in vars {
            let cols: Vec<String> = tuple
                .columns
                .iter()
                .zip(&tuple.values)
                .map(|(c, v)| format!("{c}={}", v.render()))
                .collect();
            param_env.push((var.clone(), format!("{{{}}}", cols.join(", "))));
        }
    }
    Divergence {
        path: display_path,
        kind: raw.kind,
        expected: raw.expected,
        actual: raw.actual,
        view_node,
        tag_query,
        param_env,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_fixtures::{figure1_view, figure2_catalog, sample_database};
    use crate::Composer;

    fn compose(
        view: &SchemaTree,
        stylesheet: &Stylesheet,
        catalog: &xvc_rel::Catalog,
    ) -> Result<SchemaTree> {
        Composer::new(view, stylesheet, catalog)
            .run()
            .map(|c| c.view)
    }
    use xvc_rel::{parse_query, BinOp, ScalarExpr, SelectQuery, TableRef, Value};
    use xvc_view::ViewNode;
    use xvc_xslt::parse::FIGURE4_XSLT;
    use xvc_xslt::parse_stylesheet;

    /// metro → hotel, with the paper's `starrating > 4` filter — small
    /// enough that the mutation tests below can predict exact paths.
    fn tiny_view() -> SchemaTree {
        let mut v = SchemaTree::new();
        let q = |sql: &str| parse_query(sql).expect("static SQL is well-formed");
        let metro = v
            .add_root_node(ViewNode::new(
                1,
                "metro",
                "m",
                q("SELECT metroid, metroname FROM metroarea"),
            ))
            .unwrap();
        v.add_child(
            metro,
            ViewNode::new(
                2,
                "hotel",
                "h",
                q("SELECT * FROM hotel WHERE metro_id = $m.metroid AND starrating > 4"),
            ),
        )
        .unwrap();
        v
    }

    const TINY_XSLT: &str = r#"<xsl:stylesheet>
        <xsl:template match="/">
          <result><xsl:apply-templates select="metro"/></result>
        </xsl:template>
        <xsl:template match="metro">
          <result_metro><xsl:apply-templates select="hotel"/></result_metro>
        </xsl:template>
        <xsl:template match="hotel">
          <result_hotel></result_hotel>
        </xsl:template>
      </xsl:stylesheet>"#;

    /// Rewrites every WHERE conjunct of `q` (descending into derived
    /// tables and EXISTS subqueries) through `f`: `None` drops the
    /// conjunct, `Some(e)` replaces it. Returns how many leaves `f`
    /// touched (i.e. did not return unchanged).
    fn rewrite_conjuncts(
        q: &mut SelectQuery,
        f: &impl Fn(&ScalarExpr) -> Option<Option<ScalarExpr>>,
    ) -> usize {
        let mut touched = 0;
        for t in &mut q.from {
            if let TableRef::Derived { query, .. } = t {
                touched += rewrite_conjuncts(query, f);
            }
        }
        if let Some(w) = q.where_clause.take() {
            let mut kept = Vec::new();
            for mut leaf in w.into_conjuncts() {
                match f(&leaf) {
                    Some(Some(replacement)) => {
                        kept.push(replacement);
                        touched += 1;
                    }
                    Some(None) => touched += 1,
                    None => {
                        if let ScalarExpr::Exists(sub) = &mut leaf {
                            touched += rewrite_conjuncts(sub, f);
                        }
                        kept.push(leaf);
                    }
                }
            }
            q.where_clause = ScalarExpr::conjoin(kept);
        }
        touched
    }

    /// Matches the conjunct `starrating > <n>` wherever UNBIND left it
    /// (possibly qualifier-prefixed).
    fn star_gt(e: &ScalarExpr, n: i64) -> bool {
        matches!(e, ScalarExpr::Binary { op: BinOp::Gt, lhs, rhs }
            if matches!(&**lhs, ScalarExpr::Column { name, .. } if name == "starrating")
            && matches!(&**rhs, ScalarExpr::Literal(Value::Int(v)) if *v == n))
    }

    /// Applies `f` to every composed tag query; returns touched-leaf count.
    fn mutate_composed(
        composed: &mut SchemaTree,
        f: &impl Fn(&ScalarExpr) -> Option<Option<ScalarExpr>>,
    ) -> usize {
        let mut touched = 0;
        for vid in composed.node_ids() {
            if let Some(q) = composed.node_mut(vid).and_then(|n| n.query.as_mut()) {
                touched += rewrite_conjuncts(q, f);
            }
        }
        touched
    }

    #[test]
    fn faithful_composition_has_no_divergence() {
        let view = figure1_view();
        let stylesheet = parse_stylesheet(FIGURE4_XSLT).unwrap();
        let composed = compose(&view, &stylesheet, &figure2_catalog()).unwrap();
        let db = sample_database();
        let report = check_composition(&view, &stylesheet, &composed, &db).unwrap();
        assert!(report.is_none(), "{}", report.unwrap());
    }

    #[test]
    fn dropped_where_conjunct_pinpoints_unexpected_subtree() {
        let view = tiny_view();
        let stylesheet = parse_stylesheet(TINY_XSLT).unwrap();
        let mut composed = compose(&view, &stylesheet, &figure2_catalog()).unwrap();
        let db = sample_database();
        assert!(check_composition(&view, &stylesheet, &composed, &db)
            .unwrap()
            .is_none());

        // Inject the bug: drop `starrating > 4`, letting the 4-star drake
        // (chicago) leak into the composed output.
        let touched = mutate_composed(&mut composed, &|e| star_gt(e, 4).then_some(None));
        assert!(touched > 0, "mutation found no starrating conjunct");

        let d = check_composition(&view, &stylesheet, &composed, &db)
            .unwrap()
            .expect("mutated composition must diverge");
        // chicago (metro 1) has 2 qualifying hotels; the leaked drake is
        // the third result_hotel the composed side publishes there.
        assert_eq!(d.path, "/result[1]/result_metro[1]/result_hotel[3]");
        assert_eq!(d.kind, DivergenceKind::Unexpected);
        assert!(d.expected.is_none());
        assert!(d.actual.is_some());
        assert!(d.view_node.is_some());
        let sql = d.tag_query.as_deref().expect("tag query attributed");
        assert!(sql.contains("hotel"), "{sql}");
        assert!(
            !sql.contains("starrating"),
            "conjunct should be gone: {sql}"
        );
        assert!(
            d.param_env
                .iter()
                .any(|(_, tuple)| tuple.contains("chicago")),
            "bindings should name the chicago context: {:?}",
            d.param_env
        );
        let rendered = d.to_string();
        assert!(rendered.contains("composition divergence at"), "{rendered}");
    }

    #[test]
    fn strengthened_conjunct_reports_missing_subtree() {
        let view = tiny_view();
        let stylesheet = parse_stylesheet(TINY_XSLT).unwrap();
        let mut composed = compose(&view, &stylesheet, &figure2_catalog()).unwrap();
        let db = sample_database();

        // `starrating > 9` admits no hotel at all: every result_hotel the
        // naive pipeline emits goes missing from the composed side.
        let touched = mutate_composed(&mut composed, &|e| {
            star_gt(e, 4).then(|| {
                Some(ScalarExpr::Binary {
                    op: BinOp::Gt,
                    lhs: Box::new(ScalarExpr::Column {
                        qualifier: None,
                        name: "starrating".into(),
                    }),
                    rhs: Box::new(ScalarExpr::Literal(Value::Int(9))),
                })
            })
        });
        assert!(touched > 0, "mutation found no starrating conjunct");

        let d = check_composition(&view, &stylesheet, &composed, &db)
            .unwrap()
            .expect("mutated composition must diverge");
        assert_eq!(d.kind, DivergenceKind::Missing);
        assert_eq!(d.path, "/result[1]/result_metro[1]");
        assert!(d.expected.is_some());
        assert!(d.actual.is_none());
        // Attribution walks from the traced parent down to the child node
        // that should have produced the missing tag.
        let sql = d.tag_query.as_deref().expect("tag query attributed");
        assert!(sql.contains("starrating > 9"), "{sql}");
    }
}
