//! Pass 6: cardinality analysis (the `XVC5xx` codes) plus the `XVC120`
//! index-usability advisory.
//!
//! Reports the [`xvc_rel::facts::query_cardinality`] abstract domain
//! (`0 / <=1 / <=k / unbounded` row bounds from `PRIMARY KEY`
//! constraints and equality pushdowns). Whole-document bounds come from
//! the one walk that lifts them over a tree,
//! [`xvc_view::analyze_view_bounds`], run over the composed view that is
//! actually published:
//!
//! * **XVC501** — a tag query bounded to 0 rows (co-reported with
//!   XVC401: the dead-subtree proof of the shared TVQ analysis, restated
//!   in cardinality terms);
//! * **XVC502** — a FROM item with no equality link to the rest of the
//!   query: the cross product makes the per-parent fan-out unbounded;
//! * **XVC503** — on recursive (cyclic-CTG) workloads, a view node on
//!   the cycle whose tag query is not provably single-row, so the §5.3
//!   recursive expansion has no finite growth bound;
//! * **XVC504** — a rebind guard whose `EXISTS` probe is not provably
//!   single-row (the guard re-checks per instance; a key-pinned probe
//!   would be a point lookup);
//! * **XVC505** — when the composed view's document bound is *finite*, a
//!   report stating it, with one fan-out line per composed view node as
//!   the justification chain.
//!
//! Every finding carries its justifying fact chain
//! ([`crate::diag::Diagnostic::justification`]). The bounds are a report:
//! no plan reads them, and `xvc explain` prints the same ones.

use std::collections::BTreeSet;

use xvc_core::unbind::UnboundQuery;
use xvc_rel::facts::{bound_query, query_cardinality, FactSet};
use xvc_rel::{Card, Catalog, ScalarExpr, SelectQuery, TableRef};
use xvc_view::{analyze_view_bounds, SchemaTree};
use xvc_xslt::Stylesheet;

use crate::dataflow::{fact_chain, node_label};
use crate::diag::{Code, Diagnostic, Stage};
use crate::ComposedWorkload;

/// Runs the cardinality pass over `composed`, the composition of `view`
/// with the (lowered) stylesheet.
pub fn check_cardinality(
    view: &SchemaTree,
    composed: &ComposedWorkload,
    catalog: &Catalog,
) -> Vec<Diagnostic> {
    let tvq = &composed.tvq;
    let mut out = Vec::new();
    for (idx, verdict) in composed.analysis.verdicts.iter().enumerate() {
        let node = &tvq.nodes[idx];
        let label = node_label(view, tvq, idx);

        // XVC501: a 0-row bound. Only dead subtree *roots* carry it
        // (descendants keep the default verdict), so one diagnostic per
        // pruned region, matching XVC401.
        if verdict.dead {
            out.push(
                Diagnostic::new(
                    Code::Xvc501,
                    Stage::Composed,
                    format!(
                        "{label}: cardinality analysis bounds the tag query to 0 rows — \
                         no instance of this node can ever be published"
                    ),
                )
                .with_help(fact_chain(&verdict.chain))
                .with_justification(verdict.chain.clone()),
            );
            continue;
        }

        match &node.binding {
            // XVC502: unbounded fan-out explained by a cross product. The
            // pins and links come from the query's own conjuncts, never
            // from inherited parameter facts, so the empty environment
            // is exact here.
            UnboundQuery::Query(q) => {
                let qc = query_cardinality(q, catalog, &FactSet::new());
                if qc.total.card == Card::Unbounded && !qc.cross_joins.is_empty() {
                    // The unbounded bound carries no fact chain (it is
                    // the lattice top); justify with the structural
                    // witnesses instead.
                    let just = qc
                        .cross_joins
                        .iter()
                        .map(|n| {
                            format!(
                                "FROM item `{n}` is pinned by no predicate and \
                                 equality-linked to no other FROM item"
                            )
                        })
                        .collect();
                    out.push(
                        Diagnostic::new(
                            Code::Xvc502,
                            Stage::Composed,
                            format!(
                                "{label}: FROM item(s) {} have no equality link to the \
                                 rest of the query — the cross product makes the \
                                 per-parent fan-out unbounded",
                                name_list(&qc.cross_joins)
                            ),
                        )
                        .with_help(
                            "link the item to the rest of the query by an equality, or pin \
                             its full PRIMARY KEY, so its rows stop pairing with every row \
                             of the other FROM items",
                        )
                        .with_justification(just),
                    );
                }
            }
            UnboundQuery::Rebind { guard: Some(g), .. } => {
                // XVC504: every EXISTS probe inside the guard should be a
                // point lookup; re-checking an unbounded probe per
                // instance is the guard-side analogue of a table scan.
                for sub in g.subqueries() {
                    let b = bound_query(sub, catalog, &FactSet::new());
                    if !b.card.at_most_one() {
                        out.push(
                            Diagnostic::new(
                                Code::Xvc504,
                                Stage::Composed,
                                format!(
                                    "{label}: the rebind guard's EXISTS probe is not provably \
                                     single-row (bound: {})",
                                    b.card
                                ),
                            )
                            .with_help(
                                "equate the probed table's full primary key so the guard \
                                 becomes a point lookup (a secondary index speeds the probe \
                                 but cannot prove it single-row)",
                            )
                            .with_justification(b.chain),
                        );
                    }
                }
            }
            _ => {}
        }
    }

    // XVC505: the whole-document growth bound of the composed view,
    // reported only when finite (an unbounded bound is the common case
    // and would be pure noise).
    let bounds = analyze_view_bounds(&composed.view, catalog);
    if let Some(limit) = bounds.document.as_limit() {
        let just: Vec<String> = composed
            .view
            .node_ids()
            .into_iter()
            .filter_map(|vid| {
                let (vn, nb) = (composed.view.node(vid)?, bounds.node(vid)?);
                Some(format!(
                    "view node {} <{}>: fan-out {}, per-document {}",
                    vn.id, vn.tag, nb.fan_out, nb.global
                ))
            })
            .collect();
        out.push(
            Diagnostic::new(
                Code::Xvc505,
                Stage::General,
                format!(
                    "cardinality report: the published document is statically bounded to \
                     at most {limit} element(s); largest set-oriented batch bound: {}",
                    bounds.max_batch
                ),
            )
            .with_help(
                "bounds are sound over-approximations from PRIMARY KEY constraints and \
                 equality pushdowns, lifted over the composed view; they are a report that \
                 no plan reads (`xvc explain` prints each node's `bounds:` line)",
            )
            .with_justification(just),
        );
    }
    out
}

/// Runs the recursion-growth check on *cyclic* workloads, where no TVQ
/// exists: every distinct view node on a CTG cycle whose tag query is not
/// provably single-row lets the §5.3 recursive expansion grow without a
/// static bound (XVC503).
pub fn check_recursion_growth(
    view: &SchemaTree,
    stylesheet: &Stylesheet,
    catalog: &Catalog,
) -> Vec<Diagnostic> {
    let Ok(ctg) = xvc_core::build_ctg(view, stylesheet) else {
        return Vec::new();
    };
    if ctg.has_cycle().is_none() {
        return Vec::new();
    }
    let n = ctg.nodes.len();
    let mut succ = vec![Vec::new(); n];
    for e in &ctg.edges {
        succ[e.from].push(e.to);
    }

    let bounds = analyze_view_bounds(view, catalog);
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    for (i, cn) in ctg.nodes.iter().enumerate() {
        if !reaches_self(&succ, i) || view.is_root(cn.view) || !seen.insert(cn.view) {
            continue;
        }
        let Some(nb) = bounds.node(cn.view) else {
            continue;
        };
        if nb.fan_out.card.at_most_one() {
            continue;
        }
        let Some(vn) = view.node(cn.view) else {
            continue;
        };
        out.push(
            Diagnostic::new(
                Code::Xvc503,
                Stage::View,
                format!(
                    "view node {} <{}> lies on a CTG cycle and its tag query is not \
                     provably single-row (bound: {}) — the recursive expansion has no \
                     finite growth bound",
                    vn.id, vn.tag, nb.fan_out.card
                ),
            )
            .with_span(vn.query_span.get())
            .with_help(
                "compose_recursive (§5.3) re-expands this node per published instance; a \
                 key-pinned (single-row) tag query would bound each recursion step",
            )
            .with_justification(nb.fan_out.chain.clone()),
        );
    }
    out
}

/// Warns (XVC120) about declared secondary indexes no tag query can ever
/// use: an index is an access path only when some query applies an
/// equality to its column (`col = $param`, `col = literal`, or a join
/// `col = other.col` — see `plan::prepare`'s access-path selection).
pub fn check_index_usage(view: &SchemaTree, catalog: &Catalog) -> Vec<Diagnostic> {
    let mut used: BTreeSet<(String, String)> = BTreeSet::new();
    for vid in view.node_ids() {
        if let Some(q) = view.node(vid).and_then(|n| n.query.as_ref()) {
            collect_equality_columns(q, &[], catalog, &mut used);
        }
    }
    let mut out = Vec::new();
    for table in catalog.iter() {
        for idx in &table.indexes {
            if !used.contains(&(table.name.clone(), idx.column.clone())) {
                out.push(
                    Diagnostic::new(
                        Code::Xvc120,
                        Stage::View,
                        format!(
                            "index on {}.{} is never usable: no tag query applies an \
                             equality to that column",
                            table.name, idx.column
                        ),
                    )
                    .with_help(
                        "only equality conjuncts become index access paths; drop the index \
                         or push a selective equality onto the column",
                    ),
                );
            }
        }
    }
    out
}

/// Renders a list of FROM-binding names for a message.
fn name_list(names: &[String]) -> String {
    names
        .iter()
        .map(|n| format!("`{n}`"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// True when CTG node `start` can reach itself through at least one edge.
fn reaches_self(succ: &[Vec<usize>], start: usize) -> bool {
    let mut stack: Vec<usize> = succ[start].clone();
    let mut visited = vec![false; succ.len()];
    while let Some(i) = stack.pop() {
        if i == start {
            return true;
        }
        if !visited[i] {
            visited[i] = true;
            stack.extend(succ[i].iter().copied());
        }
    }
    false
}

/// Records every `(table, column)` pair some equality conjunct of `q` (or
/// of a nested subquery) touches. `outer` carries enclosing FROM scopes so
/// correlated `EXISTS` probes resolve their outer references; unresolvable
/// or ambiguous columns mark *all* candidate tables (conservative: the
/// check must never claim an index unusable when it might be used).
fn collect_equality_columns(
    q: &SelectQuery,
    outer: &[(String, String)],
    catalog: &Catalog,
    used: &mut BTreeSet<(String, String)>,
) {
    let mut scope: Vec<(String, String)> = outer.to_vec();
    for t in &q.from {
        match t {
            TableRef::Named { name, alias } => {
                scope.push((alias.clone().unwrap_or_else(|| name.clone()), name.clone()));
            }
            TableRef::Derived { query, .. } => {
                collect_equality_columns(query, outer, catalog, used);
            }
        }
    }
    let mark = |qualifier: &Option<String>, col: &str, used: &mut BTreeSet<(String, String)>| {
        match qualifier {
            Some(b) => {
                if let Some((_, table)) = scope.iter().find(|(bind, _)| bind == b) {
                    used.insert((table.clone(), col.to_owned()));
                }
            }
            None => {
                for (_, table) in &scope {
                    let owns = catalog
                        .get(table)
                        .is_ok_and(|s| s.column_index(col).is_some());
                    if owns {
                        used.insert((table.clone(), col.to_owned()));
                    }
                }
            }
        }
    };
    for e in q.where_clause.iter().chain(&q.having) {
        e.walk(&mut |node| match node {
            ScalarExpr::Binary {
                op: xvc_rel::BinOp::Eq,
                lhs,
                rhs,
            } => {
                for side in [lhs, rhs] {
                    if let ScalarExpr::Column { qualifier, name } = &**side {
                        mark(qualifier, name, used);
                    }
                }
            }
            ScalarExpr::Exists(sub) => collect_equality_columns(sub, &scope, catalog, used),
            _ => {}
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xvc_core::paper_fixtures::{figure1_view, figure2_catalog};
    use xvc_core::tvq::DEFAULT_TVQ_LIMIT;
    use xvc_xslt::parse::FIGURE4_XSLT;
    use xvc_xslt::parse_stylesheet;

    fn check(v: &SchemaTree, x: &Stylesheet) -> Vec<Diagnostic> {
        let cat = figure2_catalog();
        let c = ComposedWorkload::new(v, x, None, &cat, DEFAULT_TVQ_LIMIT).unwrap();
        check_cardinality(v, &c, &cat)
    }

    #[test]
    fn clean_workload_reports_nothing() {
        let v = figure1_view();
        let x = parse_stylesheet(FIGURE4_XSLT).unwrap();
        let ds = check(&v, &x);
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn cross_product_join_fires_502() {
        let v = xvc_view::parse_view(
            "node pair $p { query: SELECT m.metroid, h.hotelid FROM metroarea m, hotel h; }",
        )
        .unwrap();
        let x = parse_stylesheet(
            r#"<xsl:stylesheet>
                 <xsl:template match="/"><r><xsl:apply-templates select="pair"/></r></xsl:template>
                 <xsl:template match="pair"><p/></xsl:template>
               </xsl:stylesheet>"#,
        )
        .unwrap();
        let ds = check(&v, &x);
        let d = ds.iter().find(|d| d.code == Code::Xvc502).unwrap();
        assert!(d.message.contains("`h`"), "{}", d.message);
        assert!(!d.justification.is_empty(), "{d:?}");
    }

    #[test]
    fn dead_node_fires_501_with_zero_bound() {
        let v = figure1_view();
        let x = parse_stylesheet(
            r#"<xsl:stylesheet>
                 <xsl:template match="/"><out><xsl:apply-templates select="metro"/></out></xsl:template>
                 <xsl:template match="metro">
                   <m><xsl:apply-templates select="hotel[@starrating &lt; 3]"/></m>
                 </xsl:template>
                 <xsl:template match="hotel"><h/></xsl:template>
               </xsl:stylesheet>"#,
        )
        .unwrap();
        let ds = check(&v, &x);
        let d = ds.iter().find(|d| d.code == Code::Xvc501).unwrap();
        assert!(d.message.contains("0 rows"), "{}", d.message);
        assert!(!d.justification.is_empty(), "{d:?}");
    }

    #[test]
    fn finite_document_bound_fires_505() {
        // The root tag query pins metroarea's full primary key to a
        // literal, so the whole document is statically bounded.
        let v = xvc_view::parse_view(
            "node metro $m { query: SELECT metroid, metroname FROM metroarea WHERE metroid = 1; }",
        )
        .unwrap();
        let x = parse_stylesheet(
            r#"<xsl:stylesheet>
                 <xsl:template match="/"><r><xsl:apply-templates select="metro"/></r></xsl:template>
                 <xsl:template match="metro"><m/></xsl:template>
               </xsl:stylesheet>"#,
        )
        .unwrap();
        let ds = check(&v, &x);
        let d = ds.iter().find(|d| d.code == Code::Xvc505).unwrap();
        assert!(d.message.contains("at most"), "{}", d.message);
        assert!(
            d.justification.iter().any(|j| j.contains("fan-out")),
            "{d:?}"
        );
    }

    #[test]
    fn recursion_over_multi_row_node_fires_503() {
        let v = figure1_view();
        let x = parse_stylesheet(
            r#"<xsl:stylesheet>
                 <xsl:template match="/"><xsl:apply-templates select="metro/hotel"/></xsl:template>
                 <xsl:template match="hotel"><h><xsl:apply-templates select="confstat"/></h></xsl:template>
                 <xsl:template match="confstat"><c><xsl:apply-templates select=".."/></c></xsl:template>
               </xsl:stylesheet>"#,
        )
        .unwrap();
        let ds = check_recursion_growth(&v, &x, &figure2_catalog());
        let d = ds.iter().find(|d| d.code == Code::Xvc503).unwrap();
        assert!(d.message.contains("CTG cycle"), "{}", d.message);
    }

    #[test]
    fn unused_index_fires_120_and_used_index_does_not() {
        let mut cat = figure2_catalog();
        let mut hotel = cat.get("hotel").unwrap().clone();
        hotel.indexes.push(xvc_rel::IndexDef {
            column: "metro_id".to_owned(),
        });
        hotel.indexes.push(xvc_rel::IndexDef {
            column: "starrating".to_owned(),
        });
        cat.add(hotel);
        // figure1_view's hotel tag query pushes `metro_id = $m.metroid`;
        // starrating only appears in an inequality (`starrating > 4`).
        let ds = check_index_usage(&figure1_view(), &cat);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, Code::Xvc120);
        assert!(ds[0].message.contains("starrating"), "{}", ds[0].message);
    }
}
