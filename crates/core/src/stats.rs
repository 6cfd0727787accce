//! Per-stage composition statistics.
//!
//! [`ComposeStats`] quantifies what each stage of Figure 9 produced: how
//! many (view-node, rule) pairs the CTG holds, how much the TVQ unrolling
//! duplicated shared CTG nodes (the §4.5 exponential case — the
//! `duplication_factor` is exactly the blowup the `tvq_limit` budget
//! guards), how deeply `UNBIND` nested derived tables into the composed
//! tag queries, and how much literal OTT fragment material the stylesheet
//! view carries.

use xvc_rel::{ScalarExpr, SelectQuery, TableRef};
use xvc_view::SchemaTree;
use xvc_xslt::Stylesheet;

use crate::ctg::Ctg;
use crate::tvq::Tvq;

/// Size counters for one composition run, one group per pipeline stage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ComposeStats {
    /// Nodes in the input schema-tree view.
    pub view_nodes: usize,
    /// Template rules in the (lowered) stylesheet.
    pub stylesheet_rules: usize,
    /// CTG nodes: reachable (view-node, rule) pairs.
    pub ctg_nodes: usize,
    /// CTG edges: possible context transitions.
    pub ctg_edges: usize,
    /// TVQ nodes after unrolling the CTG into a tree (post-prune when
    /// [`crate::ComposeOptions::prune`] is on).
    pub tvq_nodes: usize,
    /// TVQ nodes the predicate-dataflow pass removed as provably dead
    /// (0 unless [`crate::ComposeOptions::prune`] is on).
    pub tvq_nodes_pruned: usize,
    /// Provably redundant conjuncts dropped from surviving tag queries by
    /// the same pass.
    pub conjuncts_eliminated: usize,
    /// `tvq_nodes / ctg_nodes` — how much unrolling duplicated shared CTG
    /// nodes (§4.5; 1.0 means the CTG was already a tree).
    pub duplication_factor: f64,
    /// Nodes in the composed stylesheet view.
    pub composed_nodes: usize,
    /// Composed nodes carrying a tag query.
    pub composed_queries: usize,
    /// Composed nodes with neither query nor context copy: literal output
    /// from the rules' OTT fragments.
    pub ott_literal_nodes: usize,
    /// Maximum derived-table nesting across all composed tag queries —
    /// the depth `UNBIND` reached substituting binding variables.
    pub max_unbind_depth: usize,
}

impl ComposeStats {
    /// Gathers counters from the artifacts of one composition run.
    pub fn collect(
        view: &SchemaTree,
        stylesheet: &Stylesheet,
        ctg: &Ctg,
        tvq: &Tvq,
        composed: &SchemaTree,
    ) -> Self {
        let mut composed_queries = 0;
        let mut ott_literal_nodes = 0;
        let mut max_unbind_depth = 0;
        for vid in composed.node_ids() {
            let Some(node) = composed.node(vid) else {
                continue;
            };
            match &node.query {
                Some(q) => {
                    composed_queries += 1;
                    max_unbind_depth = max_unbind_depth.max(query_nesting_depth(q));
                }
                None if node.context_tuple_of.is_none() => ott_literal_nodes += 1,
                None => {}
            }
        }
        ComposeStats {
            view_nodes: view.len(),
            stylesheet_rules: stylesheet.len(),
            ctg_nodes: ctg.nodes.len(),
            ctg_edges: ctg.edges.len(),
            tvq_nodes: tvq.nodes.len(),
            tvq_nodes_pruned: 0,
            conjuncts_eliminated: 0,
            duplication_factor: if ctg.nodes.is_empty() {
                1.0
            } else {
                tvq.nodes.len() as f64 / ctg.nodes.len() as f64
            },
            composed_nodes: composed.len(),
            composed_queries,
            ott_literal_nodes,
            max_unbind_depth,
        }
    }
}

impl std::fmt::Display for ComposeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "input:    {} view nodes, {} template rules",
            self.view_nodes, self.stylesheet_rules
        )?;
        writeln!(
            f,
            "CTG:      {} nodes, {} edges",
            self.ctg_nodes, self.ctg_edges
        )?;
        writeln!(
            f,
            "TVQ:      {} nodes (duplication factor {:.2})",
            self.tvq_nodes, self.duplication_factor
        )?;
        if self.tvq_nodes_pruned > 0 || self.conjuncts_eliminated > 0 {
            writeln!(
                f,
                "pruned:   {} dead TVQ nodes removed, {} redundant conjuncts dropped",
                self.tvq_nodes_pruned, self.conjuncts_eliminated
            )?;
        }
        write!(
            f,
            "composed: {} nodes ({} tag queries, {} OTT literals, max unbind depth {})",
            self.composed_nodes,
            self.composed_queries,
            self.ott_literal_nodes,
            self.max_unbind_depth
        )
    }
}

/// Maximum derived-table nesting depth of a query: 0 for base tables only;
/// each derived-table level (in FROM, or inside EXISTS subqueries) adds 1.
pub fn query_nesting_depth(q: &SelectQuery) -> usize {
    let derived = q.from.iter().filter_map(|t| match t {
        TableRef::Derived { query, .. } => Some(&**query),
        TableRef::Named { .. } => None,
    });
    let exists = q
        .where_clause
        .iter()
        .chain(&q.having)
        .chain(&q.group_by)
        .flat_map(ScalarExpr::subqueries);
    derived
        .chain(exists)
        .map(|sub| 1 + query_nesting_depth(sub))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xvc_rel::parse_query;

    #[test]
    fn nesting_depth_counts_derived_levels() {
        let q = parse_query("SELECT * FROM hotel").unwrap();
        assert_eq!(query_nesting_depth(&q), 0);
        let q =
            parse_query("SELECT * FROM (SELECT * FROM (SELECT * FROM hotel) AS A) AS B").unwrap();
        assert_eq!(query_nesting_depth(&q), 2);
        let q = parse_query(
            "SELECT * FROM hotel WHERE EXISTS (SELECT * FROM (SELECT * FROM confroom) AS T)",
        )
        .unwrap();
        assert_eq!(query_nesting_depth(&q), 2);
    }

    #[test]
    fn collect_reports_every_pipeline_stage() {
        use crate::paper_fixtures::{figure1_view, figure2_catalog};
        let view = figure1_view();
        let stylesheet = xvc_xslt::parse_stylesheet(xvc_xslt::parse::FIGURE4_XSLT).unwrap();
        let composition = crate::Composer::new(&view, &stylesheet, &figure2_catalog())
            .run()
            .unwrap();
        let (composed, stats) = (composition.view, composition.stats);

        assert_eq!(stats.view_nodes, view.len());
        assert_eq!(stats.stylesheet_rules, stylesheet.len());
        assert!(stats.ctg_nodes > 0 && stats.ctg_edges > 0);
        // Unrolling never shrinks the CTG, so the factor is at least 1.
        assert!(stats.tvq_nodes >= stats.ctg_nodes);
        assert!(stats.duplication_factor >= 1.0);
        assert_eq!(stats.composed_nodes, composed.len());
        // Figure 7(c): parameterized tag queries on result_metro,
        // result_confstat and confroom, plus the literal HTML skeleton.
        assert!(stats.composed_queries >= 3, "{stats}");
        assert!(stats.ott_literal_nodes >= 2, "{stats}");
        // UNBIND nests at least one derived-table level (Figure 12).
        assert!(stats.max_unbind_depth >= 1, "{stats}");
    }
}
