//! Dead-branch pruning over the TVQ (§4.2.1).
//!
//! A predicate-dataflow pass walks the TVQ top-down, carrying the
//! `$bv.column` facts established by every ancestor's tag query (seeded
//! from the DDL constraints [`xvc_rel::facts`] retains). A node whose tag
//! query is provably empty under those facts can never produce an element,
//! so its whole subtree is dead: [`prune_tvq`] removes it *before*
//! [`crate::stylesheet_view::build_stylesheet_view`] runs, shrinking both
//! the TVQ and the composed view. Surviving queries additionally have
//! their provably redundant conjuncts dropped.
//!
//! Every decision is justified by a recorded fact chain
//! ([`NodeVerdict::chain`]), which `xvc check` surfaces as `XVC4xx`
//! diagnostics (and `XVC501` restates in cardinality terms) and which the
//! equivalence property tests keep honest: pruning must preserve
//! `v'(I) = x(v(I))`.
//!
//! The walk keeps only what pruning reads: liveness, its fact chain and
//! each query's conjunct analysis. It lifts no row-count bound; that is
//! `xvc_view::analyze_view_bounds`' job, over the composed view that is
//! actually published.

use xvc_rel::facts::{analyze_query, child_facts, drop_redundant_conjuncts, QueryAnalysis};
use xvc_rel::{Catalog, FactSet, SelectQuery};

use crate::tvq::Tvq;
use crate::unbind::UnboundQuery;

/// The dataflow verdict for one TVQ node.
#[derive(Debug, Clone, Default)]
pub struct NodeVerdict {
    /// The node's tag query (or rebind guard) is provably empty: no
    /// instance of this node — or its subtree — can ever be produced.
    pub dead: bool,
    /// Fact chain justifying `dead`, oldest fact first.
    pub chain: Vec<String>,
    /// The conjunct-level analysis of the node's tag query (or of its
    /// rebind guard, wrapped in a probe query). `None` for literal
    /// bindings and guardless rebinds.
    pub analysis: Option<QueryAnalysis>,
}

/// Result of [`analyze_tvq`]: one verdict per TVQ node, same indexing.
/// Descendants of a dead node keep the default (live, unanalyzed)
/// verdict: the walk never reaches them, and pruning removes them with
/// their dead ancestor.
#[derive(Debug, Clone, Default)]
pub struct TvqAnalysis {
    /// Per-node verdicts, indexed like [`Tvq::nodes`].
    pub verdicts: Vec<NodeVerdict>,
}

impl TvqAnalysis {
    /// Indices of nodes whose own verdict is dead (subtree roots of the
    /// pruned regions; their descendants are not re-flagged).
    pub fn dead_nodes(&self) -> Vec<usize> {
        self.verdicts
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.dead.then_some(i))
            .collect()
    }
}

/// What [`prune_tvq`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// TVQ nodes removed (dead subtree roots plus their descendants).
    pub nodes_removed: usize,
    /// Provably redundant conjuncts dropped from surviving tag queries.
    pub conjuncts_eliminated: usize,
}

/// Runs the predicate-dataflow pass over the TVQ without mutating it.
pub fn analyze_tvq(tvq: &Tvq, catalog: &Catalog) -> TvqAnalysis {
    let mut verdicts = vec![NodeVerdict::default(); tvq.nodes.len()];
    let env = FactSet::new();
    for &r in &tvq.roots {
        visit(tvq, catalog, r, &env, &mut verdicts);
    }
    TvqAnalysis { verdicts }
}

fn visit(tvq: &Tvq, catalog: &Catalog, idx: usize, env: &FactSet, verdicts: &mut [NodeVerdict]) {
    let node = &tvq.nodes[idx];
    let mut child_env: Option<FactSet> = None;
    match &node.binding {
        UnboundQuery::Query(q) => {
            let a = analyze_query(q, catalog, env);
            if a.empty {
                verdicts[idx] = NodeVerdict {
                    dead: true,
                    chain: a.empty_chain.clone(),
                    analysis: Some(a),
                };
                return; // the whole subtree is dead; no need to descend
            }
            child_env = child_facts(Some((q, &a)), &node.bv, None);
            verdicts[idx].analysis = Some(a);
        }
        UnboundQuery::Rebind { guard, .. } => {
            // The node reuses the tuple bound to `source` (== `node.bv`),
            // whose facts are already in `env` under `$source.*`.
            if let Some(g) = guard {
                let a = analyze_query(&SelectQuery::guard_probe(g), catalog, env);
                if a.empty {
                    verdicts[idx] = NodeVerdict {
                        dead: true,
                        chain: a.empty_chain.clone(),
                        analysis: Some(a),
                    };
                    return;
                }
                // A guard that held narrows the reused tuple's facts for
                // everything below this node.
                child_env = child_facts(None, &node.bv, Some(&a));
                verdicts[idx].analysis = Some(a);
            }
        }
        UnboundQuery::Literal => {}
    }
    let env_ref = child_env.as_ref().unwrap_or(env);
    for &(c, _) in &tvq.nodes[idx].children {
        visit(tvq, catalog, c, env_ref, verdicts);
    }
}

/// Analyzes the TVQ and prunes it in place: dead subtrees are removed
/// (indices remapped) and surviving tag queries lose their provably
/// redundant conjuncts.
pub fn prune_tvq(tvq: &mut Tvq, catalog: &Catalog) -> PruneStats {
    let analysis = analyze_tvq(tvq, catalog);
    apply_prune(tvq, &analysis)
}

/// Applies a previously computed [`TvqAnalysis`] to the TVQ it was
/// computed for. Panics if `analysis` does not match `tvq`'s node count.
pub fn apply_prune(tvq: &mut Tvq, analysis: &TvqAnalysis) -> PruneStats {
    assert_eq!(
        analysis.verdicts.len(),
        tvq.nodes.len(),
        "TvqAnalysis does not match this TVQ"
    );
    let n = tvq.nodes.len();
    // A node goes when its own verdict is dead or any ancestor's is.
    let mut removed = vec![false; n];
    for idx in analysis.dead_nodes() {
        mark_subtree(tvq, idx, &mut removed);
    }
    let nodes_removed = removed.iter().filter(|&&r| r).count();

    let mut conjuncts_eliminated = 0;
    if nodes_removed > 0 {
        let mut remap = vec![usize::MAX; n];
        let mut kept = Vec::with_capacity(n - nodes_removed);
        for (old, node) in tvq.nodes.iter().enumerate() {
            if !removed[old] {
                remap[old] = kept.len();
                kept.push(node.clone());
            }
        }
        for node in &mut kept {
            // A kept node's parent is kept too: removal is subtree-closed.
            node.parent = node.parent.map(|p| remap[p]);
            node.children = node
                .children
                .iter()
                .filter(|(c, _)| !removed[*c])
                .map(|&(c, ati)| (remap[c], ati))
                .collect();
        }
        tvq.roots = tvq
            .roots
            .iter()
            .filter(|&&r| !removed[r])
            .map(|&r| remap[r])
            .collect();
        tvq.nodes = kept;
        // Simplify the survivors using their (pre-remap) analyses.
        for (old, verdict) in analysis.verdicts.iter().enumerate() {
            if removed[old] || verdict.dead {
                continue;
            }
            if let (Some(a), UnboundQuery::Query(q)) =
                (&verdict.analysis, &mut tvq.nodes[remap[old]].binding)
            {
                conjuncts_eliminated += drop_redundant_conjuncts(q, a);
            }
        }
    } else {
        for (idx, verdict) in analysis.verdicts.iter().enumerate() {
            if let (Some(a), UnboundQuery::Query(q)) =
                (&verdict.analysis, &mut tvq.nodes[idx].binding)
            {
                conjuncts_eliminated += drop_redundant_conjuncts(q, a);
            }
        }
    }

    PruneStats {
        nodes_removed,
        conjuncts_eliminated,
    }
}

fn mark_subtree(tvq: &Tvq, idx: usize, removed: &mut [bool]) {
    if removed[idx] {
        return;
    }
    removed[idx] = true;
    for &(c, _) in &tvq.nodes[idx].children {
        mark_subtree(tvq, c, removed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctg::build_ctg;
    use crate::paper_fixtures::{figure1_view, figure2_catalog};
    use crate::tvq::{build_tvq, DEFAULT_TVQ_LIMIT};
    use xvc_rel::{ScalarExpr, SelectItem};
    use xvc_xslt::parse::FIGURE4_XSLT;
    use xvc_xslt::parse_stylesheet;

    fn figure4_tvq() -> (Tvq, Catalog) {
        let v = figure1_view();
        let x = parse_stylesheet(FIGURE4_XSLT).unwrap();
        let ctg = build_ctg(&v, &x).unwrap();
        let catalog = figure2_catalog();
        let tvq = build_tvq(&v, &x, &ctg, &catalog, DEFAULT_TVQ_LIMIT).unwrap();
        (tvq, catalog)
    }

    #[test]
    fn clean_workload_prunes_nothing() {
        let (mut tvq, catalog) = figure4_tvq();
        let before = tvq.clone();
        let analysis = analyze_tvq(&tvq, &catalog);
        assert!(analysis.dead_nodes().is_empty());
        let stats = prune_tvq(&mut tvq, &catalog);
        assert_eq!(stats.nodes_removed, 0);
        // Structure untouched (conjunct drops, if any, only touch queries).
        assert_eq!(before.roots, tvq.roots);
        assert_eq!(before.nodes.len(), tvq.nodes.len());
    }

    #[test]
    fn contradictory_descendant_predicate_kills_subtree() {
        // The view's hotel node filters `starrating > 4` (Figure 1); a tag
        // query below it demanding `starrating < 3` on the same bound
        // tuple can never hold.
        let (mut tvq, catalog) = figure4_tvq();
        // Find a node that binds the hotel query and give one of its
        // children a contradictory guard on the hotel tuple.
        let hotel_idx = tvq
            .nodes
            .iter()
            .position(|n| {
                matches!(&n.binding, UnboundQuery::Query(q)
                    if q.to_sql_inline().contains("starrating"))
            })
            .expect("figure 4 TVQ binds the hotel query");
        let bv = tvq.nodes[hotel_idx].bv.clone();
        let child = TvqNodeBuilder::leaf(&tvq, hotel_idx, &bv, 3);
        let child_idx = tvq.nodes.len();
        tvq.nodes.push(child);
        tvq.nodes[hotel_idx].children.push((child_idx, 0));

        let analysis = analyze_tvq(&tvq, &catalog);
        assert_eq!(analysis.dead_nodes(), vec![child_idx]);
        let chain = &analysis.verdicts[child_idx].chain;
        assert!(
            chain.iter().any(|s| s.contains("starrating")),
            "chain should cite the inherited starrating fact: {chain:?}"
        );

        let before = tvq.nodes.len();
        let stats = prune_tvq(&mut tvq, &catalog);
        assert_eq!(stats.nodes_removed, 1);
        assert_eq!(tvq.nodes.len(), before - 1);
        // Parent's child list no longer mentions the removed node.
        assert!(tvq.nodes[hotel_idx]
            .children
            .iter()
            .all(|&(c, _)| c < tvq.nodes.len()));
    }

    #[test]
    fn dead_node_takes_descendants_with_it() {
        let (mut tvq, catalog) = figure4_tvq();
        let hotel_idx = tvq
            .nodes
            .iter()
            .position(|n| {
                matches!(&n.binding, UnboundQuery::Query(q)
                    if q.to_sql_inline().contains("starrating"))
            })
            .unwrap();
        let bv = tvq.nodes[hotel_idx].bv.clone();
        // Dead child with a live grandchild below it.
        let child = TvqNodeBuilder::leaf(&tvq, hotel_idx, &bv, 3);
        let child_idx = tvq.nodes.len();
        tvq.nodes.push(child);
        tvq.nodes[hotel_idx].children.push((child_idx, 0));
        let mut grandchild = TvqNodeBuilder::leaf(&tvq, child_idx, &bv, 10);
        grandchild.binding = UnboundQuery::Literal;
        let grandchild_idx = tvq.nodes.len();
        tvq.nodes.push(grandchild);
        tvq.nodes[child_idx].children.push((grandchild_idx, 0));

        let before = tvq.nodes.len();
        let stats = prune_tvq(&mut tvq, &catalog);
        assert_eq!(stats.nodes_removed, 2);
        assert_eq!(tvq.nodes.len(), before - 2);
    }

    #[test]
    fn redundant_guard_is_not_fatal() {
        // A guard entailed by the inherited facts leaves the node alive.
        let (mut tvq, catalog) = figure4_tvq();
        let hotel_idx = tvq
            .nodes
            .iter()
            .position(|n| {
                matches!(&n.binding, UnboundQuery::Query(q)
                    if q.to_sql_inline().contains("starrating"))
            })
            .unwrap();
        let bv = tvq.nodes[hotel_idx].bv.clone();
        // starrating > 2 is implied by the view's starrating > 4.
        let mut child = TvqNodeBuilder::leaf(&tvq, hotel_idx, &bv, 3);
        child.binding = UnboundQuery::Rebind {
            source: bv.clone(),
            guard: Some(ScalarExpr::binary(
                xvc_rel::BinOp::Gt,
                ScalarExpr::param(&bv, "starrating"),
                ScalarExpr::int(2),
            )),
        };
        let child_idx = tvq.nodes.len();
        tvq.nodes.push(child);
        tvq.nodes[hotel_idx].children.push((child_idx, 0));

        let analysis = analyze_tvq(&tvq, &catalog);
        assert!(!analysis.verdicts[child_idx].dead);
        let a = analysis.verdicts[child_idx].analysis.as_ref().unwrap();
        assert_eq!(a.redundant.len(), 1);
    }

    /// Test-only helper constructing a leaf TVQ node whose tag query
    /// contradicts the hotel filter: `SELECT * FROM hotel WHERE
    /// starrating < {hi} AND hotelid = $bv.hotelid AND starrating =
    /// $bv.starrating` — rebinding the parent's hotel tuple, so the
    /// inherited `> 4` fact meets `< hi`.
    struct TvqNodeBuilder;
    impl TvqNodeBuilder {
        fn leaf(tvq: &Tvq, parent: usize, bv: &str, hi: i64) -> crate::tvq::TvqNode {
            use xvc_rel::BinOp;
            let mut q = SelectQuery::new(
                vec![SelectItem::Star],
                vec![xvc_rel::TableRef::Named {
                    name: "hotel".into(),
                    alias: None,
                }],
            );
            q.and_where(ScalarExpr::binary(
                BinOp::Eq,
                ScalarExpr::col("starrating"),
                ScalarExpr::param(bv, "starrating"),
            ));
            q.and_where(ScalarExpr::binary(
                BinOp::Lt,
                ScalarExpr::col("starrating"),
                ScalarExpr::int(hi),
            ));
            crate::tvq::TvqNode {
                view: tvq.nodes[parent].view,
                rule: tvq.nodes[parent].rule,
                bv: format!("{bv}_leaf"),
                binding: UnboundQuery::Query(q),
                is_entry: false,
                bvmap: std::collections::HashMap::new(),
                parent: Some(parent),
                children: Vec::new(),
            }
        }
    }
}
