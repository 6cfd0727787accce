//! The Traverse View Query (§3.2, §4.2; Figure 7(a)).
//!
//! The TVQ unrolls the CTG into a tree: one TVQ node per (entry-reachable)
//! path through the CTG, so a CTG node with several incoming edges is
//! duplicated once per incoming path — the §4.5 case where the TVQ "may be
//! up to exponentially larger than the CTG", guarded here by a node
//! budget. Each TVQ node receives a fresh binding variable (`$m` becomes
//! the paper's `$m_new`) and a tag query generated from its incoming
//! edge's select-match subtree by [`crate::unbind::unbind_smt`].

use std::collections::HashMap;

use xvc_rel::Catalog;
use xvc_view::{SchemaTree, ViewNodeId};
use xvc_xslt::Stylesheet;

use crate::ctg::Ctg;
use crate::error::{Error, Result};
use crate::unbind::{unbind_smt, UnboundQuery};

/// Default budget for TVQ duplication.
pub const DEFAULT_TVQ_LIMIT: usize = 10_000;

/// One node of the traverse view query.
#[derive(Debug, Clone, PartialEq)]
pub struct TvqNode {
    /// The schema-tree node this TVQ node traverses.
    pub view: ViewNodeId,
    /// The template rule fired at this node.
    pub rule: usize,
    /// This node's binding variable (fresh, e.g. `s_new`). Empty for the
    /// entry node; equal to the reused source for rebind nodes.
    pub bv: String,
    /// How instances of this node are produced.
    pub binding: UnboundQuery,
    /// Whether this node is the TVQ entry (root, r).
    pub is_entry: bool,
    /// `bvmap(w)`: original binding variables → TVQ binding variables.
    pub bvmap: HashMap<String, String>,
    /// Parent TVQ node.
    pub parent: Option<usize>,
    /// Children as `(node index, apply-templates index in this rule)`.
    pub children: Vec<(usize, usize)>,
}

/// The traverse view query.
#[derive(Debug, Clone, PartialEq)]
pub struct Tvq {
    /// Nodes; entries first, then depth-first.
    pub nodes: Vec<TvqNode>,
    /// Indices of the entry nodes (`(root, r)` in the default mode).
    pub roots: Vec<usize>,
}

impl Tvq {
    /// Renders the TVQ in the Figure 7(a) style.
    pub fn render(&self, view: &SchemaTree, stylesheet: &Stylesheet) -> String {
        let mut out = String::new();
        for &r in &self.roots {
            self.render_node(view, stylesheet, r, 0, &mut out);
        }
        out
    }

    fn render_node(
        &self,
        view: &SchemaTree,
        _stylesheet: &Stylesheet,
        idx: usize,
        depth: usize,
        out: &mut String,
    ) {
        let w = &self.nodes[idx];
        let indent = "  ".repeat(depth);
        let view_label = if view.is_root(w.view) {
            "(0, root)".to_owned()
        } else {
            let vn = view.node(w.view).expect("non-root");
            format!("({}, {})", vn.id, vn.tag)
        };
        out.push_str(&format!("{indent}({view_label}, R{})", w.rule + 1));
        match &w.binding {
            UnboundQuery::Query(q) => {
                out.push_str(&format!("  ${}\n", w.bv));
                for line in q.to_sql().lines() {
                    out.push_str(&format!("{indent}    {line}\n"));
                }
            }
            UnboundQuery::Literal => {
                out.push_str("  [literal]\n");
            }
            UnboundQuery::Rebind { source, guard } => {
                out.push_str(&format!("  [rebind ${source}"));
                if let Some(g) = guard {
                    out.push_str(&format!(", guard {}", g.to_sql_inline()));
                }
                out.push_str("]\n");
            }
        }
        if w.is_entry {
            // Entry nodes have no query; the marker line suffices.
        }
        for &(c, _) in &w.children {
            self.render_node(view, _stylesheet, c, depth + 1, out);
        }
    }
}

/// Builds the TVQ (Figure 9 lines 16–22) from a CTG.
pub fn build_tvq(
    view: &SchemaTree,
    stylesheet: &Stylesheet,
    ctg: &Ctg,
    catalog: &Catalog,
    limit: usize,
) -> Result<Tvq> {
    if let Some(witness) = ctg.has_cycle() {
        let n = &ctg.nodes[witness];
        let label = if view.is_root(n.view) {
            format!("((0, root), R{})", n.rule + 1)
        } else {
            format!(
                "(({}, {}), R{})",
                view.node(n.view).expect("non-root").id,
                view.node(n.view).expect("non-root").tag,
                n.rule + 1
            )
        };
        return Err(Error::RecursiveStylesheet { witness: label });
    }

    let mut tvq = Tvq {
        nodes: Vec::new(),
        roots: Vec::new(),
    };
    let mut bv_counter: HashMap<String, usize> = HashMap::new();

    for entry in ctg.entry_nodes(view, stylesheet) {
        let root_idx = tvq.nodes.len();
        tvq.nodes.push(TvqNode {
            view: ctg.nodes[entry].view,
            rule: ctg.nodes[entry].rule,
            bv: String::new(),
            binding: UnboundQuery::Rebind {
                source: String::new(),
                guard: None,
            },
            is_entry: true,
            bvmap: HashMap::new(),
            parent: None,
            children: Vec::new(),
        });
        tvq.roots.push(root_idx);
        expand(
            view,
            stylesheet,
            ctg,
            catalog,
            entry,
            root_idx,
            &mut tvq,
            &mut bv_counter,
            limit,
        )?;
    }
    Ok(tvq)
}

#[allow(clippy::too_many_arguments, clippy::only_used_in_recursion)]
fn expand(
    view: &SchemaTree,
    stylesheet: &Stylesheet,
    ctg: &Ctg,
    catalog: &Catalog,
    ctg_idx: usize,
    tvq_idx: usize,
    tvq: &mut Tvq,
    bv_counter: &mut HashMap<String, usize>,
    limit: usize,
) -> Result<()> {
    for edge_idx in ctg.outgoing(ctg_idx) {
        if tvq.nodes.len() >= limit {
            return Err(Error::TvqTooLarge { limit });
        }
        let edge = &ctg.edges[edge_idx];
        let target = &ctg.nodes[edge.to];
        // Literal targets have no binding variable of their own.
        let new_bv = match view.bv(target.view) {
            Some(orig) => fresh_bv(orig, bv_counter),
            None => String::new(),
        };
        let parent_bvmap = tvq.nodes[tvq_idx].bvmap.clone();
        let result = unbind_smt(view, &edge.smt, &new_bv, &parent_bvmap, catalog)?;
        let bv = match &result.query {
            UnboundQuery::Query(_) => new_bv,
            UnboundQuery::Rebind { source, .. } => source.clone(),
            UnboundQuery::Literal => String::new(),
        };
        let child_idx = tvq.nodes.len();
        tvq.nodes.push(TvqNode {
            view: target.view,
            rule: target.rule,
            bv,
            binding: result.query,
            is_entry: false,
            bvmap: result.bvmap,
            parent: Some(tvq_idx),
            children: Vec::new(),
        });
        tvq.nodes[tvq_idx]
            .children
            .push((child_idx, edge.apply_idx));
        expand(
            view, stylesheet, ctg, catalog, edge.to, child_idx, tvq, bv_counter, limit,
        )?;
    }
    Ok(())
}

/// `m` → `m_new`, then `m_new2`, `m_new3`, … on reuse (duplicated nodes).
fn fresh_bv(orig: &str, counter: &mut HashMap<String, usize>) -> String {
    let n = counter.entry(orig.to_owned()).or_insert(0);
    *n += 1;
    if *n == 1 {
        format!("{orig}_new")
    } else {
        format!("{orig}_new{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctg::build_ctg;
    use crate::paper_fixtures::{figure1_view, figure2_catalog};
    use xvc_xslt::parse::FIGURE4_XSLT;
    use xvc_xslt::parse_stylesheet;

    fn figure4_tvq() -> (SchemaTree, Stylesheet, Tvq) {
        let v = figure1_view();
        let x = parse_stylesheet(FIGURE4_XSLT).unwrap();
        let ctg = build_ctg(&v, &x).unwrap();
        let tvq = build_tvq(&v, &x, &ctg, &figure2_catalog(), DEFAULT_TVQ_LIMIT).unwrap();
        (v, x, tvq)
    }

    #[test]
    fn figure7a_structure() {
        let (v, _, tvq) = figure4_tvq();
        // A chain of four nodes: (root,R1) → (metro,R2) → (confstat,R3)
        // → (confroom,R4).
        assert_eq!(tvq.nodes.len(), 4);
        assert_eq!(tvq.roots, vec![0]);
        let chain: Vec<&TvqNode> = {
            let mut out = vec![&tvq.nodes[0]];
            let mut cur = &tvq.nodes[0];
            while let Some(&(c, _)) = cur.children.first() {
                cur = &tvq.nodes[c];
                out.push(cur);
            }
            out
        };
        assert!(chain[0].is_entry);
        assert_eq!(chain[1].bv, "m_new");
        assert_eq!(chain[2].bv, "s_new");
        assert_eq!(chain[3].bv, "c_new");
        let ids: Vec<u32> = chain[1..]
            .iter()
            .map(|w| v.node(w.view).unwrap().id)
            .collect();
        assert_eq!(ids, vec![1, 4, 5]);
    }

    #[test]
    fn figure7a_queries() {
        let (v, x, tvq) = figure4_tvq();
        let r = tvq.render(&v, &x);
        // Qm_new.
        assert!(r.contains("SELECT metroid, metroname"), "{r}");
        // Qs_new with the derived hotel table and GROUP BY TEMP columns.
        assert!(r.contains("SELECT SUM(capacity), TEMP.*"), "{r}");
        assert!(r.contains("metro_id = $m_new.metroid"), "{r}");
        assert!(r.contains("GROUP BY TEMP.hotelid"), "{r}");
        // Qc_new with the EXISTS sibling condition on $s_new.
        assert!(r.contains("chotel_id = $s_new.hotelid"), "{r}");
        assert!(r.contains("EXISTS ("), "{r}");
        assert!(r.contains("rhotel_id = $s_new.hotelid"), "{r}");
    }

    #[test]
    fn duplication_for_shared_nodes() {
        // Two apply-templates in one rule reaching the same confstat node:
        // the TVQ duplicates it (and its subtree).
        let v = figure1_view();
        let x = parse_stylesheet(
            r#"<xsl:stylesheet>
                 <xsl:template match="/"><xsl:apply-templates select="metro"/></xsl:template>
                 <xsl:template match="metro">
                   <m>
                     <xsl:apply-templates select="hotel/confstat"/>
                     <xsl:apply-templates select="hotel/confstat"/>
                   </m>
                 </xsl:template>
                 <xsl:template match="confstat"><c/></xsl:template>
               </xsl:stylesheet>"#,
        )
        .unwrap();
        let ctg = build_ctg(&v, &x).unwrap();
        // One CTG node for (4,confstat) but two incoming edges.
        let tvq = build_tvq(&v, &x, &ctg, &figure2_catalog(), DEFAULT_TVQ_LIMIT).unwrap();
        let confstats: Vec<&TvqNode> = tvq
            .nodes
            .iter()
            .filter(|w| v.node(w.view).map(|n| n.id) == Some(4))
            .collect();
        assert_eq!(confstats.len(), 2);
        assert_eq!(confstats[0].bv, "s_new");
        assert_eq!(confstats[1].bv, "s_new2");
    }

    #[test]
    fn budget_guards_exponential_duplication() {
        let v = figure1_view();
        let x = parse_stylesheet(
            r#"<xsl:stylesheet>
                 <xsl:template match="/"><xsl:apply-templates select="metro"/></xsl:template>
                 <xsl:template match="metro">
                   <xsl:apply-templates select="hotel/confstat"/>
                   <xsl:apply-templates select="hotel/confstat"/>
                 </xsl:template>
                 <xsl:template match="confstat"><c/></xsl:template>
               </xsl:stylesheet>"#,
        )
        .unwrap();
        let ctg = build_ctg(&v, &x).unwrap();
        assert!(matches!(
            build_tvq(&v, &x, &ctg, &figure2_catalog(), 2),
            Err(Error::TvqTooLarge { limit: 2 })
        ));
    }

    #[test]
    fn recursion_is_rejected_with_witness() {
        let v = figure1_view();
        let x = parse_stylesheet(
            r#"<xsl:stylesheet>
                 <xsl:template match="/"><xsl:apply-templates select="metro/hotel"/></xsl:template>
                 <xsl:template match="hotel"><xsl:apply-templates select="confstat"/></xsl:template>
                 <xsl:template match="confstat"><xsl:apply-templates select=".."/></xsl:template>
               </xsl:stylesheet>"#,
        )
        .unwrap();
        let ctg = build_ctg(&v, &x).unwrap();
        assert!(matches!(
            build_tvq(&v, &x, &ctg, &figure2_catalog(), DEFAULT_TVQ_LIMIT),
            Err(Error::RecursiveStylesheet { .. })
        ));
    }

    #[test]
    fn rebind_transitions_inherit_bindings() {
        // A `.[guard]` transition (if-rewrite shape) produces a Rebind node
        // whose bv aliases the parent's.
        let v = figure1_view();
        let x = parse_stylesheet(
            r#"<xsl:stylesheet>
                 <xsl:template match="/"><xsl:apply-templates select="metro/hotel"/></xsl:template>
                 <xsl:template match="hotel">
                   <h><xsl:apply-templates select=".[@pool='yes']" mode="inner"/></h>
                 </xsl:template>
                 <xsl:template match="hotel" mode="inner"><lux/></xsl:template>
               </xsl:stylesheet>"#,
        )
        .unwrap();
        let ctg = build_ctg(&v, &x).unwrap();
        let tvq = build_tvq(&v, &x, &ctg, &figure2_catalog(), DEFAULT_TVQ_LIMIT).unwrap();
        let rebind = tvq
            .nodes
            .iter()
            .find(|w| !w.is_entry && matches!(w.binding, UnboundQuery::Rebind { .. }))
            .expect("rebind node");
        let UnboundQuery::Rebind { source, guard } = &rebind.binding else {
            unreachable!()
        };
        assert_eq!(source, "h_new");
        assert_eq!(rebind.bv, "h_new");
        assert!(guard.is_some());
    }
}
