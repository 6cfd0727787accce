//! Pass 5: predicate dataflow over the TVQ (the `XVC4xx` codes).
//!
//! Reads the verdicts of the [`xvc_core::prune`] abstract-interpretation
//! pass that `ComposeOptions::prune` uses, computed once per check
//! ([`crate::ComposedWorkload`]), and converts them into diagnostics:
//! dead TVQ subtrees (XVC401), contradictions that survive as empty
//! aggregate rows (XVC402), redundant conjuncts (XVC403), tautological
//! `EXISTS` conditions (XVC404), comparisons that can never bind because
//! of NULL (XVC405), key-implied duplicate joins (XVC406) and the
//! overall prune-size report (XVC407). Every finding carries the
//! fact chain that justifies it, so the report doubles as an explanation
//! of what `--prune` would do.

use xvc_core::prune::apply_prune;
use xvc_core::tvq::Tvq;
use xvc_core::unbind::UnboundQuery;
use xvc_view::SchemaTree;

use crate::diag::{Code, Diagnostic, Stage};
use crate::ComposedWorkload;

/// Runs the dataflow pass over the verdicts of `composed`, the
/// composition of `view` with the (lowered) stylesheet.
pub fn check_dataflow(view: &SchemaTree, composed: &ComposedWorkload) -> Vec<Diagnostic> {
    let (tvq, analysis) = (&composed.tvq, &composed.analysis);
    let mut out = Vec::new();
    for (idx, verdict) in analysis.verdicts.iter().enumerate() {
        let label = node_label(view, tvq, idx);
        if verdict.dead {
            let n = subtree_size(tvq, idx);
            let what = if n == 1 {
                "the node is dead".to_owned()
            } else {
                format!("its {n}-node subtree is dead")
            };
            out.push(
                Diagnostic::new(
                    Code::Xvc401,
                    Stage::Composed,
                    format!("{label}: the tag query can never yield a row; {what}"),
                )
                .with_help(fact_chain(&verdict.chain))
                .with_justification(verdict.chain.clone()),
            );
            for nc in verdict.analysis.iter().flat_map(|a| &a.null_compares) {
                out.push(Diagnostic::new(
                    Code::Xvc405,
                    Stage::Composed,
                    format!("{label}: {nc}"),
                ));
            }
            continue;
        }
        let Some(a) = &verdict.analysis else { continue };
        if let Some(c) = &a.contradiction {
            out.push(
                Diagnostic::new(
                    Code::Xvc402,
                    Stage::Composed,
                    format!(
                        "{label}: conjunct `{}` is provably false, but the implicit \
                         aggregation still yields one row (aggregates over no tuples)",
                        c.conjunct
                    ),
                )
                .with_help(fact_chain(&c.chain))
                .with_justification(c.chain.clone()),
            );
            for nc in &a.null_compares {
                out.push(Diagnostic::new(
                    Code::Xvc405,
                    Stage::Composed,
                    format!("{label}: {nc}"),
                ));
            }
            continue;
        }
        for r in &a.redundant {
            let (code, what) = if r.tautological_exists {
                (Code::Xvc404, "is a tautological existence condition")
            } else {
                (Code::Xvc403, "is entailed by the facts in force")
            };
            out.push(
                Diagnostic::new(
                    code,
                    Stage::Composed,
                    format!("{label}: conjunct `{}` {what}", r.conjunct),
                )
                .with_help(fact_chain(&r.chain))
                .with_justification(r.chain.clone()),
            );
        }
        for nc in &a.null_compares {
            out.push(Diagnostic::new(
                Code::Xvc405,
                Stage::Composed,
                format!("{label}: {nc}"),
            ));
        }
        for dj in &a.dup_joins {
            out.push(Diagnostic::new(
                Code::Xvc406,
                Stage::Composed,
                format!("{label}: {dj}"),
            ));
        }
    }

    // The prune-size report: what `--prune` would actually do.
    let total = tvq.nodes.len();
    let mut pruned = tvq.clone();
    let stats = apply_prune(&mut pruned, analysis);
    if stats.nodes_removed > 0 || stats.conjuncts_eliminated > 0 {
        out.push(
            Diagnostic::new(
                Code::Xvc407,
                Stage::General,
                format!(
                    "predicate-dataflow prune would remove {} of {total} TVQ nodes and drop \
                     {} redundant conjunct(s)",
                    stats.nodes_removed, stats.conjuncts_eliminated
                ),
            )
            .with_help("compose with pruning enabled (ComposeOptions::prune / `--prune`) to apply"),
        );
    }
    out
}

pub(crate) fn fact_chain(chain: &[String]) -> String {
    if chain.is_empty() {
        "no recorded facts (structurally impossible)".to_owned()
    } else {
        format!("fact chain: {}", chain.join("  ->  "))
    }
}

pub(crate) fn node_label(view: &SchemaTree, tvq: &Tvq, idx: usize) -> String {
    let w = &tvq.nodes[idx];
    let tag = if view.is_root(w.view) {
        "root".to_owned()
    } else {
        view.node(w.view)
            .map_or_else(|| "?".to_owned(), |n| n.tag.clone())
    };
    let binding = match &w.binding {
        UnboundQuery::Query(_) => format!(", ${}", w.bv),
        UnboundQuery::Rebind { source, .. } if !source.is_empty() => {
            format!(", rebinds ${source}")
        }
        _ => String::new(),
    };
    format!("TVQ node <{tag}> (rule R{}{binding})", w.rule + 1)
}

fn subtree_size(tvq: &Tvq, idx: usize) -> usize {
    1 + tvq.nodes[idx]
        .children
        .iter()
        .map(|&(c, _)| subtree_size(tvq, c))
        .sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xvc_core::paper_fixtures::{figure1_view, figure2_catalog};
    use xvc_core::tvq::DEFAULT_TVQ_LIMIT;
    use xvc_xslt::parse::FIGURE4_XSLT;
    use xvc_xslt::{parse_stylesheet, Stylesheet};

    fn check(v: &SchemaTree, x: &Stylesheet) -> Vec<Diagnostic> {
        let c = ComposedWorkload::new(v, x, None, &figure2_catalog(), DEFAULT_TVQ_LIMIT).unwrap();
        check_dataflow(v, &c)
    }

    #[test]
    fn clean_workload_reports_nothing() {
        let v = figure1_view();
        let x = parse_stylesheet(FIGURE4_XSLT).unwrap();
        let ds = check(&v, &x);
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn contradictory_match_predicate_is_dead_with_chain() {
        // Figure 4 extended: a template demanding starrating < 3 on hotel
        // instances, which the view restricts to starrating > 4.
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
        let codes: Vec<_> = ds.iter().map(|d| d.code).collect();
        assert!(codes.contains(&Code::Xvc401), "{ds:?}");
        assert!(codes.contains(&Code::Xvc407), "{ds:?}");
        let dead = ds.iter().find(|d| d.code == Code::Xvc401).unwrap();
        let help = dead.help.as_deref().unwrap_or("");
        assert!(
            help.contains("starrating"),
            "chain should cite the starrating facts: {help}"
        );
    }
}
