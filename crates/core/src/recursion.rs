//! §5.3 — handling recursion by partial pushdown (Figures 25–27).
//!
//! Recursive stylesheets (rules that cycle through the parent axis) cannot
//! be fully composed: the number of context transitions depends on runtime
//! values. The paper's approach — illustrated on Figures 25/26/27 and
//! described as "currently limited to only a few cases" — pushes the
//! *path computation* of one recursion round into the view as a pair of
//! materialized nodes (`..._down` / `..._up`), leaving the recursion
//! itself to a small residual stylesheet that bounces between them:
//!
//! * the **down query** composes the downward select path (minus its
//!   variable predicates, which cannot be evaluated at composition time);
//! * the **up query** is the down query further restricted by the upward
//!   path's value predicates (Figure 26's `HAVING COUNT(a_id) > 50`);
//! * the **residual stylesheet** (Figure 27) keeps the parameters, flow
//!   control and variable predicates, but navigates single steps between
//!   the two materialized siblings instead of re-traversing the original
//!   document — none of the intermediate `hotel` / `confstat` /
//!   `hotel_available` nodes are ever materialized.
//!
//! The supported shape is the paper's: an anchor rule matching a top-level
//! view node `A`, whose (only) recursive apply-templates walks a
//! child-axis path down to a node `B` matched by a second rule, which in
//! turn walks back up to `A` via self/parent steps. Like the paper's, the
//! rewrite preserves the recursion structure rather than being a verified
//! general-purpose equivalence (the paper argues it "by inspection").

use xvc_rel::Catalog;
use xvc_view::{AttrProjection, SchemaTree, ViewNode, ViewNodeId};
use xvc_xpath::{Axis, Expr, NodeTest, PathExpr, Step};
use xvc_xslt::{ApplyTemplates, OutputNode, Stylesheet, TemplateRule};

use crate::combine::combine;
use crate::error::{Error, Result};
use crate::matchq::matchq;
use crate::predicate;
use crate::selectq::selectq;
use crate::unbind::{unbind_smt, UnboundQuery};

/// Result of the §5.3 partial pushdown.
#[derive(Debug, Clone)]
pub struct RecursiveComposition {
    /// The materialized view `v'` (Figure 26): the anchor node plus the
    /// `..._down` / `..._up` pair.
    pub view: SchemaTree,
    /// The residual stylesheet `x'` (Figure 27).
    pub stylesheet: Stylesheet,
    /// Tag of the materialized down node.
    pub down_tag: String,
    /// Tag of the materialized up node.
    pub up_tag: String,
}

/// Composes a recursive stylesheet with a view per §5.3.
///
/// Expects the Figure 25 shape (see module docs); anything else yields
/// [`Error::NotComposable`].
pub fn compose_recursive(
    view: &SchemaTree,
    stylesheet: &Stylesheet,
    catalog: &Catalog,
) -> Result<RecursiveComposition> {
    view.validate()?;
    let shape = detect_shape(view, stylesheet)?;

    let ra = &stylesheet.rules[shape.anchor_rule];
    let rb = &stylesheet.rules[shape.inner_rule];

    // Compose the down path (variable predicates stripped).
    let t = selectq(view, shape.anchor, &shape.down_stripped, shape.target)?
        .into_iter()
        .next()
        .ok_or_else(|| Error::NotComposable {
            reason: "the downward select path does not reach the recursion target".into(),
        })?;
    let p = matchq(view, shape.target, &rb.match_pattern)?.ok_or_else(|| Error::NotComposable {
        reason: "the inner rule does not match the recursion target".into(),
    })?;
    let smt = combine(view, &t, &p)?;
    let anchor_bv = view
        .bv(shape.anchor)
        .expect("anchor is a query node")
        .to_owned();
    let mut bvmap = std::collections::HashMap::new();
    bvmap.insert(anchor_bv.clone(), anchor_bv.clone());
    let unbound = unbind_smt(view, &smt, "d", &bvmap, catalog)?;
    let UnboundQuery::Query(q_down) = unbound.query else {
        return Err(Error::NotComposable {
            reason: "the downward path is degenerate (no chain to unbind)".into(),
        });
    };

    // The up query: down query + the upward path's value predicates
    // (Figure 26's extra HAVING).
    let mut q_up = q_down.clone();
    for pred in &shape.up_value_preds {
        predicate::push_into_query(&mut q_up, pred, catalog)?;
    }

    // Published attributes: exactly the original target node's columns, so
    // the residual stylesheet sees the same attributes the original view
    // exposed (e.g. `@count`).
    let target_node = view.node(shape.target).expect("non-root");
    let target_query = target_node.query.as_ref().expect("query node");
    let b_cols = target_query.output_columns(&|n| catalog.get(n))?;

    let down_tag = format!("{}_down", target_node.tag);
    let up_tag = format!("{}_up", target_node.tag);

    // Build v' (Figure 26).
    let mut v2 = SchemaTree::new();
    let anchor_node = view.node(shape.anchor).expect("non-root").clone();
    let max_id = view
        .node_ids()
        .iter()
        .filter_map(|&i| view.node(i).map(|n| n.id))
        .max()
        .unwrap_or(0);
    let a2 = v2.add_root_node(anchor_node)?;
    v2.add_child(
        a2,
        ViewNode {
            id: max_id + 1,
            tag: down_tag.clone(),
            bv: "d".into(),
            query: Some(q_down),
            attrs: AttrProjection::Columns(b_cols.clone()),
            static_attrs: Vec::new(),
            context_tuple_of: None,
            guard: None,
            query_span: Default::default(),
        },
    )?;
    v2.add_child(
        a2,
        ViewNode {
            id: max_id + 2,
            tag: up_tag.clone(),
            bv: "u".into(),
            query: Some(q_up),
            attrs: AttrProjection::Columns(b_cols),
            static_attrs: Vec::new(),
            context_tuple_of: None,
            guard: None,
            query_span: Default::default(),
        },
    )?;
    v2.validate()?;

    // Build x' (Figure 27).
    let mut rules = Vec::new();
    // Keep a root driver rule if the stylesheet has one.
    for r in &stylesheet.rules {
        if r.match_pattern.steps.is_empty() && r.match_pattern.absolute {
            rules.push(r.clone());
        }
    }
    // R1': the anchor rule, its recursive select becoming a single child
    // step to the down node with the variable predicates re-applied.
    let down_select = PathExpr {
        absolute: false,
        steps: vec![Step {
            axis: Axis::Child,
            test: NodeTest::Name(down_tag.clone()),
            predicates: shape.down_var_preds.clone(),
        }],
    };
    let mut r1 = ra.clone();
    r1.output = replace_apply_select(&r1.output, &shape.down_select, &down_select);
    rules.push(r1);
    // R2': the inner rule re-anchored on the down node, recursing to the
    // up sibling.
    let up_sibling = sibling_select(&up_tag, &shape.up_var_preds);
    let mut r2 = rb.clone();
    r2.match_pattern = PathExpr {
        absolute: false,
        steps: vec![Step {
            axis: Axis::Child,
            test: NodeTest::Name(down_tag.clone()),
            predicates: Vec::new(),
        }],
    };
    r2.output = replace_apply_select(&r2.output, &shape.up_select, &up_sibling);
    rules.push(r2);
    // R3': the inner rule re-anchored on the up node, recursing back to
    // the down sibling with the down path's variable predicates.
    let down_sibling = sibling_select(&down_tag, &shape.down_var_preds);
    let mut r3 = rb.clone();
    r3.match_pattern = PathExpr {
        absolute: false,
        steps: vec![Step {
            axis: Axis::Child,
            test: NodeTest::Name(up_tag.clone()),
            predicates: Vec::new(),
        }],
    };
    r3.output = replace_apply_select(&r3.output, &shape.up_select, &down_sibling);
    rules.push(r3);

    Ok(RecursiveComposition {
        view: v2,
        stylesheet: Stylesheet { rules },
        down_tag,
        up_tag,
    })
}

/// `../tag[preds]`.
fn sibling_select(tag: &str, preds: &[Expr]) -> PathExpr {
    PathExpr {
        absolute: false,
        steps: vec![
            Step::parent(),
            Step {
                axis: Axis::Child,
                test: NodeTest::Name(tag.to_owned()),
                predicates: preds.to_vec(),
            },
        ],
    }
}

struct Shape {
    anchor_rule: usize,
    inner_rule: usize,
    anchor: ViewNodeId,
    target: ViewNodeId,
    /// The anchor rule's recursive select, as written.
    down_select: PathExpr,
    /// ... with variable predicates stripped (composable part).
    down_stripped: PathExpr,
    /// Variable predicates of the down select's final step.
    down_var_preds: Vec<Expr>,
    /// The inner rule's upward select, as written.
    up_select: PathExpr,
    /// Value predicates of the up path (pushed into the up query).
    up_value_preds: Vec<Expr>,
    /// Variable predicates of the up path (stay in the residual).
    up_var_preds: Vec<Expr>,
}

fn detect_shape(view: &SchemaTree, stylesheet: &Stylesheet) -> Result<Shape> {
    for (ai, ra) in stylesheet.rules.iter().enumerate() {
        // Anchor: matches exactly one top-level view node.
        let anchors: Vec<ViewNodeId> = view
            .node_ids()
            .into_iter()
            .filter(|&vid| {
                view.parent(vid) == Some(view.root())
                    && matchq(view, vid, &ra.match_pattern)
                        .map(|m| m.is_some())
                        .unwrap_or(false)
            })
            .collect();
        let [anchor] = anchors.as_slice() else {
            continue;
        };
        for a in ra.apply_templates() {
            let (down_stripped, down_var_preds, ok) = strip_variable_predicates(&a.select);
            if !ok || !down_stripped.steps.iter().all(|s| s.axis == Axis::Child) {
                continue;
            }
            for (bi, rb) in stylesheet.rules.iter().enumerate() {
                if bi == ai || rb.mode != a.mode {
                    continue;
                }
                // Find the target: the end of the down path, matched by rb.
                let Ok(candidates) = crate::selectq::selectq_all(view, *anchor, &down_stripped)
                else {
                    continue;
                };
                let Some(target) = candidates
                    .iter()
                    .map(|tp| tp.view(tp.new_context))
                    .find(|&b| {
                        matchq(view, b, &rb.match_pattern)
                            .map(|m| m.is_some())
                            .unwrap_or(false)
                    })
                else {
                    continue;
                };
                // rb must walk back up to the anchor via self/parent steps.
                for b_apply in rb.apply_templates() {
                    let up = &b_apply.select;
                    let upward_only = up
                        .steps
                        .iter()
                        .all(|s| matches!(s.axis, Axis::SelfAxis | Axis::Parent));
                    if !upward_only || b_apply.mode != ra.mode {
                        continue;
                    }
                    let Ok(back) = selectq(view, target, &strip_all_predicates(up), *anchor) else {
                        continue;
                    };
                    if back.is_empty() {
                        continue;
                    }
                    // Partition the up path's predicates.
                    let mut up_value_preds = Vec::new();
                    let mut up_var_preds = Vec::new();
                    for s in &up.steps {
                        for pr in &s.predicates {
                            if pr.uses_variables() {
                                up_var_preds.push(pr.clone());
                            } else if s.axis == Axis::SelfAxis {
                                up_value_preds.push(pr.clone());
                            } else {
                                return Err(Error::NotComposable {
                                    reason: format!(
                                        "predicate `{pr}` on an upward parent step is \
                                         outside the supported §5.3 shape"
                                    ),
                                });
                            }
                        }
                    }
                    return Ok(Shape {
                        anchor_rule: ai,
                        inner_rule: bi,
                        anchor: *anchor,
                        target,
                        down_select: a.select.clone(),
                        down_stripped,
                        down_var_preds,
                        up_select: up.clone(),
                        up_value_preds,
                        up_var_preds,
                    });
                }
            }
        }
    }
    Err(Error::NotComposable {
        reason: "no supported §5.3 recursion shape found (anchor rule on a \
                 top-level node, child-axis down path, self/parent up path)"
            .into(),
    })
}

/// Removes variable predicates; returns `(stripped path, final-step
/// variable predicates, supported)` — variable predicates on intermediate
/// steps make the shape unsupported (`false`).
fn strip_variable_predicates(path: &PathExpr) -> (PathExpr, Vec<Expr>, bool) {
    let mut stripped = path.clone();
    let mut var_preds = Vec::new();
    let last = stripped.steps.len().saturating_sub(1);
    let mut ok = true;
    for (i, step) in stripped.steps.iter_mut().enumerate() {
        step.predicates.retain(|p| {
            if p.uses_variables() {
                if i == last {
                    var_preds.push(p.clone());
                } else {
                    ok = false;
                }
                false
            } else {
                true
            }
        });
    }
    (stripped, var_preds, ok)
}

fn strip_all_predicates(path: &PathExpr) -> PathExpr {
    let mut p = path.clone();
    for s in &mut p.steps {
        s.predicates.clear();
    }
    p
}

/// Clones an output fragment, substituting the select of every
/// apply-templates node whose select equals `old`.
fn replace_apply_select(nodes: &[OutputNode], old: &PathExpr, new: &PathExpr) -> Vec<OutputNode> {
    nodes
        .iter()
        .map(|n| match n {
            OutputNode::ApplyTemplates(a) if &a.select == old => {
                OutputNode::ApplyTemplates(ApplyTemplates {
                    select: new.clone(),
                    mode: a.mode.clone(),
                    with_params: a.with_params.clone(),
                    select_span: a.select_span,
                })
            }
            OutputNode::Element {
                name,
                attrs,
                children,
            } => OutputNode::Element {
                name: name.clone(),
                attrs: attrs.clone(),
                children: replace_apply_select(children, old, new),
            },
            OutputNode::If {
                test,
                children,
                span,
            } => OutputNode::If {
                test: test.clone(),
                children: replace_apply_select(children, old, new),
                span: *span,
            },
            OutputNode::Choose {
                whens,
                otherwise,
                span,
            } => OutputNode::Choose {
                whens: whens
                    .iter()
                    .map(|(t, b)| (t.clone(), replace_apply_select(b, old, new)))
                    .collect(),
                otherwise: replace_apply_select(otherwise, old, new),
                span: *span,
            },
            OutputNode::ForEach {
                select,
                children,
                span,
            } => OutputNode::ForEach {
                select: select.clone(),
                children: replace_apply_select(children, old, new),
                span: *span,
            },
            other => other.clone(),
        })
        .collect()
}

/// Prepends a driver rule `match="/"` applying templates to `tag`, when the
/// stylesheet lacks a root rule. The Figure 25 stylesheet starts at
/// `/metro` without one; engines need the root transition to be explicit
/// once built-in rules are overridden.
pub fn with_root_driver(stylesheet: &Stylesheet, tag: &str) -> Stylesheet {
    if stylesheet
        .rules
        .iter()
        .any(|r| r.match_pattern.absolute && r.match_pattern.steps.is_empty())
    {
        return stylesheet.clone();
    }
    let mut rules = vec![TemplateRule::new(
        PathExpr::root(),
        vec![OutputNode::ApplyTemplates(ApplyTemplates::new(PathExpr {
            absolute: false,
            steps: vec![Step::child(tag)],
        }))],
    )];
    rules.extend(stylesheet.rules.iter().cloned());
    Stylesheet { rules }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_fixtures::{
        dense_availability_database, figure1_view, figure2_catalog, FIGURE25_XSLT,
    };
    use xvc_view::Engine;
    use xvc_xslt::{parse_stylesheet, process};

    fn figure25() -> RecursiveComposition {
        let v = figure1_view();
        let x = parse_stylesheet(FIGURE25_XSLT).unwrap();
        compose_recursive(&v, &x, &figure2_catalog()).unwrap()
    }

    #[test]
    fn figure26_view_structure() {
        let rc = figure25();
        let r = rc.view.render();
        // v': metro with the two materialized siblings.
        assert!(r.contains("<metro>"), "{r}");
        assert!(r.contains("<metro_available_down>"), "{r}");
        assert!(r.contains("<metro_available_up>"), "{r}");
        // Qmd: the composed down path — nested derived tables with the
        // @count>10 HAVING inside, parameterized by metro.
        assert!(r.contains("HAVING COUNT(a_id) > 10"), "{r}");
        assert!(r.contains("starrating > 4"), "{r}");
        assert!(r.contains("$m.metroid"), "{r}");
        // Qmu additionally filters @count>50 (Figure 26's extra HAVING).
        assert!(r.contains("HAVING COUNT(a_id) > 50"), "{r}");
        // The variable predicate @count<$idx is NOT composed.
        assert!(!r.contains("idx"), "{r}");
    }

    #[test]
    fn figure27_stylesheet_structure() {
        let rc = figure25();
        let x2 = &rc.stylesheet;
        assert_eq!(x2.rules.len(), 3);
        // R1' selects the down node with the variable predicate.
        let r1_selects: Vec<String> = x2.rules[0]
            .apply_templates()
            .iter()
            .map(|a| a.select.to_string())
            .collect();
        assert_eq!(r1_selects, vec!["metro_available_down[@count < $idx]"]);
        // R2' matches the down node and recurses to the up sibling.
        assert_eq!(x2.rules[1].node_name(), "metro_available_down");
        let r2_selects: Vec<String> = x2.rules[1]
            .apply_templates()
            .iter()
            .map(|a| a.select.to_string())
            .collect();
        assert_eq!(r2_selects, vec!["../metro_available_up"]);
        // R3' matches the up node and recurses back down, re-applying the
        // variable predicate.
        assert_eq!(x2.rules[2].node_name(), "metro_available_up");
        let r3_selects: Vec<String> = x2.rules[2]
            .apply_templates()
            .iter()
            .map(|a| a.select.to_string())
            .collect();
        assert_eq!(r3_selects, vec!["../metro_available_down[@count < $idx]"]);
        // Parameters survive.
        assert_eq!(x2.rules[1].params.len(), 1);
        assert_eq!(x2.rules[1].params[0].name, "idx");
    }

    #[test]
    fn residual_runs_on_materialized_view() {
        // x'(v'(I)) executes: the recursion bounces between the
        // materialized siblings and terminates via the $idx countdown.
        // Note the Figure 25 defaults are unsatisfiable (`@count < $idx`
        // with $idx=10 at the metro level can never hold together with
        // `@count > 10` at the hotel level, since the metro total dominates
        // the hotel count), so the driver passes a larger $idx.
        let rc = figure25();
        let db = dense_availability_database();
        let published = Engine::new(&rc.view).session().publish(&db).unwrap();
        let (doc, stats) = (published.document, published.stats);
        assert!(stats.elements > 0);
        // Only metro/down/up nodes are materialized — none of the hotel /
        // confstat / confroom intermediates (the §5.3 selling point).
        let xml = doc.to_xml();
        assert!(!xml.contains("<hotel "), "{xml}");
        assert!(!xml.contains("confroom"), "{xml}");
        assert!(xml.contains("<metro_available_down"), "{xml}");
        assert!(xml.contains("<metro_available_up"), "{xml}");
        let driver = driver_with_idx(&rc.stylesheet, 64);
        let out = process(&driver, &doc).unwrap();
        let out_xml = out.to_xml();
        assert!(out_xml.contains("<result_metro>"), "{out_xml}");
        // The countdown produces nested result_metroavail wrappers, ending
        // in a value-of copy when the predicate or countdown bottoms out.
        assert!(out_xml.contains("<result_metroavail>"), "{out_xml}");
        assert!(
            out_xml.matches("<result_metroavail>").count() >= 2,
            "{out_xml}"
        );
    }

    /// A driver that starts the Figure 25 recursion with an explicit $idx.
    fn driver_with_idx(stylesheet: &Stylesheet, idx: i64) -> Stylesheet {
        use xvc_xslt::WithParam;
        let mut apply = ApplyTemplates::new(PathExpr {
            absolute: false,
            steps: vec![Step::child("metro")],
        });
        apply.with_params.push(WithParam {
            name: "idx".into(),
            select: Expr::Number(idx as f64),
        });
        let mut rules = vec![TemplateRule::new(
            PathExpr::root(),
            vec![OutputNode::ApplyTemplates(apply)],
        )];
        rules.extend(stylesheet.rules.iter().cloned());
        Stylesheet { rules }
    }

    #[test]
    fn down_attrs_match_original_columns() {
        // The down/up nodes publish exactly the original metro_available
        // columns (here: `count`), despite the wider composed query.
        let rc = figure25();
        let db = dense_availability_database();
        let doc = Engine::new(&rc.view)
            .session()
            .publish(&db)
            .unwrap()
            .document;
        let xml = doc.to_xml();
        let down_open = xml
            .split('<')
            .find(|s| s.starts_with("metro_available_down"))
            .expect("a down element");
        assert!(down_open.contains("count=\""), "{down_open}");
        assert!(!down_open.contains("hotelid"), "{down_open}");
    }

    #[test]
    fn non_recursive_shapes_are_rejected() {
        let v = figure1_view();
        let x = parse_stylesheet(xvc_xslt::parse::FIGURE4_XSLT).unwrap();
        assert!(matches!(
            compose_recursive(&v, &x, &figure2_catalog()),
            Err(Error::NotComposable { .. })
        ));
    }
}
