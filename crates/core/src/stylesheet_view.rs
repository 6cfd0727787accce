//! Steps 3 and 4: output tag trees and the final stylesheet view
//! (§4.3, §4.4; Figures 7(b), 7(c), 14, 15, 16).
//!
//! Conceptually the paper first builds one output tag tree per TVQ node
//! (the rule's output fragment under a pseudo-root), connects them along
//! TVQ edges at the apply-templates positions, copies each TVQ node's tag
//! query onto its pseudo-root, and then removes pseudo-roots by pushing
//! queries down into their children. This module fuses those steps: it
//! walks the TVQ and instantiates each rule's output fragment directly
//! into the result [`SchemaTree`], carrying the tag query as a *carrier*
//! that the fragment's top-level nodes absorb:
//!
//! * a top-level literal element absorbs the query (generated once per
//!   tuple, publishing no tuple data — Figure 7(c)'s `<result_confstat>`);
//! * a top-level `<xsl:value-of select="."/>` absorbs the query *and*
//!   publishes the tuple (Figure 7(c)'s `<confroom>`);
//! * a top-level `<xsl:apply-templates>` triggers **forced unbinding**
//!   (Figures 15/16): the child TVQ node's query is unbound with the
//!   carrier query, the carrier's columns are added to its select list,
//!   and references to the vanished binding variable are renamed in the
//!   child's subtree (Figure 9 lines 33–42);
//! * nested occurrences of `value-of` become *context-copy* nodes
//!   ([`xvc_view::ViewNode::context_tuple_of`]), and `.[guard]`
//!   transitions produced by the §5.2 rewrites become guarded nodes.

use std::collections::HashMap;

use xvc_rel::rewrite::{rename_params, unbind_param_nested};
use xvc_rel::{Catalog, ScalarExpr, SelectItem, SelectQuery};
use xvc_view::{AttrProjection, SchemaTree, ViewNode, ViewNodeId};
use xvc_xpath::{Axis, Expr, NodeTest};
use xvc_xslt::{OutputNode, Stylesheet};

use crate::error::{Error, Result};
use crate::tvq::Tvq;
use crate::unbind::{rename_guard_params, UnboundQuery};

/// Builds the stylesheet view from the TVQ.
pub fn build_stylesheet_view(
    view: &SchemaTree,
    stylesheet: &Stylesheet,
    tvq: &Tvq,
    catalog: &Catalog,
) -> Result<SchemaTree> {
    let mut emitter = Emitter {
        view,
        stylesheet,
        tvq,
        catalog,
        out: SchemaTree::new(),
        next_id: 1,
        lit_counter: 0,
        copy_counter: 0,
        used_bvs: std::collections::HashSet::new(),
    };
    for &root in &tvq.roots {
        let out_root = emitter.out.root();
        emitter.emit_tvq_node(root, out_root, None, &HashMap::new())?;
    }
    let out = emitter.out;
    out.validate()?;
    Ok(out)
}

/// What a fragment's top-level nodes absorb.
#[derive(Debug, Clone)]
enum Carrier {
    /// Entry node: fragment elements are pure literals.
    None,
    /// A tag query; absorbing elements iterate its tuples.
    Query(SelectQuery),
    /// A reused binding with an optional guard.
    Rebind {
        source: String,
        guard: Option<ScalarExpr>,
    },
}

struct Emitter<'a> {
    view: &'a SchemaTree,
    stylesheet: &'a Stylesheet,
    tvq: &'a Tvq,
    catalog: &'a Catalog,
    out: SchemaTree,
    next_id: u32,
    lit_counter: usize,
    copy_counter: usize,
    /// Binding variables already bound by emitted nodes: several sibling
    /// elements can absorb the same carrier (a multi-element fragment, or
    /// guarded self-transitions folded into copies of one query), and each
    /// needs its own variable.
    used_bvs: std::collections::HashSet<String>,
}

impl Emitter<'_> {
    fn fresh_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Claims a binding variable for an emitted query node, uniquifying on
    /// collision (`m_new`, `m_new__2`, …).
    fn claim_bv(&mut self, wanted: &str) -> String {
        if self.used_bvs.insert(wanted.to_owned()) {
            return wanted.to_owned();
        }
        let mut i = 2;
        loop {
            let cand = format!("{wanted}__{i}");
            if self.used_bvs.insert(cand.clone()) {
                return cand;
            }
            i += 1;
        }
    }

    /// Emits TVQ node `w` under `parent_vid`. `carrier_override` replaces
    /// the node's own binding (forced unbinding); `renames` maps binding
    /// variables that were eliminated upstream.
    fn emit_tvq_node(
        &mut self,
        w_idx: usize,
        parent_vid: ViewNodeId,
        carrier_override: Option<Carrier>,
        renames: &HashMap<String, String>,
    ) -> Result<()> {
        let w = &self.tvq.nodes[w_idx];
        let carrier = match carrier_override {
            Some(c) => c,
            None => {
                if w.is_entry {
                    Carrier::None
                } else {
                    match &w.binding {
                        UnboundQuery::Query(q) => {
                            let mut q = q.clone();
                            rename_params(&mut q, renames);
                            Carrier::Query(q)
                        }
                        UnboundQuery::Rebind { source, guard } => Carrier::Rebind {
                            source: renames
                                .get(source)
                                .cloned()
                                .unwrap_or_else(|| source.clone()),
                            guard: guard.clone().map(|mut g| {
                                rename_guard_params(&mut g, renames);
                                g
                            }),
                        },
                        // Literal transition target: once per parent, no tuple.
                        UnboundQuery::Literal => Carrier::None,
                    }
                }
            }
        };
        let ctx_bv: Option<String> = if w.is_entry {
            None
        } else {
            match &carrier {
                Carrier::Query(_) => Some(w.bv.clone()),
                Carrier::Rebind { source, .. } => Some(source.clone()),
                Carrier::None => None,
            }
        };
        let output = self.stylesheet.rules[w.rule].output.clone();
        let mut apply_counter = 0usize;
        for node in &output {
            self.emit_fragment(
                node,
                parent_vid,
                Some(&carrier),
                w_idx,
                ctx_bv.as_deref(),
                &mut apply_counter,
                renames,
            )?;
        }
        Ok(())
    }

    /// Emits one output-fragment node. `carrier` is `Some` only at the top
    /// level of a rule's fragment (the pseudo-root's children).
    #[allow(clippy::too_many_arguments)]
    fn emit_fragment(
        &mut self,
        node: &OutputNode,
        parent_vid: ViewNodeId,
        carrier: Option<&Carrier>,
        w_idx: usize,
        ctx_bv: Option<&str>,
        apply_counter: &mut usize,
        renames: &HashMap<String, String>,
    ) -> Result<()> {
        match node {
            OutputNode::Element {
                name,
                attrs,
                children,
            } => {
                // Prescan: value-of/copy-of on attributes attach to this
                // element rather than becoming nodes.
                let mut attr_cols: Vec<String> = Vec::new();
                let mut body: Vec<&OutputNode> = Vec::new();
                for c in children {
                    if let Some(a) = as_attr_select(c) {
                        if !attr_cols.contains(&a) {
                            attr_cols.push(a);
                        }
                    } else {
                        body.push(c);
                    }
                }
                let id = self.fresh_id();
                let mut claimed: Option<(String, String)> = None;
                let vnode = match carrier {
                    Some(Carrier::Query(q)) => {
                        let wanted = self.tvq.nodes[w_idx].bv.clone();
                        let bv = self.claim_bv(&wanted);
                        if bv != wanted {
                            claimed = Some((wanted, bv.clone()));
                        }
                        ViewNode {
                            id,
                            tag: name.clone(),
                            bv,
                            query: Some(q.clone()),
                            attrs: projection(&attr_cols),
                            static_attrs: attrs.clone(),
                            context_tuple_of: None,
                            guard: None,
                            query_span: Default::default(),
                        }
                    }
                    Some(Carrier::Rebind { source, guard }) => {
                        let w = &self.tvq.nodes[w_idx];
                        ViewNode {
                            id,
                            tag: name.clone(),
                            bv: w.bv.clone(),
                            query: None,
                            attrs: projection(&attr_cols),
                            static_attrs: attrs.clone(),
                            context_tuple_of: Some(source.clone()),
                            guard: guard.clone(),
                            query_span: Default::default(),
                        }
                    }
                    Some(Carrier::None) | None => {
                        if attr_cols.is_empty() {
                            let mut n = ViewNode::literal(id, name.clone());
                            n.static_attrs = attrs.clone();
                            n
                        } else {
                            // Nested literal carrying tuple attributes:
                            // a parameter-projection query.
                            let ctx = ctx_bv.ok_or_else(|| Error::NotComposable {
                                reason: format!(
                                    "<xsl:value-of select=\"@...\"/> inside <{name}> has no \
                                     context tuple (rule matching the document root)"
                                ),
                            })?;
                            self.lit_counter += 1;
                            let q = SelectQuery::new(
                                attr_cols
                                    .iter()
                                    .map(|a| SelectItem::aliased(ScalarExpr::param(ctx, a), a))
                                    .collect(),
                                vec![],
                            );
                            ViewNode {
                                id,
                                tag: name.clone(),
                                bv: format!("__lit{}", self.lit_counter),
                                query: Some(q),
                                attrs: AttrProjection::Columns(attr_cols.clone()),
                                static_attrs: attrs.clone(),
                                context_tuple_of: None,
                                guard: None,
                                query_span: Default::default(),
                            }
                        }
                    }
                };
                let node_bv = vnode.bv.clone();
                let vid = self.out.add_child(parent_vid, vnode)?;
                // Cascade a bv rename (and the new context variable) into
                // the element's subtree when the carrier variable was
                // uniquified.
                let (sub_renames, sub_ctx);
                let (renames_ref, ctx_ref): (&HashMap<String, String>, Option<&str>) = match claimed
                {
                    Some((old, new)) => {
                        let mut m = renames.clone();
                        m.insert(old, new);
                        sub_renames = m;
                        sub_ctx = node_bv;
                        (&sub_renames, Some(sub_ctx.as_str()))
                    }
                    None => (renames, ctx_bv),
                };
                for c in body {
                    self.emit_fragment(c, vid, None, w_idx, ctx_ref, apply_counter, renames_ref)?;
                }
                Ok(())
            }
            OutputNode::ApplyTemplates(_) => {
                let ordinal = *apply_counter;
                *apply_counter += 1;
                let children: Vec<usize> = self.tvq.nodes[w_idx]
                    .children
                    .iter()
                    .filter(|&&(_, a)| a == ordinal)
                    .map(|&(c, _)| c)
                    .collect();
                match carrier {
                    // Top-level apply-templates: forced unbinding
                    // (Figures 15/16, Figure 9 lines 33–42).
                    Some(Carrier::Query(q_parent)) => {
                        let parent_bv = self.tvq.nodes[w_idx].bv.clone();
                        for c in children {
                            self.emit_forced(c, parent_vid, q_parent.clone(), &parent_bv, renames)?;
                        }
                        Ok(())
                    }
                    Some(Carrier::Rebind { source, guard }) => {
                        // The rule has no output of its own and its context
                        // is a reused tuple: children keep their own
                        // queries; the guard gates them.
                        for c in children {
                            let w2 = &self.tvq.nodes[c];
                            let override_carrier = match (&w2.binding, guard) {
                                (UnboundQuery::Query(q2), Some(g)) => {
                                    let mut q2 = q2.clone();
                                    q2.and_where(g.clone());
                                    Some(Carrier::Query(q2))
                                }
                                (
                                    UnboundQuery::Rebind {
                                        source: s2,
                                        guard: g2,
                                    },
                                    g,
                                ) => {
                                    let merged = match (g2.clone(), g.clone()) {
                                        (None, None) => None,
                                        (Some(a), None) | (None, Some(a)) => Some(a),
                                        (Some(a), Some(b)) => {
                                            Some(ScalarExpr::binary(xvc_rel::BinOp::And, a, b))
                                        }
                                    };
                                    Some(Carrier::Rebind {
                                        source: s2.clone(),
                                        guard: merged,
                                    })
                                }
                                _ => None,
                            };
                            let _ = source;
                            self.emit_tvq_node(c, parent_vid, override_carrier, renames)?;
                        }
                        Ok(())
                    }
                    // Entry node (root rule) or nested position: children
                    // attach where the apply node sat.
                    Some(Carrier::None) | None => {
                        for c in children {
                            self.emit_tvq_node(c, parent_vid, None, renames)?;
                        }
                        Ok(())
                    }
                }
            }
            OutputNode::ValueOf { select, .. } | OutputNode::CopyOf { select, .. } => {
                let deep = matches!(node, OutputNode::CopyOf { .. });
                match classify_value_select(select) {
                    ValueSelect::Context => {
                        self.emit_context_value(parent_vid, carrier, w_idx, ctx_bv, deep, renames)
                    }
                    ValueSelect::Attribute(a) => Err(Error::NotComposable {
                        reason: format!(
                            "<xsl:value-of select=\"@{a}\"/> outside a literal \
                             result element has nothing to attach to"
                        ),
                    }),
                    ValueSelect::Other => Err(Error::NotComposable {
                        reason: format!(
                            "value-of/copy-of select `{select}` is outside XSLT_basic \
                             restriction (10); lower it with the §5.2 rewrites first"
                        ),
                    }),
                }
            }
            OutputNode::Text(_) => Err(Error::NotComposable {
                reason: "literal text in an output fragment (the paper's output \
                         model is attribute-only, §2.2.2 restriction (10))"
                    .into(),
            }),
            OutputNode::If { .. } | OutputNode::Choose { .. } | OutputNode::ForEach { .. } => {
                Err(Error::NotComposable {
                    reason: "flow-control element in an output fragment; lower the \
                             stylesheet first via Composer::rewrites(true) (§5.2)"
                        .into(),
                })
            }
        }
    }

    /// `<xsl:value-of select="."/>` / `<xsl:copy-of select="."/>`:
    /// a copy of the context element (Figure 7(c)'s `<confroom>` node).
    fn emit_context_value(
        &mut self,
        parent_vid: ViewNodeId,
        carrier: Option<&Carrier>,
        w_idx: usize,
        ctx_bv: Option<&str>,
        deep: bool,
        renames: &HashMap<String, String>,
    ) -> Result<()> {
        let w = &self.tvq.nodes[w_idx];
        let view_node = self.view.node(w.view).ok_or_else(|| Error::NotComposable {
            reason: "value-of \".\" in a rule matching the document root".into(),
        })?;
        // A literal context node: its copy is a literal clone (tag +
        // static attributes).
        if view_node.query.is_none() && view_node.context_tuple_of.is_none() {
            let id = self.fresh_id();
            let mut clone = ViewNode::literal(id, view_node.tag.clone());
            clone.static_attrs = view_node.static_attrs.clone();
            let vid = self.out.add_child(parent_vid, clone)?;
            if deep {
                let map = HashMap::new();
                let children: Vec<ViewNodeId> = self.view.children(w.view).to_vec();
                for c in children {
                    self.graft_subtree(c, vid, &map)?;
                }
            }
            return Ok(());
        }
        let tag = view_node.tag.clone();
        let orig_bv = view_node.bv.clone();
        // The composed tuple is wider than the original element (ancestor
        // columns ride along through `TEMP.*`); publish exactly the
        // original node's columns so the copy matches the XSLT output.
        let orig_cols = match &view_node.query {
            Some(q) => AttrProjection::Columns(q.output_columns(&|n| self.catalog.get(n))?),
            None => AttrProjection::All,
        };
        let id = self.fresh_id();
        let vnode = match carrier {
            Some(Carrier::Query(q)) => {
                let wanted = w.bv.clone();
                let bv = self.claim_bv(&wanted);
                ViewNode {
                    id,
                    tag,
                    bv,
                    query: Some(q.clone()),
                    attrs: orig_cols,
                    static_attrs: Vec::new(),
                    context_tuple_of: None,
                    guard: None,
                    query_span: Default::default(),
                }
            }
            Some(Carrier::Rebind { source, guard }) => ViewNode {
                id,
                tag,
                bv: w.bv.clone(),
                query: None,
                attrs: orig_cols,
                static_attrs: Vec::new(),
                context_tuple_of: Some(source.clone()),
                guard: guard.clone(),
                query_span: Default::default(),
            },
            Some(Carrier::None) | None => {
                let ctx = ctx_bv.ok_or_else(|| Error::NotComposable {
                    reason: "value-of \".\" has no context tuple here".into(),
                })?;
                self.copy_counter += 1;
                ViewNode {
                    id,
                    tag,
                    bv: format!("__ctx{}", self.copy_counter),
                    query: None,
                    attrs: orig_cols,
                    static_attrs: Vec::new(),
                    context_tuple_of: Some(ctx.to_owned()),
                    guard: None,
                    query_span: Default::default(),
                }
            }
        };
        let node_bv = vnode.bv.clone();
        let vid = self.out.add_child(parent_vid, vnode)?;
        if deep {
            // copy-of: re-publish the original subtree beneath the copy.
            let mut map = self.tvq.nodes[w_idx].bvmap.clone();
            for v in map.values_mut() {
                if let Some(r) = renames.get(v) {
                    *v = r.clone();
                }
            }
            map.insert(orig_bv, node_bv);
            let children: Vec<ViewNodeId> = self.view.children(w.view).to_vec();
            for c in children {
                self.graft_subtree(c, vid, &map)?;
            }
        }
        Ok(())
    }

    /// Deep-copies an original view subtree into the output, renaming
    /// binding variables so grafted tag queries reference output bindings.
    fn graft_subtree(
        &mut self,
        orig: ViewNodeId,
        parent_vid: ViewNodeId,
        bv_renames: &HashMap<String, String>,
    ) -> Result<()> {
        let n = self.view.node(orig).expect("non-root").clone();
        self.copy_counter += 1;
        let new_bv = format!("{}__cp{}", n.bv, self.copy_counter);
        let mut map = bv_renames.clone();
        map.insert(n.bv.clone(), new_bv.clone());
        let mut query = n.query.clone();
        if let Some(q) = &mut query {
            rename_params(q, &map);
        }
        let id = self.fresh_id();
        let vid = self.out.add_child(
            parent_vid,
            ViewNode {
                id,
                tag: n.tag.clone(),
                bv: new_bv,
                query,
                attrs: n.attrs.clone(),
                static_attrs: n.static_attrs.clone(),
                context_tuple_of: None,
                guard: None,
                query_span: Default::default(),
            },
        )?;
        let children: Vec<ViewNodeId> = self.view.children(orig).to_vec();
        for c in children {
            self.graft_subtree(c, vid, &map)?;
        }
        Ok(())
    }

    /// Forced unbinding (Figures 15/16): the parent rule produced no
    /// element; the child's query swallows the parent's query as a derived
    /// table and the parent's binding variable disappears.
    fn emit_forced(
        &mut self,
        child_idx: usize,
        parent_vid: ViewNodeId,
        parent_query: SelectQuery,
        parent_bv: &str,
        renames: &HashMap<String, String>,
    ) -> Result<()> {
        let child = &self.tvq.nodes[child_idx];
        match &child.binding {
            UnboundQuery::Query(q2) => {
                let mut q2 = q2.clone();
                rename_params(&mut q2, renames);
                unbind_param_nested(&mut q2, parent_bv, &parent_query, self.catalog)?;
                // References to the vanished parent binding in the child's
                // subtree now resolve through the child's own tuple
                // (Figure 9 line 41).
                let mut child_renames = renames.clone();
                child_renames.insert(parent_bv.to_owned(), child.bv.clone());
                self.emit_tvq_node(
                    child_idx,
                    parent_vid,
                    Some(Carrier::Query(q2)),
                    &child_renames,
                )?;
                Ok(())
            }
            UnboundQuery::Rebind { source, guard } if source == parent_bv => {
                // A guarded self-transition under an output-less rule: the
                // parent's tuple is never materialized, so the child's
                // elements iterate the parent query directly, with the
                // guard folded in (WHERE for plain columns, HAVING for
                // aggregate outputs).
                let mut q2 = parent_query;
                if let Some(g) = guard {
                    fold_guard_into_query(&mut q2, g, source, self.catalog)?;
                }
                self.emit_tvq_node(child_idx, parent_vid, Some(Carrier::Query(q2)), renames)
            }
            UnboundQuery::Rebind { .. } => self.emit_tvq_node(child_idx, parent_vid, None, renames),
            // A literal child under an output-less rule: the parent query's
            // tuples are never materialized, but the child occurs once per
            // parent *tuple* — absorb the parent query with no published
            // data by handing it down as the carrier.
            UnboundQuery::Literal => self.emit_tvq_node(
                child_idx,
                parent_vid,
                Some(Carrier::Query(parent_query)),
                renames,
            ),
        }
    }
}

/// Folds a rebind guard (conditions over `$source.col`) into the query
/// that computes `source`'s tuples: `$source.col` becomes what the query
/// publishes `col` from ([`SelectQuery::published`], over the FROM items
/// `catalog` describes) — aggregate outputs land in HAVING, everything
/// else in WHERE. EXISTS subqueries inside the guard correlate through
/// unqualified columns.
fn fold_guard_into_query(
    q: &mut SelectQuery,
    guard: &ScalarExpr,
    source: &str,
    catalog: &Catalog,
) -> Result<()> {
    fn translate(
        e: &ScalarExpr,
        source: &str,
        q: &SelectQuery,
        catalog: &Catalog,
        has_agg: &mut bool,
    ) -> Result<ScalarExpr> {
        Ok(match e {
            ScalarExpr::Param { var, column } if var == source => {
                let e = q.published(column, &|n| catalog.get(n))?;
                *has_agg |= e.contains_aggregate();
                e
            }
            ScalarExpr::Binary { op, lhs, rhs } => ScalarExpr::Binary {
                op: *op,
                lhs: Box::new(translate(lhs, source, q, catalog, has_agg)?),
                rhs: Box::new(translate(rhs, source, q, catalog, has_agg)?),
            },
            ScalarExpr::Not(i) => {
                ScalarExpr::Not(Box::new(translate(i, source, q, catalog, has_agg)?))
            }
            ScalarExpr::IsNull(i) => {
                ScalarExpr::IsNull(Box::new(translate(i, source, q, catalog, has_agg)?))
            }
            ScalarExpr::Exists(sub) => {
                let mut sub = sub.clone();
                sub.walk_mut(&mut |e| {
                    if let ScalarExpr::Param { var, column } = e {
                        if var == source {
                            *e = ScalarExpr::Column {
                                qualifier: None,
                                name: column.clone(),
                            };
                        }
                    }
                });
                ScalarExpr::Exists(sub)
            }
            other => other.clone(),
        })
    }
    for part in guard.conjuncts() {
        let mut has_agg = false;
        let translated = translate(part, source, q, catalog, &mut has_agg)?;
        if has_agg {
            q.and_having(translated);
        } else {
            q.and_where(translated);
        }
    }
    Ok(())
}

fn projection(attr_cols: &[String]) -> AttrProjection {
    if attr_cols.is_empty() {
        AttrProjection::None
    } else {
        AttrProjection::Columns(attr_cols.to_vec())
    }
}

/// Detects `<xsl:value-of select="@attr"/>` (also copy-of) as a child that
/// attaches an attribute to its parent element.
fn as_attr_select(node: &OutputNode) -> Option<String> {
    let (OutputNode::ValueOf { select, .. } | OutputNode::CopyOf { select, .. }) = node else {
        return None;
    };
    match classify_value_select(select) {
        ValueSelect::Attribute(a) => Some(a),
        _ => None,
    }
}

enum ValueSelect {
    /// `.`
    Context,
    /// `@attr`
    Attribute(String),
    /// anything else (outside restriction (10))
    Other,
}

fn classify_value_select(select: &Expr) -> ValueSelect {
    let Expr::Path(p) = select else {
        return ValueSelect::Other;
    };
    if p.absolute || p.steps.len() != 1 {
        return ValueSelect::Other;
    }
    let step = &p.steps[0];
    if !step.predicates.is_empty() {
        return ValueSelect::Other;
    }
    match (step.axis, &step.test) {
        (Axis::SelfAxis, NodeTest::Wildcard) => ValueSelect::Context,
        (Axis::Attribute, NodeTest::Name(a)) => ValueSelect::Attribute(a.clone()),
        _ => ValueSelect::Other,
    }
}
