//! `UNBIND` and `NEST` — translating a select-match subtree into a
//! parameterized SQL tag query (Figures 10–13, with the Figure 19
//! predicate changes).
//!
//! Given a select-match subtree `smt` with query context node `m` and new
//! query context node `n`:
//!
//! * the **chain** `child_n(nj) → n` below the lowest common ancestor `nj`
//!   is folded into one query bottom-up: each node's tag query has its
//!   ancestor references replaced by a derived table computing the
//!   (recursively unbound) prefix — the paper's
//!   `(SELECT * FROM hotel ...) AS TEMP`. When the node's query
//!   aggregates, `GROUP BY` over all derived columns preserves the
//!   per-tuple aggregation semantics, and `TEMP.*` keeps the ancestors'
//!   attributes flowing (Figure 13 lines 5–6);
//! * **branch nodes** of the subtree (e.g. the `hotel_available` sibling
//!   required by `../hotel_available/../confroom`) become `EXISTS`
//!   conditions built by `NEST` (Figure 11), recursively;
//! * **context-side** nodes (the path root → `m`) contribute `EXISTS`
//!   checks for their non-path children (Figure 13 lines 7–11) and
//!   binding-tuple conditions for their predicates (Figure 19);
//! * a **binding-variable map** is produced per Figure 13 lines 12–18 and
//!   the query's parameters renamed through it (Figure 9 lines 19–22).
//!
//! The degenerate case where `n` is an ancestor-or-self of `m` (selects
//! like `.` or `..`, which arise from the §5.2 flow-control rewrites) has
//! an empty chain: no SQL is generated; instead the caller receives a
//! [`UnboundQuery::Rebind`] telling it to reuse an already-bound tuple,
//! optionally guarded by the subtree's predicates.

use std::collections::HashMap;

use xvc_rel::rewrite::{
    binds_alias, fresh_alias, fresh_alias_among, preserve_aggregation, qualify_level_columns,
    refresh_group_by_all, rename_params, unbind_param_nested,
};
use xvc_rel::{Catalog, ScalarExpr, SelectItem, SelectQuery, TableRef};
use xvc_view::SchemaTree;

use crate::error::{Error, Result};
use crate::predicate;
use crate::tree_pattern::{TpId, TreePattern};

/// Result of unbinding one select-match subtree.
#[derive(Debug, Clone, PartialEq)]
pub enum UnboundQuery {
    /// A real tag query for the new TVQ node.
    Query(SelectQuery),
    /// The new context is an ancestor-or-self of the old one: the new TVQ
    /// node re-uses the tuple already bound to `source` (a TVQ binding
    /// variable), guarded by `guard` (already renamed through the bvmap).
    Rebind {
        /// TVQ binding variable whose tuple is reused.
        source: String,
        /// Conjunctive guard; the element is produced only when it holds.
        guard: Option<ScalarExpr>,
    },
    /// The new context is a *literal* node (no tag query — it occurs
    /// exactly once per parent instance). Arises when re-composing a
    /// stylesheet with an already-composed view, whose literal skeleton
    /// nodes carry no queries.
    Literal,
}

/// Output of [`unbind_smt`].
#[derive(Debug, Clone, PartialEq)]
pub struct UnbindResult {
    /// The generated tag query (or rebind instruction).
    pub query: UnboundQuery,
    /// `bvmap(w2)`: original schema-tree binding variables → TVQ binding
    /// variables, for renaming descendants' parameters.
    pub bvmap: HashMap<String, String>,
}

/// The UNBIND function of Figure 13 (+ Figure 12 nesting and Figure 19
/// predicates). `new_bv` is `bv(w2)`; `parent_bvmap` is `bvmap(w1)`.
pub fn unbind_smt(
    view: &SchemaTree,
    smt: &TreePattern,
    new_bv: &str,
    parent_bvmap: &HashMap<String, String>,
    catalog: &Catalog,
) -> Result<UnbindResult> {
    let m = smt.context;
    let n = smt.new_context;
    let nj = smt.lca(m, n);

    // S: nodes along child_m(nj) → m, whose bvmap entries are dropped
    // (Figure 13 lines 15–18).
    let s_path = smt.path_below(nj, m).unwrap_or_default();
    let mut bvmap = parent_bvmap.clone();
    for &p in &s_path {
        if let Some(bv) = view.bv(smt.view(p)) {
            bvmap.remove(bv);
        }
    }

    // R: nodes along child_n(nj) → n (Figure 13 line 4).
    let Some(r_path) = smt.path_below(nj, n) else {
        // n is an ancestor-or-self of m: empty chain — rebind.
        return rebind(view, smt, n, bvmap, catalog);
    };
    for &p in &r_path {
        if let Some(bv) = view.bv(smt.view(p)) {
            bvmap.insert(bv.to_owned(), new_bv.to_owned());
        }
    }

    // Literal chain nodes (no tag query) occur exactly once per parent
    // instance: they are transparent to the chain. Predicates or guards on
    // them cannot be expressed as data conditions.
    for &p in &r_path {
        let node = view.node(smt.view(p)).expect("non-root chain node");
        if node.query.is_none() {
            if !smt.predicates(p).is_empty() {
                return Err(Error::NotComposable {
                    reason: format!(
                        "predicate on the literal node <{}> (it carries no data)",
                        node.tag
                    ),
                });
            }
            if node.guard.is_some() || node.context_tuple_of.is_some() {
                return Err(Error::NotComposable {
                    reason: format!(
                        "re-composition through the guarded/copied node <{}> is \
                         not supported",
                        node.tag
                    ),
                });
            }
        }
    }
    let chain: Vec<TpId> = r_path
        .iter()
        .copied()
        .filter(|&p| {
            view.node(smt.view(p))
                .map(|n| n.query.is_some())
                .unwrap_or(false)
        })
        .collect();
    if chain.is_empty() {
        // The target (and every chain node) is literal: once per parent.
        return Ok(UnbindResult {
            query: UnboundQuery::Literal,
            bvmap,
        });
    }
    if view
        .node(smt.view(n))
        .map(|x| x.query.is_none())
        .unwrap_or(false)
    {
        return Err(Error::NotComposable {
            reason: "a literal node below query nodes as a transition target \
                     is not yet supported"
                .into(),
        });
    }

    // Fold the chain bottom-up into one query (Figures 10/12).
    let mut q = chain_query(view, smt, &chain, &chain, catalog)?;

    // Context side (Figure 13 lines 7–11 + Figure 19): walk root → m.
    // Binding variables on the S path were just dropped from the bvmap, so
    // context-side conditions pre-map through the *parent* bvmap: the
    // paper's `$s_new.sum < 200` refers to the parent TVQ node's tuple.
    let p_path = smt.path_from_root(m);
    for &p in &p_path {
        let pvid = smt.view(p);
        if !view.is_root(pvid) {
            if let Some(bv) = view.bv(pvid) {
                let mapped = parent_bvmap.get(bv).map(String::as_str).unwrap_or(bv);
                for pred in smt.predicates(p) {
                    q.and_where(predicate::to_param_condition(mapped, pred)?);
                }
            }
        }
        for &c in smt.children(p) {
            if p_path.contains(&c) || r_path.contains(&c) {
                continue;
            }
            // `sub` references $bv(p): p's tuple is a binding parameter
            // here; pre-map S-path variables through the parent bvmap.
            let mut sub = nest(view, smt, c, catalog)?;
            rename_params(&mut sub, parent_bvmap);
            q.and_where(exists_maybe_negated(smt, c, sub));
        }
    }

    // Rename binding variables through bvmap(w2) (Figure 9 lines 21–22).
    rename_params(&mut q, &bvmap);

    Ok(UnbindResult {
        query: UnboundQuery::Query(q),
        bvmap,
    })
}

/// Chain folding: returns the query for the last node of `chain`, with all
/// higher chain nodes folded in as one nested derived table.
fn chain_query(
    view: &SchemaTree,
    smt: &TreePattern,
    chain: &[TpId],
    full_chain: &[TpId],
    catalog: &Catalog,
) -> Result<SelectQuery> {
    let (last, prefix) = chain.split_last().expect("chain is non-empty");
    let mut q = prepared(view, smt, *last, full_chain, catalog)?;
    if prefix.is_empty() {
        return Ok(q);
    }
    let implicit_agg = q.is_aggregating() && q.group_by.is_empty();
    let prefix_query = chain_query(view, smt, prefix, full_chain, catalog)?;
    // Qualify the level's existing column references that the derived
    // table would collide with (the paper's own Figure 26 leaves exactly
    // this `startdate` ambiguity in print).
    let prefix_cols = prefix_query.output_columns(&|n| catalog.get(n))?;
    qualify_level_columns(&mut q, catalog, &prefix_cols)?;
    let prefix_bvs: Vec<String> = prefix
        .iter()
        .filter_map(|&p| view.bv(smt.view(p)).map(str::to_owned))
        .collect();

    // Scope classification of the prefix references: the query's own
    // level (select/where/group/having, including whole EXISTS
    // subqueries, which can correlate to an outer FROM alias) vs. inside
    // FROM derived tables (which cannot see sibling aliases — those embed
    // their own copy of the prefix, the paper's Figure 16 nesting). A
    // variable referenced at both scopes would need two copies joined on
    // tuple identity, which is out of scope.
    let mut scope_vars: Vec<String> = Vec::new();
    for e in q.exprs() {
        e.walk(&mut |node| match node {
            ScalarExpr::Param { var, .. } => scope_vars.push(var.clone()),
            ScalarExpr::Exists(sub) => scope_vars.extend(sub.parameters()),
            _ => {}
        });
    }
    let top_refs = prefix_bvs.iter().any(|b| scope_vars.contains(b));
    let mut derived_refs: Vec<String> = Vec::new();
    for t in &q.from {
        if let TableRef::Derived { query, .. } = t {
            for var in query.parameters() {
                if prefix_bvs.contains(&var) && !derived_refs.contains(&var) {
                    derived_refs.push(var);
                }
            }
        }
    }
    if let Some(var) = derived_refs.iter().find(|var| scope_vars.contains(var)) {
        return Err(Error::NotComposable {
            reason: format!(
                "${var} is referenced both at the query level and inside \
                 a derived table (mixed-scope re-composition)"
            ),
        });
    }

    if !derived_refs.is_empty() {
        // Embed a prefix copy inside each referencing derived table.
        let mut widened: Vec<String> = Vec::new();
        for t in &mut q.from {
            if let TableRef::Derived { query, alias, .. } = t {
                let mut changed = false;
                for var in &derived_refs {
                    if unbind_param_nested(query, var, &prefix_query, catalog)? {
                        changed = true;
                    }
                }
                if changed {
                    widened.push(alias.clone());
                }
            }
        }
        for alias in widened {
            refresh_group_by_all(&mut q, &alias, catalog)?;
        }
    }

    if top_refs || derived_refs.is_empty() {
        // Shared prefix alias at this level. When no parameter links the
        // levels at all, the derived table still joins in (as a cross
        // product), preserving the per-prefix-tuple multiplicity of the
        // original traversal.
        let alias = fresh_alias(&q);
        let to_alias = |node: &mut ScalarExpr| {
            if let ScalarExpr::Param { var, column } = node {
                if prefix_bvs.contains(var) {
                    *node = ScalarExpr::qcol(&alias, column.clone());
                }
            }
        };
        for e in q.exprs_mut() {
            e.walk_mut(&mut |node| {
                to_alias(node);
                if let ScalarExpr::Exists(sub) = node {
                    sub.walk_mut(&mut |inner| to_alias(inner));
                }
            });
        }
        q.from.push(TableRef::Derived {
            query: Box::new(prefix_query),
            alias: alias.clone(),
            // Implicit aggregation ⇒ the original query returns a row per
            // prefix tuple even over empty input; preserve the prefix side.
            preserved: implicit_agg,
        });
        preserve_aggregation(&mut q, &alias, catalog)?;
    }
    Ok(q)
}

/// A chain node's tag query with its own predicates pushed in and its
/// branch children turned into EXISTS conditions.
fn prepared(
    view: &SchemaTree,
    smt: &TreePattern,
    p: TpId,
    chain: &[TpId],
    catalog: &Catalog,
) -> Result<SelectQuery> {
    let pvid = smt.view(p);
    let node = view.node(pvid).ok_or_else(|| Error::NotComposable {
        reason: "select-match chain passes through the document root".into(),
    })?;
    let Some(query) = &node.query else {
        return Err(Error::NotComposable {
            reason: format!("view node <{}> has no tag query", node.tag),
        });
    };
    let mut q = query.clone();
    for pred in smt.predicates(p) {
        predicate::push_into_query(&mut q, pred, catalog)?;
    }
    for &c in smt.children(p) {
        if chain.contains(&c) {
            continue;
        }
        let mut sub = nest(view, smt, c, catalog)?;
        // The branch query references $bv(p); inside the EXISTS it
        // correlates with the enclosing FROM, so the parameter becomes a
        // qualified column reference resolved through the outer scope.
        if let Some(bv) = view.bv(pvid) {
            correlate_exists(&mut q, &mut sub, bv, catalog)?;
        }
        q.and_where(exists_maybe_negated(smt, c, sub));
    }
    Ok(q)
}

/// `EXISTS (sub)` or `NOT (EXISTS (sub))` depending on the branch flag
/// (negated branches come from `not(path)` predicates, §5.1 extension).
fn exists_maybe_negated(smt: &TreePattern, c: TpId, sub: SelectQuery) -> ScalarExpr {
    let e = ScalarExpr::Exists(Box::new(sub));
    if smt.is_negated(c) {
        ScalarExpr::Not(Box::new(e))
    } else {
        e
    }
}

/// `NEST(p, NULL)` of Figure 11: the existence query for a branch node and
/// all of its required descendants (with the Figure 19 predicate change).
pub fn nest(
    view: &SchemaTree,
    smt: &TreePattern,
    c: TpId,
    catalog: &Catalog,
) -> Result<SelectQuery> {
    let cvid = smt.view(c);
    let node = view.node(cvid).ok_or_else(|| Error::NotComposable {
        reason: "NEST reached the document root".into(),
    })?;
    let Some(query) = &node.query else {
        // Literal node: exists iff its required children exist (it itself
        // occurs once per parent). `SELECT 1` over an empty FROM yields a
        // single row; child conditions attach beneath it.
        if !smt.predicates(c).is_empty() {
            return Err(Error::NotComposable {
                reason: format!(
                    "predicate on the literal node <{}> (it carries no data)",
                    node.tag
                ),
            });
        }
        let mut q = SelectQuery::new(vec![SelectItem::expr(ScalarExpr::int(1))], vec![]);
        for &cc in smt.children(c) {
            let sub = nest(view, smt, cc, catalog)?;
            q.and_where(exists_maybe_negated(smt, cc, sub));
        }
        return Ok(q);
    };
    let mut q = query.clone();
    for pred in smt.predicates(c) {
        predicate::push_into_query(&mut q, pred, catalog)?;
    }
    for &cc in smt.children(c) {
        let mut sub = nest(view, smt, cc, catalog)?;
        if let Some(bv) = view.bv(cvid) {
            correlate_exists(&mut q, &mut sub, bv, catalog)?;
        }
        q.and_where(exists_maybe_negated(smt, cc, sub));
    }
    Ok(q)
}

/// Correlates an EXISTS subquery `sub` (which references the enclosing
/// node's tuple as `$bv.col`) with the enclosing query `outer`.
///
/// Naively rewriting `$bv.col` to a bare column breaks when the subquery's
/// own FROM clause binds the same column name (e.g. Qv's
/// `startdate = $a.startdate` where both queries scan `availability`) —
/// the inner column would shadow the outer one. This is exactly the
/// renaming the paper waves at ("care must be taken in NEST to rename
/// tables during processing to avoid namespace collision", §4.2.1): the
/// outer FROM item providing the column is given a unique alias when
/// needed, and the reference becomes a qualified column that resolves
/// through the outer scope.
fn correlate_exists(
    outer: &mut SelectQuery,
    sub: &mut SelectQuery,
    bv: &str,
    catalog: &Catalog,
) -> Result<()> {
    // Columns of the enclosing tuple referenced by the subquery.
    let mut cols: Vec<String> = Vec::new();
    sub.walk(&mut |e| {
        if let ScalarExpr::Param { var, column } = e {
            if var == bv && !cols.contains(column) {
                cols.push(column.clone());
            }
        }
    });
    if cols.is_empty() {
        return Ok(());
    }
    let mut mapping: HashMap<String, (String, String)> = HashMap::new();
    for col in &cols {
        let (pref_qualifier, name) = resolve_output_column(outer, col, catalog)?;
        let from_idx = find_from_item(outer, pref_qualifier.as_deref(), &name, catalog)?;
        let binding = outer.from[from_idx].binding_name().to_owned();
        let qualifier = if binds_alias(sub, &binding) {
            // The subquery shadows this name: rename the outer FROM item.
            let fresh = fresh_alias_among(&[&*outer, &*sub], "XO");
            rename_from_item(outer, from_idx, &fresh);
            fresh
        } else {
            binding
        };
        mapping.insert(col.clone(), (qualifier, name));
    }
    sub.walk_mut(&mut |e| {
        if let ScalarExpr::Param { var, column } = e {
            if var == bv {
                let (qual, name) = &mapping[column];
                *e = ScalarExpr::Column {
                    qualifier: Some(qual.clone()),
                    name: name.clone(),
                };
            }
        }
    });
    Ok(())
}

/// Resolves an output column of `outer` ([`SelectQuery::published`]) to
/// its underlying FROM column: `(preferred qualifier, column name)`.
/// Aggregated and computed outputs cannot be correlated on.
fn resolve_output_column(
    outer: &SelectQuery,
    col: &str,
    catalog: &Catalog,
) -> Result<(Option<String>, String)> {
    match outer.published(col, &|n| catalog.get(n))? {
        ScalarExpr::Column { qualifier, name } => Ok((qualifier, name)),
        ScalarExpr::Aggregate { .. } => Err(Error::NotComposable {
            reason: format!(
                "EXISTS correlation on aggregated column `{col}`                              (SQL cannot correlate on an outer aggregate)"
            ),
        }),
        _ => Err(Error::NotComposable {
            reason: format!("EXISTS correlation on computed column `{col}`"),
        }),
    }
}

/// Finds the first FROM item of `outer` providing `name` (the one bound
/// to `qualifier` when it is given).
fn find_from_item(
    outer: &SelectQuery,
    qualifier: Option<&str>,
    name: &str,
    catalog: &Catalog,
) -> Result<usize> {
    for (i, t) in outer.from.iter().enumerate() {
        let hit = match qualifier {
            Some(q) => t.binding_name() == q,
            None => t.columns(&|n| catalog.get(n))?.iter().any(|c| c == name),
        };
        if hit {
            return Ok(i);
        }
    }
    Err(Error::NotComposable {
        reason: format!(
            "EXISTS correlation column `{name}` is not provided by the              enclosing query's FROM clause"
        ),
    })
}

/// Renames a FROM item's binding alias, updating qualified references in
/// the query (shadow-aware: recursion stops at subqueries that re-bind the
/// old name).
fn rename_from_item(q: &mut SelectQuery, idx: usize, new_alias: &str) {
    let old = q.from[idx].binding_name().to_owned();
    match &mut q.from[idx] {
        TableRef::Named { alias, .. } => *alias = Some(new_alias.to_owned()),
        TableRef::Derived { alias, .. } => *alias = new_alias.to_owned(),
    }
    rename_qualifier_shadow_aware(q, &old, new_alias, true);
}

fn rename_qualifier_shadow_aware(q: &mut SelectQuery, old: &str, new: &str, top: bool) {
    if !top && q.from.iter().any(|t| t.binding_name() == old) {
        return; // shadowed: inner references stay
    }
    for item in &mut q.select {
        if let SelectItem::QualifiedStar(qs) = item {
            if qs == old {
                *qs = new.to_owned();
            }
        }
    }
    for e in q.exprs_mut() {
        e.walk_mut(&mut |node| match node {
            ScalarExpr::Column { qualifier, .. } if qualifier.as_deref() == Some(old) => {
                *qualifier = Some(new.to_owned());
            }
            ScalarExpr::Exists(sub) => rename_qualifier_shadow_aware(sub, old, new, false),
            _ => {}
        });
    }
}

/// Renames binding-variable references in a guard, inside its `EXISTS`
/// subqueries too: `$old.col` → `$new.col` for every `(old, new)` entry
/// of `map`.
pub(crate) fn rename_guard_params(guard: &mut ScalarExpr, map: &HashMap<String, String>) {
    guard.walk_mut(&mut |node| match node {
        ScalarExpr::Param { var, .. } => {
            if let Some(new) = map.get(var) {
                *var = new.clone();
            }
        }
        ScalarExpr::Exists(sub) => rename_params(sub, map),
        _ => {}
    });
}

/// Ancestor-or-self transition: no chain, reuse an existing binding.
fn rebind(
    view: &SchemaTree,
    smt: &TreePattern,
    n: TpId,
    bvmap: HashMap<String, String>,
    catalog: &Catalog,
) -> Result<UnbindResult> {
    let nvid = smt.view(n);
    let orig_bv = view.bv(nvid).ok_or_else(|| Error::NotComposable {
        reason: "self/ancestor select targets the document root".into(),
    })?;
    let source = bvmap
        .get(orig_bv)
        .cloned()
        .ok_or_else(|| Error::NotComposable {
            reason: format!(
                "ancestor-or-self select needs ${orig_bv}, which is not carried \
             by the traverse view query at this point"
            ),
        })?;

    // All predicates anywhere in the subtree become guard conditions on
    // already-bound tuples; branch nodes become EXISTS guards.
    let mut guard: Option<ScalarExpr> = None;
    let add = |c: ScalarExpr, guard: &mut Option<ScalarExpr>| {
        *guard = Some(match guard.take() {
            None => c,
            Some(g) => ScalarExpr::binary(xvc_rel::BinOp::And, g, c),
        });
    };
    let main_path = smt.path_from_root(smt.context);
    let n_path = smt.path_from_root(n);
    for id in all_nodes(smt) {
        let vid = smt.view(id);
        if view.is_root(vid) {
            continue;
        }
        let on_path = main_path.contains(&id) || n_path.contains(&id);
        if on_path {
            if let Some(bv) = view.bv(vid) {
                for pred in smt.predicates(id) {
                    add(predicate::to_param_condition(bv, pred)?, &mut guard);
                }
            }
        } else if smt
            .parent(id)
            .map(|p| main_path.contains(&p) || n_path.contains(&p))
            == Some(true)
        {
            // Branch directly off the path: existence guard.
            let sub = nest(view, smt, id, catalog)?;
            add(exists_maybe_negated(smt, id, sub), &mut guard);
        }
        // Deeper branch nodes are folded in by `nest` above.
    }
    if let Some(g) = &mut guard {
        rename_guard_params(g, &bvmap);
    }
    Ok(UnbindResult {
        query: UnboundQuery::Rebind { source, guard },
        bvmap,
    })
}

fn all_nodes(smt: &TreePattern) -> Vec<TpId> {
    let mut out = Vec::new();
    let mut stack = vec![smt.root()];
    while let Some(id) = stack.pop() {
        out.push(id);
        for &c in smt.children(id) {
            stack.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::combine;
    use crate::matchq::matchq;
    use crate::paper_fixtures::{figure1_view, figure2_catalog};
    use crate::selectq::selectq;
    use xvc_view::ViewNodeId;
    use xvc_xpath::{parse_path, parse_pattern};

    fn by_id(view: &SchemaTree, id: u32) -> ViewNodeId {
        view.find_by_paper_id(id).unwrap()
    }

    fn smt_for(view: &SchemaTree, from: u32, select: &str, to: u32, pattern: &str) -> TreePattern {
        let n1 = if from == 0 {
            view.root()
        } else {
            by_id(view, from)
        };
        let t = selectq(view, n1, &parse_path(select).unwrap(), by_id(view, to))
            .unwrap()
            .remove(0);
        let p = matchq(view, by_id(view, to), &parse_pattern(pattern).unwrap())
            .unwrap()
            .unwrap();
        combine(view, &t, &p).unwrap()
    }

    #[test]
    fn figure7a_qs_new() {
        // Edge e2: unbinding Qs(h) with Qh(m) — the paper's first example
        // (§4.2.1).
        let v = figure1_view();
        let smt = smt_for(&v, 1, "hotel/confstat", 4, "confstat");
        let mut bvmap = HashMap::new();
        bvmap.insert("m".to_owned(), "m_new".to_owned());
        let r = unbind_smt(&v, &smt, "s_new", &bvmap, &figure2_catalog()).unwrap();
        let UnboundQuery::Query(q) = r.query else {
            panic!("expected a query");
        };
        let sql = q.to_sql();
        // SELECT SUM(capacity), TEMP.* with the hotel subquery derived and
        // GROUP BY over all TEMP columns (Figure 7a).
        assert!(sql.starts_with("SELECT SUM(capacity), TEMP.*"), "{sql}");
        assert!(sql.contains("FROM confroom, OUTER ("), "{sql}");
        assert!(sql.contains("metro_id = $m_new.metroid"), "{sql}");
        assert!(sql.contains("starrating > 4"), "{sql}");
        assert!(sql.contains("chotel_id = TEMP.hotelid"), "{sql}");
        assert!(
            sql.contains("GROUP BY TEMP.hotelid, TEMP.hotelname, TEMP.starrating"),
            "{sql}"
        );
        assert!(sql.contains("TEMP.gym"), "{sql}");
        // bvmap gained h→s_new and s→s_new.
        assert_eq!(r.bvmap.get("h").map(String::as_str), Some("s_new"));
        assert_eq!(r.bvmap.get("s").map(String::as_str), Some("s_new"));
        assert_eq!(r.bvmap.get("m").map(String::as_str), Some("m_new"));
    }

    #[test]
    fn figure7a_qc_new() {
        // Edge e3: the sibling-existence example — Qc plus an EXISTS on
        // the hotel_available branch (§4.2.1's second example).
        let v = figure1_view();
        let smt = smt_for(
            &v,
            4,
            "../hotel_available/../confroom",
            5,
            "metro/hotel/confroom",
        );
        let mut bvmap = HashMap::new();
        bvmap.insert("m".to_owned(), "m_new".to_owned());
        bvmap.insert("h".to_owned(), "s_new".to_owned());
        bvmap.insert("s".to_owned(), "s_new".to_owned());
        let r = unbind_smt(&v, &smt, "c_new", &bvmap, &figure2_catalog()).unwrap();
        let UnboundQuery::Query(q) = r.query else {
            panic!("expected a query");
        };
        let sql = q.to_sql();
        assert!(sql.starts_with("SELECT *\nFROM confroom"), "{sql}");
        assert!(sql.contains("chotel_id = $s_new.hotelid"), "{sql}");
        assert!(sql.contains("EXISTS ("), "{sql}");
        assert!(sql.contains("SELECT COUNT(a_id), startdate"), "{sql}");
        assert!(sql.contains("rhotel_id = $s_new.hotelid"), "{sql}");
        assert!(sql.contains("GROUP BY startdate"), "{sql}");
        // S-path removal: confstat's bv `s` is dropped; c→c_new added.
        assert!(!r.bvmap.contains_key("s"));
        assert_eq!(r.bvmap.get("c").map(String::as_str), Some("c_new"));
    }

    #[test]
    fn root_edge_has_no_parameters() {
        let v = figure1_view();
        let smt = smt_for(&v, 0, "metro", 1, "metro");
        let r = unbind_smt(&v, &smt, "m_new", &HashMap::new(), &figure2_catalog()).unwrap();
        let UnboundQuery::Query(q) = r.query else {
            panic!();
        };
        assert_eq!(q.to_sql(), "SELECT metroid, metroname\nFROM metroarea");
        assert_eq!(r.bvmap.get("m").map(String::as_str), Some("m_new"));
    }

    #[test]
    fn figure20_predicates() {
        // The §5.1 example: value predicates land in WHERE / on binding
        // tuples; existence predicates nest with HAVING.
        let v = figure1_view();
        let select =
            ".[@sum<200]/../hotel_available/../confroom[../confstat[@sum>100]][@capacity>250]";
        let pattern = "metro[@metroname=\"chicago\"]/hotel/confroom";
        let smt = smt_for(&v, 4, select, 5, pattern);
        let mut bvmap = HashMap::new();
        bvmap.insert("m".to_owned(), "m_new".to_owned());
        bvmap.insert("h".to_owned(), "s_new".to_owned());
        bvmap.insert("s".to_owned(), "s_new".to_owned());
        let r = unbind_smt(&v, &smt, "c_new", &bvmap, &figure2_catalog()).unwrap();
        let UnboundQuery::Query(q) = r.query else {
            panic!();
        };
        let sql = q.to_sql();
        assert!(sql.contains("capacity > 250"), "{sql}");
        assert!(sql.contains("$s_new.sum < 200"), "{sql}");
        assert!(sql.contains("$m_new.metroname = 'chicago'"), "{sql}");
        assert!(sql.contains("HAVING SUM(capacity) > 100"), "{sql}");
        // Two EXISTS: the confstat[@sum>100] branch and hotel_available.
        assert_eq!(sql.matches("EXISTS (").count(), 2, "{sql}");
    }

    #[test]
    fn rebind_for_self_select() {
        // A `.[...]` select (as produced by the §5.2 if-rewrite): no SQL,
        // reuse the bound tuple with a guard.
        let v = figure1_view();
        let t = selectq(
            &v,
            by_id(&v, 3),
            &parse_path(".[@pool='yes']").unwrap(),
            by_id(&v, 3),
        )
        .unwrap()
        .remove(0);
        let p = matchq(&v, by_id(&v, 3), &parse_pattern("hotel").unwrap())
            .unwrap()
            .unwrap();
        let smt = combine(&v, &t, &p).unwrap();
        let mut bvmap = HashMap::new();
        bvmap.insert("h".to_owned(), "h_new".to_owned());
        let r = unbind_smt(&v, &smt, "x", &bvmap, &figure2_catalog()).unwrap();
        let UnboundQuery::Rebind { source, guard } = r.query else {
            panic!("expected rebind, got {:?}", r.query);
        };
        assert_eq!(source, "h_new");
        assert!(guard
            .unwrap()
            .to_sql_inline()
            .contains("$h_new.pool = 'yes'"));
    }

    #[test]
    fn rebind_missing_binding_errors() {
        let v = figure1_view();
        let t = selectq(&v, by_id(&v, 3), &parse_path(".").unwrap(), by_id(&v, 3))
            .unwrap()
            .remove(0);
        let p = matchq(&v, by_id(&v, 3), &parse_pattern("hotel").unwrap())
            .unwrap()
            .unwrap();
        let smt = combine(&v, &t, &p).unwrap();
        assert!(matches!(
            unbind_smt(&v, &smt, "x", &HashMap::new(), &figure2_catalog()),
            Err(Error::NotComposable { .. })
        ));
    }

    #[test]
    fn nest_builds_recursive_exists() {
        // NEST over hotel_available includes its metro_available child.
        let v = figure1_view();
        let t = selectq(
            &v,
            by_id(&v, 4),
            &parse_path("../hotel_available[metro_available]/../confroom").unwrap(),
            by_id(&v, 5),
        )
        .unwrap()
        .remove(0);
        let p = matchq(&v, by_id(&v, 5), &parse_pattern("confroom").unwrap())
            .unwrap()
            .unwrap();
        let smt = combine(&v, &t, &p).unwrap();
        let mut bvmap = HashMap::new();
        bvmap.insert("m".to_owned(), "m_new".to_owned());
        bvmap.insert("h".to_owned(), "s_new".to_owned());
        let r = unbind_smt(&v, &smt, "c_new", &bvmap, &figure2_catalog()).unwrap();
        let UnboundQuery::Query(q) = r.query else {
            panic!();
        };
        let sql = q.to_sql();
        // Nested EXISTS: hotel_available EXISTS containing the
        // metro_available EXISTS, correlated by bare startdate.
        assert_eq!(sql.matches("EXISTS (").count(), 2, "{sql}");
        assert!(
            sql.contains("startdate = startdate") || sql.contains("metro_id = $m_new.metroid"),
            "{sql}"
        );
    }
}
