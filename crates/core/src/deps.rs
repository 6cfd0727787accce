//! Static table→view dependency analysis (lineage) over the TVQ.
//!
//! The composed view makes every published XML node a function of base
//! relations; this module recovers that function's *support* statically.
//! For each analysis unit — a TVQ node on the acyclic path, or a raw view
//! node when the CTG is cyclic and no TVQ exists (§5.3) — it walks the
//! unit's tag query and emission guard recording every base
//! `(table, column)` reference, partitioned by [`DepRole`]:
//!
//! * **scan source** — the table appears in a `FROM` (any nesting);
//! * **join key** — the column sits in an equality conjunct against
//!   another column or a `$bv.column` parameter;
//! * **predicate** — the column feeds a pushdown / `HAVING` / `GROUP BY`
//!   condition, or any condition inside an `EXISTS`;
//! * **guard** — the column is reachable from an emission guard;
//! * **output** — the column is projected into XML attributes.
//!
//! Each edge is classified for *update-safety* ([`UpdateSafety`]): whether
//! a base-row insert can be appended monotonically, patched in place, or
//! forces recomputation (the column feeds a guard, join key, `GROUP BY`,
//! aggregation, or a recursion cycle). Every edge carries a fact chain in
//! the XVC4xx/5xx justification style.
//!
//! A `$bv.column` parameter resolves through the name the binding
//! ancestor's query publishes `column` under ([`SelectItem::name`], the
//! naming the publisher and the composer use), so an aggregate's `sum`
//! traces to the column it sums.
//!
//! Downstream consumers: the XVC601–604 diagnostics of `xvc check`, the
//! `xvc deps` CLI, and the delta-republish experiments. This is the one
//! walk of a raw view's table references. The publisher's own delta path
//! reads no view: it asks each node's prepared tag and guard plans which
//! tables they read (`xvc_rel::PreparedPlan::reads`). This map refines
//! those reads per column and must never under-approximate them.

use std::collections::{BTreeMap, BTreeSet};

use xvc_rel::{Catalog, ScalarExpr, SelectItem, SelectQuery, TableRef};
use xvc_view::{SchemaTree, ViewNodeId};

use crate::tvq::Tvq;
use crate::unbind::UnboundQuery;

/// The role a base column plays for a view node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DepRole {
    /// The table is a scan source of the tag query (column is `*`).
    Scan,
    /// Equality join key (column–column or column–parameter).
    JoinKey,
    /// Pushdown predicate, `GROUP BY` / `HAVING` input, or any condition
    /// inside an `EXISTS` subquery.
    Predicate,
    /// Reachable from the node's emission guard.
    Guard,
    /// Projected into the node's XML attributes.
    Output,
}

impl DepRole {
    /// Stable lowercase rendering (`scan`, `join-key`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            DepRole::Scan => "scan",
            DepRole::JoinKey => "join-key",
            DepRole::Predicate => "predicate",
            DepRole::Guard => "guard",
            DepRole::Output => "output",
        }
    }
}

/// Static update-safety classification of one dependency edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum UpdateSafety {
    /// An insert into the table can only append new instances of the view
    /// node; existing instances are untouched (non-aggregating scan).
    InsertMonotone,
    /// A change to the column rewrites attribute values of existing
    /// instances in place, keyed by the surviving instance identity.
    InPlacePatch,
    /// A change can restructure the result (guard, join key, `GROUP BY`,
    /// aggregation, or recursion cycle): the subtree must be recomputed.
    RecomputeRequired,
}

impl UpdateSafety {
    /// Stable lowercase rendering (`insert-monotone`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            UpdateSafety::InsertMonotone => "insert-monotone",
            UpdateSafety::InPlacePatch => "in-place-patch",
            UpdateSafety::RecomputeRequired => "recompute-required",
        }
    }
}

/// One dependency edge: base `(table, column)` → view node, with role,
/// safety class and fact-chain justification.
#[derive(Debug, Clone)]
pub struct DepEdge {
    /// Base table.
    pub table: String,
    /// Base column, or `*` for a whole-table scan-source edge.
    pub column: String,
    /// The schema-tree node the analysis unit publishes.
    pub view: ViewNodeId,
    /// Template rule index of the TVQ unit (`None` on raw-view walks).
    pub rule: Option<usize>,
    /// Human-readable unit label, e.g. `TVQ node <confstat> (rule R3, $s_new)`.
    pub unit: String,
    /// The role the column plays.
    pub role: DepRole,
    /// Static update-safety of this edge.
    pub safety: UpdateSafety,
    /// Fact chain justifying the edge, innermost fact last.
    pub chain: Vec<String>,
}

impl DepEdge {
    /// The rendered fact chain (`fact chain: a  ->  b`), XVC4xx/5xx style.
    pub fn justification(&self) -> String {
        if self.chain.is_empty() {
            "no recorded facts (structurally impossible)".to_owned()
        } else {
            format!("fact chain: {}", self.chain.join("  ->  "))
        }
    }
}

/// The full dependency map of one workload: every `(table, column)` →
/// `(view node, role)` edge, plus the inversions the consumers need.
#[derive(Debug, Clone, Default)]
pub struct DependencyMap {
    /// All edges, in analysis order (units in pre-order, roles per unit).
    pub edges: Vec<DepEdge>,
    /// True when the map was built from the raw view because the CTG is
    /// cyclic (every edge is then recompute-required).
    pub recursive: bool,
}

impl DependencyMap {
    /// Builds the map by walking the TVQ (the acyclic composition path).
    /// Each TVQ node is one analysis unit; `$bv.column` parameters resolve
    /// through the TVQ parent chain to the ancestor's projected base
    /// column.
    pub fn of_tvq(tvq: &Tvq, view: &SchemaTree, catalog: &Catalog) -> DependencyMap {
        let mut map = DependencyMap {
            edges: Vec::new(),
            recursive: false,
        };
        for (idx, w) in tvq.nodes.iter().enumerate() {
            let unit = tvq_unit_label(view, tvq, idx);
            let resolver =
                |var: &str, column: &str| resolve_tvq_param(tvq, catalog, idx, var, column);
            match &w.binding {
                UnboundQuery::Query(q) => {
                    collect_unit(
                        &mut map,
                        catalog,
                        q,
                        None,
                        w.view,
                        Some(w.rule),
                        &unit,
                        &resolver,
                        false,
                    );
                }
                UnboundQuery::Rebind { guard: Some(g), .. } => {
                    collect_guard_unit(
                        &mut map,
                        catalog,
                        g,
                        w.view,
                        Some(w.rule),
                        &unit,
                        &resolver,
                        false,
                    );
                }
                _ => {}
            }
        }
        map
    }

    /// Builds the map from the raw view — the §5.3 path for cyclic CTGs
    /// (no TVQ exists). When `recursive` is true every edge is classified
    /// recompute-required: an update reaching a recursion cycle cannot be
    /// patched structurally.
    pub fn of_view(view: &SchemaTree, catalog: &Catalog, recursive: bool) -> DependencyMap {
        let mut map = DependencyMap {
            edges: Vec::new(),
            recursive,
        };
        for vid in view.node_ids() {
            let node = view.node(vid).expect("non-root id");
            let unit = format!("view node <{}> (${})", node.tag, node.bv);
            let resolver =
                |var: &str, column: &str| resolve_view_param(view, catalog, vid, var, column);
            if let Some(q) = &node.query {
                collect_unit(
                    &mut map, catalog, q, None, vid, None, &unit, &resolver, recursive,
                );
            }
            if let Some(g) = &node.guard {
                collect_guard_unit(&mut map, catalog, g, vid, None, &unit, &resolver, recursive);
            }
        }
        map
    }

    /// Inverts the map: `(table, column)` → edges touching it, sorted.
    pub fn columns(&self) -> BTreeMap<(String, String), Vec<&DepEdge>> {
        let mut out: BTreeMap<(String, String), Vec<&DepEdge>> = BTreeMap::new();
        for e in &self.edges {
            out.entry((e.table.clone(), e.column.clone()))
                .or_default()
                .push(e);
        }
        out
    }

    /// View nodes with at least one edge from `table`.
    pub fn affected_views(&self, table: &str) -> BTreeSet<ViewNodeId> {
        self.edges
            .iter()
            .filter(|e| e.table == table)
            .map(|e| e.view)
            .collect()
    }

    /// Catalog tables no edge reads — dead weight for this workload.
    pub fn dead_tables(&self, catalog: &Catalog) -> Vec<String> {
        let read: BTreeSet<&str> = self.edges.iter().map(|e| e.table.as_str()).collect();
        catalog
            .iter()
            .map(|t| t.name.clone())
            .filter(|t| !read.contains(t.as_str()))
            .collect()
    }

    /// Distinct analysis units (by label) touching `(table, column)` —
    /// the write-amplification count behind XVC601.
    pub fn touch_count(&self, table: &str, column: &str) -> usize {
        self.edges
            .iter()
            .filter(|e| e.table == table && e.column == column)
            .map(|e| e.unit.as_str())
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Plain-text rendering of the inverted map for `xvc deps`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.recursive {
            out.push_str("# cyclic CTG: raw-view analysis, every edge recompute-required\n");
        }
        for ((table, column), edges) in self.columns() {
            out.push_str(&format!("{table}.{column}\n"));
            for e in edges {
                out.push_str(&format!(
                    "  {:<10} {:<19} {}\n",
                    e.role.as_str(),
                    format!("[{}]", e.safety.as_str()),
                    e.unit
                ));
                out.push_str(&format!("      {}\n", e.justification()));
            }
        }
        out
    }

    /// Hand-rolled JSON rendering for `xvc deps --json`: an array of edge
    /// objects sorted like [`DependencyMap::columns`].
    pub fn to_json(&self) -> String {
        let mut parts = Vec::new();
        for ((table, column), edges) in self.columns() {
            for e in edges {
                parts.push(format!(
                    "{{\"table\":\"{}\",\"column\":\"{}\",\"unit\":\"{}\",\"role\":\"{}\",\"safety\":\"{}\",\"justification\":\"{}\"}}",
                    json_escape(&table),
                    json_escape(&column),
                    json_escape(&e.unit),
                    e.role.as_str(),
                    e.safety.as_str(),
                    json_escape(&e.justification()),
                ));
            }
        }
        format!(
            "{{\"recursive\":{},\"edges\":[{}]}}",
            self.recursive,
            parts.join(",")
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Label for a TVQ analysis unit, matching the `XVC4xx` diagnostic style.
fn tvq_unit_label(view: &SchemaTree, tvq: &Tvq, idx: usize) -> String {
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

/// Resolves `$var.column` through the TVQ parent chain: the nearest
/// ancestor whose binding variable is `var` and carries a query projects
/// `column` from some base table.
fn resolve_tvq_param(
    tvq: &Tvq,
    catalog: &Catalog,
    idx: usize,
    var: &str,
    column: &str,
) -> Vec<(String, String)> {
    let mut cur = tvq.nodes[idx].parent;
    while let Some(i) = cur {
        let w = &tvq.nodes[i];
        if w.bv == var {
            if let UnboundQuery::Query(q) = &w.binding {
                return resolve_output(q, catalog, column);
            }
            // Rebind nodes alias their source's tuple; keep climbing.
        }
        cur = w.parent;
    }
    Vec::new()
}

/// Resolves `$var.column` through the schema-tree ancestors (raw-view
/// walks). Context-copy nodes alias an ancestor's tuple, so the climb
/// follows `context_tuple_of` renames.
fn resolve_view_param(
    view: &SchemaTree,
    catalog: &Catalog,
    vid: ViewNodeId,
    var: &str,
    column: &str,
) -> Vec<(String, String)> {
    let mut wanted = var.to_owned();
    let mut cur = view.parent(vid);
    while let Some(a) = cur {
        if view.is_root(a) {
            break;
        }
        let node = view.node(a).expect("non-root id");
        if node.bv == wanted {
            if let Some(q) = &node.query {
                return resolve_output(q, catalog, column);
            }
            if let Some(src) = &node.context_tuple_of {
                wanted = src.clone();
            }
        }
        cur = view.parent(a);
    }
    Vec::new()
}

/// Resolves `$var.column` parameters to base `(table, column)` pairs —
/// the ancestor-chain walk differs between TVQ and raw-view analyses.
type Resolver<'r> = dyn Fn(&str, &str) -> Vec<(String, String)> + 'r;

/// Resolves a column reference to base `(table, column)` pairs. Ambiguous
/// unqualified references resolve to *every* in-scope match — the analysis
/// over-approximates rather than dropping an edge.
fn resolve_col(
    q: &SelectQuery,
    catalog: &Catalog,
    qualifier: Option<&str>,
    name: &str,
) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for t in &q.from {
        if qualifier.is_some_and(|w| w != t.binding_name()) {
            continue;
        }
        match t {
            TableRef::Named { name: table, .. } => {
                let has = t
                    .columns(&|n| catalog.get(n))
                    .is_ok_and(|cols| cols.iter().any(|c| c == name));
                if has || qualifier.is_some() {
                    out.push((table.clone(), name.to_owned()));
                }
            }
            TableRef::Derived { query, .. } => out.extend(resolve_output(query, catalog, name)),
        }
    }
    out
}

/// Resolves an *output* column of `q` (by the name it publishes,
/// [`SelectItem::name`]) to the base columns it projects.
fn resolve_output(q: &SelectQuery, catalog: &Catalog, wanted: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (idx, item) in q.select.iter().enumerate() {
        match item {
            SelectItem::Expr { expr, .. } => {
                if item.name(idx).as_deref() != Some(wanted) {
                    continue;
                }
                for (qual, name) in columns_in_expr(expr) {
                    out.extend(resolve_col(q, catalog, qual.as_deref(), &name));
                }
            }
            SelectItem::Star => out.extend(resolve_col(q, catalog, None, wanted)),
            SelectItem::QualifiedStar(alias) => {
                out.extend(resolve_col(q, catalog, Some(alias), wanted));
            }
        }
    }
    out
}

/// All direct column references in a scalar expression (no `EXISTS`
/// descent — subqueries have their own scopes and are analyzed there).
fn columns_in_expr(e: &ScalarExpr) -> Vec<(Option<String>, String)> {
    let mut out = Vec::new();
    e.walk(&mut |node| {
        if let ScalarExpr::Column { qualifier, name } = node {
            out.push((qualifier.clone(), name.clone()));
        }
    });
    out
}

/// All `$var.column` parameters directly in an expression (no `EXISTS`
/// descent).
fn params_in_expr(e: &ScalarExpr) -> Vec<(String, String)> {
    let mut out = Vec::new();
    e.walk(&mut |node| {
        if let ScalarExpr::Param { var, column } = node {
            out.push((var.clone(), column.clone()));
        }
    });
    out
}

/// Context threaded through one analysis unit's extraction.
struct UnitCx<'c> {
    catalog: &'c Catalog,
    view: ViewNodeId,
    rule: Option<usize>,
    unit: &'c str,
    resolver: &'c Resolver<'c>,
    /// Recursion taint: every edge becomes recompute-required.
    recursive: bool,
    /// The unit's query aggregates (`GROUP BY` / aggregate select items).
    aggregating: bool,
}

impl UnitCx<'_> {
    fn push(
        &self,
        map: &mut DependencyMap,
        table: String,
        column: String,
        role: DepRole,
        mut safety: UpdateSafety,
        mut chain: Vec<String>,
    ) {
        if self.recursive {
            safety = UpdateSafety::RecomputeRequired;
            chain.push("the unit sits on a recursion cycle (XVC503 territory): instances feed instances, so no static patch exists".to_owned());
        }
        map.edges.push(DepEdge {
            table,
            column,
            view: self.view,
            rule: self.rule,
            unit: self.unit.to_owned(),
            role,
            safety,
            chain,
        });
    }

    /// Safety of a non-structural (output) edge under this unit.
    fn output_safety(&self) -> UpdateSafety {
        if self.aggregating {
            UpdateSafety::RecomputeRequired
        } else {
            UpdateSafety::InPlacePatch
        }
    }
}

/// Extracts every edge of one query-bearing unit into `map`.
#[allow(clippy::too_many_arguments)]
fn collect_unit(
    map: &mut DependencyMap,
    catalog: &Catalog,
    q: &SelectQuery,
    guard: Option<&ScalarExpr>,
    view: ViewNodeId,
    rule: Option<usize>,
    unit: &str,
    resolver: &Resolver<'_>,
    recursive: bool,
) {
    let cx = UnitCx {
        catalog,
        view,
        rule,
        unit,
        resolver,
        recursive,
        aggregating: q.is_aggregating(),
    };
    collect_query(map, &cx, q, DepRole::Predicate, true);
    if let Some(g) = guard {
        collect_guard_expr(map, &cx, g);
    }
}

/// Extracts a guard-only unit (rebind nodes, raw-view guards).
#[allow(clippy::too_many_arguments)]
fn collect_guard_unit(
    map: &mut DependencyMap,
    catalog: &Catalog,
    g: &ScalarExpr,
    view: ViewNodeId,
    rule: Option<usize>,
    unit: &str,
    resolver: &Resolver<'_>,
    recursive: bool,
) {
    let cx = UnitCx {
        catalog,
        view,
        rule,
        unit,
        resolver,
        recursive,
        aggregating: false,
    };
    collect_guard_expr(map, &cx, g);
}

/// Walks one query level: scan sources, WHERE conjunct roles, projected
/// outputs, `GROUP BY` / `HAVING`. `top` is false inside derived tables
/// and `EXISTS` subqueries, whose select lists are not the unit's XML
/// output (their outputs surface through `resolve_output` instead) and
/// whose conditions are all [`DepRole::Predicate`].
fn collect_query(
    map: &mut DependencyMap,
    cx: &UnitCx<'_>,
    q: &SelectQuery,
    condition_role: DepRole,
    top: bool,
) {
    // Scan sources, recursing into derived tables.
    for item in &q.from {
        match item {
            TableRef::Named { name, .. } => {
                let safety = if cx.aggregating {
                    UpdateSafety::RecomputeRequired
                } else {
                    UpdateSafety::InsertMonotone
                };
                cx.push(
                    map,
                    name.clone(),
                    "*".to_owned(),
                    DepRole::Scan,
                    safety,
                    vec![
                        format!("{} scans FROM {}", cx.unit, name),
                        if cx.aggregating {
                            "the query aggregates, so new rows can rewrite existing groups"
                                .to_owned()
                        } else {
                            "each new row appends one tuple to this scan".to_owned()
                        },
                    ],
                );
            }
            TableRef::Derived { query, .. } => {
                collect_query(map, cx, query, DepRole::Predicate, false);
            }
        }
    }

    // WHERE conjuncts: join keys vs. pushdown predicates.
    if let Some(w) = &q.where_clause {
        for c in w.conjuncts() {
            collect_condition(map, cx, q, c, condition_role);
        }
    }

    // GROUP BY and HAVING are always structural.
    for e in &q.group_by {
        for (qual, name) in columns_in_expr(e) {
            for (t, col) in resolve_col(q, cx.catalog, qual.as_deref(), &name) {
                cx.push(
                    map,
                    t,
                    col,
                    DepRole::Predicate,
                    UpdateSafety::RecomputeRequired,
                    vec![
                        format!("{} groups by {}", cx.unit, name),
                        "a changed grouping column moves rows between groups".to_owned(),
                    ],
                );
            }
        }
    }
    if let Some(h) = &q.having {
        for c in h.conjuncts() {
            for (qual, name) in columns_in_expr(c) {
                for (t, col) in resolve_col(q, cx.catalog, qual.as_deref(), &name) {
                    cx.push(
                        map,
                        t,
                        col,
                        DepRole::Predicate,
                        UpdateSafety::RecomputeRequired,
                        vec![
                            format!("{} filters groups on HAVING over {}", cx.unit, name),
                            "group-level conditions re-evaluate under any member change".to_owned(),
                        ],
                    );
                }
            }
            for sq in c.subqueries() {
                collect_query(map, cx, sq, DepRole::Predicate, false);
            }
        }
    }

    // Projected output (top level only: derived outputs surface through
    // the consumer that references them).
    if top {
        for (idx, item) in q.select.iter().enumerate() {
            let covered: Vec<&TableRef> = match item {
                SelectItem::Expr { expr, .. } => {
                    let visible = item.name(idx).expect("an expression item is named");
                    for (qual, name) in columns_in_expr(expr) {
                        for (t, col) in resolve_col(q, cx.catalog, qual.as_deref(), &name) {
                            cx.push(
                                map,
                                t,
                                col,
                                DepRole::Output,
                                cx.output_safety(),
                                vec![
                                    format!(
                                        "{} projects {} as attribute {}",
                                        cx.unit, name, visible
                                    ),
                                    if cx.aggregating {
                                        "the projection feeds an aggregating query".to_owned()
                                    } else {
                                        "value changes patch the attribute in place".to_owned()
                                    },
                                ],
                            );
                        }
                    }
                    continue;
                }
                SelectItem::Star => q.from.iter().collect(),
                SelectItem::QualifiedStar(alias) => q
                    .from
                    .iter()
                    .filter(|t| t.binding_name() == alias)
                    .collect(),
            };
            for t in covered {
                expand_star_output(map, cx, t);
            }
        }
    }
}

/// Expands a `*` / `alias.*` select item over FROM item `t` into
/// per-column output edges.
fn expand_star_output(map: &mut DependencyMap, cx: &UnitCx<'_>, t: &TableRef) {
    let alias = t.binding_name();
    match t {
        TableRef::Named { name: table, .. } => {
            for col in t.columns(&|n| cx.catalog.get(n)).unwrap_or_default() {
                cx.push(
                    map,
                    table.clone(),
                    col.clone(),
                    DepRole::Output,
                    cx.output_safety(),
                    vec![
                        format!("{} projects {alias}.* including {col}", cx.unit),
                        "star projections publish every column as an attribute".to_owned(),
                    ],
                );
            }
        }
        TableRef::Derived { query: dq, .. } => {
            // A derived star re-exports the derived query's output names;
            // resolve each through the derived query.
            for (idx, out_item) in dq.select.iter().enumerate() {
                match out_item {
                    SelectItem::Expr { .. } => {
                        let v = out_item.name(idx).expect("an expression item is named");
                        for (t, col) in resolve_output(dq, cx.catalog, &v) {
                            cx.push(
                                map,
                                t,
                                col,
                                DepRole::Output,
                                cx.output_safety(),
                                vec![
                                    format!(
                                        "{} projects {alias}.* including {v} (via derived table)",
                                        cx.unit
                                    ),
                                    "star projections publish every column as an attribute"
                                        .to_owned(),
                                ],
                            );
                        }
                    }
                    SelectItem::Star => {
                        for inner in &dq.from {
                            expand_star_output(map, cx, inner);
                        }
                    }
                    SelectItem::QualifiedStar(_) => {}
                }
            }
        }
    }
}

/// Classifies one WHERE conjunct: equality against a column or parameter
/// makes join-key edges; anything else is a predicate. `EXISTS`
/// subqueries contribute their own scans and predicate edges.
fn collect_condition(
    map: &mut DependencyMap,
    cx: &UnitCx<'_>,
    q: &SelectQuery,
    c: &ScalarExpr,
    role: DepRole,
) {
    let rendered = c.to_sql_inline();
    if let ScalarExpr::Binary {
        op: xvc_rel::BinOp::Eq,
        lhs,
        rhs,
    } = c
    {
        let col_param = |a: &ScalarExpr, b: &ScalarExpr| {
            matches!(a, ScalarExpr::Column { .. }) && matches!(b, ScalarExpr::Param { .. })
        };
        let col_col = matches!(&**lhs, ScalarExpr::Column { .. })
            && matches!(&**rhs, ScalarExpr::Column { .. });
        if col_col || col_param(lhs, rhs) || col_param(rhs, lhs) {
            for (qual, name) in columns_in_expr(c) {
                for (t, col) in resolve_col(q, cx.catalog, qual.as_deref(), &name) {
                    cx.push(
                        map,
                        t,
                        col,
                        DepRole::JoinKey,
                        UpdateSafety::RecomputeRequired,
                        vec![
                            format!("{} joins on {rendered}", cx.unit),
                            "a changed join key re-parents rows across parent instances".to_owned(),
                        ],
                    );
                }
            }
            for (var, column) in params_in_expr(c) {
                for (t, col) in (cx.resolver)(&var, &column) {
                    let chain = vec![
                        format!("{} joins on {rendered}", cx.unit),
                        format!(
                            "${var}.{column} resolves through the binding ancestor to {t}.{col}"
                        ),
                    ];
                    cx.push(
                        map,
                        t,
                        col,
                        DepRole::JoinKey,
                        UpdateSafety::RecomputeRequired,
                        chain,
                    );
                }
            }
            return;
        }
    }

    // Generic condition: every referenced column / parameter is a
    // predicate (or guard) input.
    for (qual, name) in columns_in_expr(c) {
        for (t, col) in resolve_col(q, cx.catalog, qual.as_deref(), &name) {
            cx.push(
                map,
                t,
                col,
                role,
                UpdateSafety::RecomputeRequired,
                vec![
                    format!("{} filters on {rendered}", cx.unit),
                    "a changed condition input adds or removes instances".to_owned(),
                ],
            );
        }
    }
    for (var, column) in params_in_expr(c) {
        for (t, col) in (cx.resolver)(&var, &column) {
            let chain = vec![
                format!("{} filters on {rendered}", cx.unit),
                format!("${var}.{column} resolves through the binding ancestor to {t}.{col}"),
            ];
            cx.push(map, t, col, role, UpdateSafety::RecomputeRequired, chain);
        }
    }
    for sq in c.subqueries() {
        collect_query(map, cx, sq, DepRole::Predicate, false);
    }
}

/// Guard expressions have no FROM scope of their own: parameters resolve
/// through ancestors, `EXISTS` subqueries carry their own scopes.
fn collect_guard_expr(map: &mut DependencyMap, cx: &UnitCx<'_>, g: &ScalarExpr) {
    for c in g.conjuncts() {
        let rendered = c.to_sql_inline();
        for (var, column) in params_in_expr(c) {
            for (t, col) in (cx.resolver)(&var, &column) {
                let chain = vec![
                    format!("{} guards emission on {rendered}", cx.unit),
                    format!("${var}.{column} resolves through the binding ancestor to {t}.{col}"),
                    "a flipped guard adds or removes whole subtrees".to_owned(),
                ];
                cx.push(
                    map,
                    t,
                    col,
                    DepRole::Guard,
                    UpdateSafety::RecomputeRequired,
                    chain,
                );
            }
        }
        for sq in c.subqueries() {
            collect_guard_subquery(map, cx, sq);
        }
    }
}

/// Inside a guard's `EXISTS`: scans and conditions are guard-role edges
/// (tripping the existence check restructures the document).
fn collect_guard_subquery(map: &mut DependencyMap, cx: &UnitCx<'_>, q: &SelectQuery) {
    for item in &q.from {
        match item {
            TableRef::Named { name, .. } => {
                cx.push(
                    map,
                    name.clone(),
                    "*".to_owned(),
                    DepRole::Guard,
                    UpdateSafety::RecomputeRequired,
                    vec![
                        format!("{} guards emission via EXISTS over {}", cx.unit, name),
                        "a new or deleted row can flip the existence check".to_owned(),
                    ],
                );
            }
            TableRef::Derived { query, .. } => collect_guard_subquery(map, cx, query),
        }
    }
    if let Some(w) = &q.where_clause {
        for c in w.conjuncts() {
            collect_condition(map, cx, q, c, DepRole::Guard);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctg::build_ctg;
    use crate::paper_fixtures::{figure1_view, figure2_catalog, FIGURE17_XSLT};
    use crate::tvq::{build_tvq, DEFAULT_TVQ_LIMIT};
    use xvc_xslt::parse::FIGURE4_XSLT;
    use xvc_xslt::parse_stylesheet;

    fn figure4_map() -> (SchemaTree, DependencyMap) {
        tvq_map(FIGURE4_XSLT)
    }

    fn tvq_map(xslt: &str) -> (SchemaTree, DependencyMap) {
        let v = figure1_view();
        let x = parse_stylesheet(xslt).unwrap();
        let cat = figure2_catalog();
        let ctg = build_ctg(&v, &x).unwrap();
        let tvq = build_tvq(&v, &x, &ctg, &cat, DEFAULT_TVQ_LIMIT).unwrap();
        let map = DependencyMap::of_tvq(&tvq, &v, &cat);
        (v, map)
    }

    #[test]
    fn figure4_tvq_roles_and_safety() {
        let (_, map) = figure4_map();
        assert!(!map.recursive);
        let cols = map.columns();
        // metroarea is scanned and its key joins downstream nodes.
        assert!(cols.contains_key(&("metroarea".into(), "*".into())));
        let metroid = &cols[&("metroarea".into(), "metroid".into())];
        assert!(
            metroid.iter().any(|e| e.role == DepRole::JoinKey),
            "{metroid:?}"
        );
        // The confstat rule aggregates over confroom: its scan edges are
        // recompute-required.
        assert!(
            map.edges.iter().any(|e| e.table == "confroom"
                && e.role == DepRole::Scan
                && e.safety == UpdateSafety::RecomputeRequired),
            "{:#?}",
            map.edges
                .iter()
                .filter(|e| e.table == "confroom")
                .collect::<Vec<_>>()
        );
        // Every edge is justified.
        for e in &map.edges {
            assert!(!e.chain.is_empty());
            assert!(e.justification().starts_with("fact chain: "));
        }
        // Non-aggregating scans stay insert-monotone somewhere.
        assert!(map
            .edges
            .iter()
            .any(|e| e.safety == UpdateSafety::InsertMonotone));
    }

    #[test]
    fn aggregate_outputs_resolve_by_their_published_name() {
        // Figure 17: <confstat> publishes SUM(capacity) as `sum`, and the
        // <confroom> query filters on `$s_new.sum < 200`.
        let (_, map) = tvq_map(FIGURE17_XSLT);
        let capacity = &map.columns()[&("confroom".to_owned(), "capacity".to_owned())];
        assert!(
            capacity.iter().any(|e| e.role == DepRole::Predicate
                && e.unit.starts_with("TVQ node <confroom>")
                && e.chain.iter().any(|f| f.contains("$s_new.sum"))),
            "{capacity:#?}"
        );
        assert!(
            capacity.iter().any(|e| e.role == DepRole::Output
                && e.unit.starts_with("TVQ node <confstat>")
                && e.chain[0].ends_with("projects capacity as attribute sum")),
            "{capacity:#?}"
        );
        assert!(!map.render().contains("attribute ?"), "{}", map.render());
    }

    #[test]
    fn dead_tables_and_touch_counts() {
        let (_, map) = figure4_map();
        let cat = figure2_catalog();
        // FIGURE4 only traverses metro/confstat/confroom: hotelchain is
        // never read by any TVQ query.
        let dead = map.dead_tables(&cat);
        assert!(dead.contains(&"hotelchain".to_owned()), "{dead:?}");
        assert!(map.touch_count("metroarea", "metroid") >= 1);
        assert!(!map.affected_views("metroarea").is_empty());
        assert!(map.affected_views("no_such_table").is_empty());
    }

    #[test]
    fn raw_view_walk_marks_recursion_recompute_required() {
        let v = figure1_view();
        let cat = figure2_catalog();
        let map = DependencyMap::of_view(&v, &cat, true);
        assert!(map.recursive);
        assert!(!map.edges.is_empty());
        assert!(map
            .edges
            .iter()
            .all(|e| e.safety == UpdateSafety::RecomputeRequired));
        assert!(map
            .edges
            .iter()
            .all(|e| e.chain.last().unwrap().contains("recursion cycle")));
    }

    #[test]
    fn render_and_json_are_well_formed() {
        let (_, map) = figure4_map();
        let text = map.render();
        assert!(text.contains("metroarea.metroid"), "{text}");
        assert!(text.contains("join-key"), "{text}");
        assert!(text.contains("fact chain: "), "{text}");
        let json = map.to_json();
        assert!(json.starts_with("{\"recursive\":false"));
        assert!(json.contains("\"role\":\"join-key\""));
        assert!(json.contains("\"safety\":\"recompute-required\""));
    }

    #[test]
    fn view_param_resolution_follows_ancestors() {
        let v = figure1_view();
        let cat = figure2_catalog();
        let map = DependencyMap::of_view(&v, &cat, false);
        // The hotel node's join on $m.metroid must trace back to
        // metroarea.metroid through the metro ancestor's projection.
        assert!(
            map.edges.iter().any(|e| e.table == "metroarea"
                && e.column == "metroid"
                && e.role == DepRole::JoinKey
                && e.chain.iter().any(|f| f.contains("binding ancestor"))),
            "{:#?}",
            map.edges
                .iter()
                .filter(|e| e.role == DepRole::JoinKey)
                .collect::<Vec<_>>()
        );
    }
}
