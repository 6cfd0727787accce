//! Pass 2 (and 4): well-formedness of tag queries against the catalog.
//!
//! Checks every tag query of a schema tree — the *input* publishing view,
//! or the *composed* stylesheet view the algorithm emitted — against
//! `xvc_rel`'s catalog: tables and columns must exist, comparisons must
//! not mix strings with numbers, `$n.col` parameters must resolve to
//! columns actually produced by a proper ancestor's tag query
//! (Definition 1), and aggregate queries must not project non-grouped
//! columns. A FROM item's columns and the names a query publishes are
//! `xvc_rel`'s own ([`TableRef::columns`], [`SelectQuery::output_columns`]),
//! typed here best-effort, with layout chaining into correlated `EXISTS`
//! subqueries.

use std::collections::HashMap;

use xvc_rel::{
    AggFunc, Catalog, ColumnType, Result, ScalarExpr, SelectItem, SelectQuery, TableRef,
    TableSchema, Value,
};
use xvc_view::{SchemaTree, ViewNode};
use xvc_xml::Span;

use crate::diag::{Code, Diagnostic, Stage};

/// Which kind of schema tree is being checked; selects the code space
/// (`1xx` for the input view, `3xx` for the composed output) and disables
/// the aggregate-projection check on composed trees (UNBIND adds grouped
/// context columns deliberately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeKind {
    /// The input publishing view (codes XVC101–XVC106).
    Input,
    /// The composed stylesheet view (codes XVC301/XVC302).
    Composed,
}

/// One resolved column: `(alias, name, type)`. Type is `None` for columns
/// of derived tables whose expression type is not statically known.
type LayoutCol = (String, String, Option<ColumnType>);

/// What an unknown table provides: no columns. Its XVC101 is reported
/// where its query is checked, and the rest of the layout stays usable.
static NO_COLUMNS: TableSchema = TableSchema {
    name: String::new(),
    columns: Vec::new(),
    indexes: Vec::new(),
};

/// Checks every tag query of the tree. See module docs.
pub fn check_view(view: &SchemaTree, catalog: &Catalog, kind: TreeKind) -> Vec<Diagnostic> {
    let mut ck = Checker {
        catalog,
        kind,
        out: Vec::new(),
    };
    let mut scopes = HashMap::new();
    for &c in view.children(view.root()) {
        ck.walk(view, c, &mut scopes);
    }
    ck.out
}

struct Checker<'a> {
    catalog: &'a Catalog,
    kind: TreeKind,
    out: Vec<Diagnostic>,
}

impl Checker<'_> {
    fn stage(&self) -> Stage {
        match self.kind {
            TreeKind::Input => Stage::View,
            TreeKind::Composed => Stage::Composed,
        }
    }

    /// `1xx` code for input trees, `3xx` fold for composed trees.
    fn code(&self, input: Code) -> Code {
        match (self.kind, input) {
            (TreeKind::Input, c) => c,
            (TreeKind::Composed, Code::Xvc104 | Code::Xvc105) => Code::Xvc302,
            (TreeKind::Composed, _) => Code::Xvc301,
        }
    }

    fn walk(
        &mut self,
        view: &SchemaTree,
        vid: xvc_view::ViewNodeId,
        scopes: &mut HashMap<String, Vec<(String, Option<ColumnType>)>>,
    ) {
        let Some(node) = view.node(vid) else { return };
        let mut bound = None;
        if let Some(q) = &node.query {
            let cx = QueryCx {
                node,
                span: node.query_span.get(),
                scopes,
            };
            self.check_query(q, &cx, &[]);
            // Bind this node's variable for the subtree (proper ancestors
            // only — the node itself was checked against the old scope).
            let cols = self.typed_output_columns(q, scopes);
            bound = Some((node.bv.clone(), scopes.insert(node.bv.clone(), cols)));
        }
        for &c in view.children(vid) {
            self.walk(view, c, scopes);
        }
        if let Some((bv, prev)) = bound {
            match prev {
                Some(p) => {
                    scopes.insert(bv, p);
                }
                None => {
                    scopes.remove(&bv);
                }
            }
        }
    }

    fn check_query(&mut self, q: &SelectQuery, cx: &QueryCx<'_>, outer: &[LayoutCol]) {
        // FROM layout (XVC101 for unknown base tables).
        let mut layout: Vec<LayoutCol> = Vec::new();
        for t in &q.from {
            match t {
                TableRef::Named { name, .. } if !self.catalog.contains(name) => self.push(
                    Code::Xvc101,
                    format!("unknown table `{name}`{}", cx.context()),
                    cx.span,
                    Some(format!(
                        "the catalog defines: {}",
                        self.catalog
                            .iter()
                            .map(|s| s.name.clone())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )),
                ),
                TableRef::Named { .. } => {}
                TableRef::Derived { query, .. } => {
                    self.check_query(query, cx, &chain(&layout, outer));
                }
            }
            layout.extend(self.item_columns(t, cx.scopes));
        }

        // Expressions (XVC102/103/104/105).
        for item in &q.select {
            if let SelectItem::Expr { expr, .. } = item {
                self.check_expr(expr, &layout, outer, cx);
            }
        }
        if let Some(w) = &q.where_clause {
            self.check_expr(w, &layout, outer, cx);
        }
        for g in &q.group_by {
            self.check_expr(g, &layout, outer, cx);
        }
        if let Some(h) = &q.having {
            self.check_expr(h, &layout, outer, cx);
        }

        // Aggregate/GROUP BY consistency (XVC106; input trees only — the
        // composed queries group by context columns UNBIND added, which is
        // exactly the GROUP BY-preservation of Figure 12).
        if self.kind == TreeKind::Input && q.is_aggregating() {
            for item in &q.select {
                match item {
                    SelectItem::Star | SelectItem::QualifiedStar(_) => self.push(
                        Code::Xvc106,
                        format!("star select in an aggregating query{}", cx.context()),
                        cx.span,
                        Some("project the grouped columns and aggregates explicitly".into()),
                    ),
                    SelectItem::Expr { expr, .. } => {
                        if !expr.contains_aggregate() && !q.group_by.contains(expr) {
                            self.push(
                                Code::Xvc106,
                                format!(
                                    "select item `{}` is neither aggregated nor listed in \
                                     GROUP BY{}",
                                    expr_label(expr),
                                    cx.context()
                                ),
                                cx.span,
                                None,
                            );
                        }
                    }
                }
            }
        }
    }

    fn check_expr(
        &mut self,
        e: &ScalarExpr,
        layout: &[LayoutCol],
        outer: &[LayoutCol],
        cx: &QueryCx<'_>,
    ) {
        match e {
            ScalarExpr::Column { qualifier, name } => {
                if resolve(layout, outer, qualifier.as_deref(), name).is_none() {
                    let what = match qualifier {
                        Some(q) => format!("`{q}.{name}`"),
                        None => format!("`{name}`"),
                    };
                    self.push(
                        Code::Xvc102,
                        format!("unknown column {what}{}", cx.context()),
                        cx.span,
                        suggest_columns(name, layout),
                    );
                }
            }
            ScalarExpr::Param { var, column } => match cx.scopes.get(var) {
                None => self.push(
                    Code::Xvc104,
                    format!(
                        "parameter `${var}.{column}` references ${var}, which no proper \
                         ancestor binds{}",
                        cx.context()
                    ),
                    cx.span,
                    Some(
                        "Definition 1: tag-query parameters must be binding variables of \
                         ancestor view nodes"
                            .into(),
                    ),
                ),
                Some(cols) => {
                    if !cols.iter().any(|(n, _)| n == column) {
                        let avail = cols
                            .iter()
                            .map(|(n, _)| n.clone())
                            .collect::<Vec<_>>()
                            .join(", ");
                        self.push(
                            Code::Xvc105,
                            format!(
                                "parameter `${var}.{column}`: the tag query binding ${var} \
                                 does not produce a column `{column}`{}",
                                cx.context()
                            ),
                            cx.span,
                            Some(format!("${var} produces: {avail}")),
                        );
                    }
                }
            },
            ScalarExpr::Binary { op, lhs, rhs } => {
                if op.is_comparison() {
                    let lt = self.type_of(lhs, layout, outer, cx);
                    let rt = self.type_of(rhs, layout, outer, cx);
                    if let (Some(a), Some(b)) = (lt, rt) {
                        if !compatible(a, b) {
                            self.push(
                                Code::Xvc103,
                                format!(
                                    "comparison `{} {} {}` mixes {a:?} and {b:?}{}",
                                    expr_label(lhs),
                                    op.symbol(),
                                    expr_label(rhs),
                                    cx.context()
                                ),
                                cx.span,
                                None,
                            );
                        }
                    }
                }
                self.check_expr(lhs, layout, outer, cx);
                self.check_expr(rhs, layout, outer, cx);
            }
            ScalarExpr::Not(inner) | ScalarExpr::IsNull(inner) => {
                self.check_expr(inner, layout, outer, cx);
            }
            ScalarExpr::Exists(sub) => {
                // Correlated EXISTS: the subquery sees this query's layout.
                self.check_query(sub, cx, &chain(layout, outer));
            }
            ScalarExpr::Aggregate { arg: Some(a), .. } => self.check_expr(a, layout, outer, cx),
            ScalarExpr::Aggregate { arg: None, .. } | ScalarExpr::Literal(_) => {}
        }
    }

    fn type_of(
        &self,
        e: &ScalarExpr,
        layout: &[LayoutCol],
        outer: &[LayoutCol],
        cx: &QueryCx<'_>,
    ) -> Option<ColumnType> {
        match e {
            ScalarExpr::Column { qualifier, name } => {
                resolve(layout, outer, qualifier.as_deref(), name).flatten()
            }
            ScalarExpr::Param { var, column } => cx
                .scopes
                .get(var)
                .and_then(|cols| cols.iter().find(|(n, _)| n == column))
                .and_then(|(_, ty)| *ty),
            ScalarExpr::Literal(Value::Int(_)) => Some(ColumnType::Int),
            ScalarExpr::Literal(Value::Float(_)) => Some(ColumnType::Float),
            ScalarExpr::Literal(Value::Str(_)) => Some(ColumnType::Str),
            ScalarExpr::Aggregate { func, arg } => match func {
                AggFunc::Count => Some(ColumnType::Int),
                AggFunc::Avg => Some(ColumnType::Float),
                AggFunc::Sum | AggFunc::Min | AggFunc::Max => arg
                    .as_ref()
                    .and_then(|a| self.type_of(a, layout, outer, cx)),
            },
            // Arithmetic, logic, NULL and subqueries: not statically typed
            // here; stay silent rather than guess wrong.
            _ => None,
        }
    }

    /// A base table's schema, [`NO_COLUMNS`] for an unknown one.
    fn schema(&self, table: &str) -> Result<&TableSchema> {
        Ok(self.catalog.get(table).unwrap_or(&NO_COLUMNS))
    }

    /// The columns FROM item `t` provides, with its binding and
    /// best-effort types: a base table's declared types, a derived
    /// table's [`Checker::typed_output_columns`].
    fn item_columns(
        &self,
        t: &TableRef,
        scopes: &HashMap<String, Vec<(String, Option<ColumnType>)>>,
    ) -> Vec<LayoutCol> {
        let alias = t.binding_name();
        let typed = match t {
            TableRef::Named { name, .. } => {
                let schema = self.catalog.get(name).unwrap_or(&NO_COLUMNS);
                let cols = t.columns(&|n| self.schema(n)).unwrap_or_default();
                cols.into_iter()
                    .map(|c| {
                        let ty = schema.column_index(&c).map(|i| schema.columns[i].ty);
                        (c, ty)
                    })
                    .collect()
            }
            TableRef::Derived { query, .. } => self.typed_output_columns(query, scopes),
        };
        typed
            .into_iter()
            .map(|(name, ty)| (alias.to_owned(), name, ty))
            .collect()
    }

    /// The names `q` publishes its columns under, each with the
    /// (best-effort) type of the attribute it names: that of the first
    /// column so named ([`SelectQuery::published`]).
    fn typed_output_columns(
        &self,
        q: &SelectQuery,
        scopes: &HashMap<String, Vec<(String, Option<ColumnType>)>>,
    ) -> Vec<(String, Option<ColumnType>)> {
        let layout: Vec<LayoutCol> = q
            .from
            .iter()
            .flat_map(|t| self.item_columns(t, scopes))
            .collect();
        let cx = QueryCx {
            node: &ViewNode::literal(0, "synthetic"),
            span: None,
            scopes,
        };
        q.output_columns(&|n| self.schema(n))
            .unwrap_or_default()
            .into_iter()
            .map(|name| {
                let ty = (q.published(&name, &|n| self.schema(n)).ok())
                    .and_then(|e| self.type_of(&e, &layout, &[], &cx));
                (name, ty)
            })
            .collect()
    }

    fn push(
        &mut self,
        input_code: Code,
        message: String,
        span: Option<Span>,
        help: Option<String>,
    ) {
        let mut d = Diagnostic::new(self.code(input_code), self.stage(), message).with_span(span);
        if let Some(h) = help {
            d = d.with_help(h);
        }
        self.out.push(d);
    }
}

/// Per-query context: the view node (for messages), the query's span in
/// the view source, and the typed ancestor bindings.
struct QueryCx<'a> {
    node: &'a ViewNode,
    span: Option<Span>,
    scopes: &'a HashMap<String, Vec<(String, Option<ColumnType>)>>,
}

impl QueryCx<'_> {
    fn context(&self) -> String {
        format!(
            " in the tag query of <{}> (node {})",
            self.node.tag, self.node.id
        )
    }
}

fn chain(layout: &[LayoutCol], outer: &[LayoutCol]) -> Vec<LayoutCol> {
    let mut v = layout.to_vec();
    v.extend_from_slice(outer);
    v
}

/// Resolves a (possibly qualified) column against the FROM layout, then
/// against the chained outer layouts (correlated EXISTS).
fn resolve(
    layout: &[LayoutCol],
    outer: &[LayoutCol],
    qualifier: Option<&str>,
    name: &str,
) -> Option<Option<ColumnType>> {
    let hit = |cols: &[LayoutCol]| {
        cols.iter()
            .find(|(a, n, _)| n == name && qualifier.is_none_or(|q| q == a))
            .map(|(_, _, ty)| *ty)
    };
    hit(layout).or_else(|| hit(outer))
}

fn suggest_columns(name: &str, layout: &[LayoutCol]) -> Option<String> {
    // A near-miss list keeps the message actionable without a fuzzy matcher.
    let mut names: Vec<&str> = layout.iter().map(|(_, n, _)| n.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    if names.is_empty() {
        return None;
    }
    let close: Vec<&str> = names
        .iter()
        .filter(|n| n.contains(name) || name.contains(**n))
        .copied()
        .collect();
    let list = if close.is_empty() { names } else { close };
    Some(format!("available columns: {}", list.join(", ")))
}

fn compatible(a: ColumnType, b: ColumnType) -> bool {
    a == b
        || matches!(
            (a, b),
            (ColumnType::Int, ColumnType::Float) | (ColumnType::Float, ColumnType::Int)
        )
}

/// Compact rendering of a scalar expression for messages.
fn expr_label(e: &ScalarExpr) -> String {
    match e {
        ScalarExpr::Column {
            qualifier: Some(q),
            name,
        } => format!("{q}.{name}"),
        ScalarExpr::Column {
            qualifier: None,
            name,
        } => name.clone(),
        ScalarExpr::Param { var, column } => format!("${var}.{column}"),
        ScalarExpr::Literal(v) => format!("{v}"),
        ScalarExpr::Binary { op, lhs, rhs } => {
            format!("{} {} {}", expr_label(lhs), op.symbol(), expr_label(rhs))
        }
        ScalarExpr::Not(x) => format!("NOT {}", expr_label(x)),
        ScalarExpr::IsNull(x) => format!("{} IS NULL", expr_label(x)),
        ScalarExpr::Exists(_) => "EXISTS (...)".to_owned(),
        ScalarExpr::Aggregate { func, arg } => format!(
            "{}({})",
            func.keyword(),
            arg.as_deref().map_or_else(|| "*".to_owned(), expr_label)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xvc_core::paper_fixtures::{figure1_view, figure2_catalog};
    use xvc_view::parse_view;

    fn check_src(view_src: &str, catalog: &Catalog) -> Vec<Diagnostic> {
        let v = parse_view(view_src).unwrap();
        check_view(&v, catalog, TreeKind::Input)
    }

    #[test]
    fn figure1_is_clean() {
        let ds = check_view(&figure1_view(), &figure2_catalog(), TreeKind::Input);
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn unknown_table_and_column() {
        let cat = figure2_catalog();
        let ds = check_src("node a $x { query: SELECT metroid FROM metrarea; }", &cat);
        assert_eq!(ds.len(), 2, "{ds:?}"); // unknown table, then orphaned column
        assert_eq!(ds[0].code, Code::Xvc101);
        let ds = check_src("node a $x { query: SELECT metroidd FROM metroarea; }", &cat);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, Code::Xvc102);
        assert!(ds[0].help.as_deref().unwrap().contains("metroid"), "{ds:?}");
    }

    #[test]
    fn type_mismatch_in_comparison() {
        let cat = figure2_catalog();
        let ds = check_src(
            "node a $x { query: SELECT metroid FROM metroarea WHERE metroname = 3; }",
            &cat,
        );
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, Code::Xvc103);
    }

    #[test]
    fn param_column_must_come_from_ancestor_output() {
        let cat = figure2_catalog();
        // $m only projects metroid/metroname; $m.hqstate does not exist.
        let ds = check_src(
            "node metro $m { query: SELECT metroid, metroname FROM metroarea;\n\
               node hotel $h { query: SELECT * FROM hotel WHERE metro_id = $m.hqstate; } }",
            &cat,
        );
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, Code::Xvc105);
        assert!(ds[0].help.as_deref().unwrap().contains("metroid"));
    }

    #[test]
    fn aggregate_projection_consistency() {
        let cat = figure2_catalog();
        let ds = check_src(
            "node a $x { query: SELECT SUM(capacity), croomnumber FROM confroom; }",
            &cat,
        );
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, Code::Xvc106);
        // Grouped projection is fine.
        let ds = check_src(
            "node a $x { query: SELECT SUM(capacity), croomnumber FROM confroom \
             GROUP BY croomnumber; }",
            &cat,
        );
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn composed_kind_folds_codes() {
        let cat = figure2_catalog();
        let v = parse_view("node a $x { query: SELECT nope FROM metroarea; }").unwrap();
        let ds = check_view(&v, &cat, TreeKind::Composed);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, Code::Xvc301);
        assert_eq!(ds[0].stage, Stage::Composed);
    }
}
