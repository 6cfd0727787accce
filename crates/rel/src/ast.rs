//! SQL abstract syntax for the fragment emitted by view composition.
//!
//! This covers every query appearing in the paper's figures: select lists
//! with aggregates and qualified stars (`TEMP.*`), derived tables
//! (`(SELECT ...) AS TEMP`), parameters on binding variables
//! (`$m.metroid`), `GROUP BY` / `HAVING`, and `EXISTS` subqueries.

use crate::error::{Error, Result};
use crate::schema::TableSchema;
use crate::value::Value;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(expr)` / `COUNT(*)`.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)`.
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
}

impl AggFunc {
    /// SQL keyword for this function.
    pub fn keyword(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }

    /// Default output-column name when the aggregate has no alias. The
    /// publisher turns result columns into XML attributes, and the paper's
    /// stylesheets reference them as `@sum` / `@count` (Figures 17, 25).
    pub fn default_column_name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}

/// Binary operators in scalar expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `<>` (also parsed from `!=`)
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl BinOp {
    /// The operator in SQL source syntax.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        }
    }

    /// True for `= <> < <= > >=`.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// Column reference, optionally qualified: `hotelid` / `TEMP.hotelid`.
    Column {
        /// FROM-item alias qualifier, if written.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// Parameter on a binding variable: `$m.metroid` (§2.1: tag queries are
    /// parameterized by the binding variables of ancestor view nodes).
    Param {
        /// Binding-variable name (without `$`).
        var: String,
        /// Column of the bound tuple.
        column: String,
    },
    /// Literal value.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<ScalarExpr>,
        /// Right operand.
        rhs: Box<ScalarExpr>,
    },
    /// `NOT expr`.
    Not(Box<ScalarExpr>),
    /// `expr IS NULL`.
    IsNull(Box<ScalarExpr>),
    /// `EXISTS (subquery)`.
    Exists(Box<SelectQuery>),
    /// Aggregate call: `SUM(capacity)`, `COUNT(*)` (arg `None`).
    Aggregate {
        /// The aggregate function.
        func: AggFunc,
        /// Argument; `None` means `*` (only valid for COUNT).
        arg: Option<Box<ScalarExpr>>,
    },
}

impl ScalarExpr {
    /// Unqualified column reference.
    pub fn col(name: impl Into<String>) -> ScalarExpr {
        ScalarExpr::Column {
            qualifier: None,
            name: name.into(),
        }
    }

    /// Qualified column reference.
    pub fn qcol(qualifier: impl Into<String>, name: impl Into<String>) -> ScalarExpr {
        ScalarExpr::Column {
            qualifier: Some(qualifier.into()),
            name: name.into(),
        }
    }

    /// Parameter reference `$var.column`.
    pub fn param(var: impl Into<String>, column: impl Into<String>) -> ScalarExpr {
        ScalarExpr::Param {
            var: var.into(),
            column: column.into(),
        }
    }

    /// Integer literal.
    pub fn int(v: i64) -> ScalarExpr {
        ScalarExpr::Literal(Value::Int(v))
    }

    /// String literal.
    pub fn str(v: impl Into<String>) -> ScalarExpr {
        ScalarExpr::Literal(Value::Str(v.into()))
    }

    /// Binary operation helper.
    pub fn binary(op: BinOp, lhs: ScalarExpr, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// `lhs = rhs`.
    pub fn eq(lhs: ScalarExpr, rhs: ScalarExpr) -> ScalarExpr {
        ScalarExpr::binary(BinOp::Eq, lhs, rhs)
    }

    /// True if this expression (not descending into subqueries) contains an
    /// aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        self.any(|e| matches!(e, ScalarExpr::Aggregate { .. }))
    }

    /// The direct operands: both sides of a binary operation, the operand
    /// of `NOT` / `IS NULL`, and an aggregate's argument. An `EXISTS`
    /// subquery is a query, not an operand.
    fn operands(&self) -> impl Iterator<Item = &ScalarExpr> {
        let (first, second) = match self {
            ScalarExpr::Binary { lhs, rhs, .. } => (Some(&**lhs), Some(&**rhs)),
            ScalarExpr::Not(e)
            | ScalarExpr::IsNull(e)
            | ScalarExpr::Aggregate { arg: Some(e), .. } => (Some(&**e), None),
            _ => (None, None),
        };
        first.into_iter().chain(second)
    }

    /// [`ScalarExpr::operands`], mutably.
    fn operands_mut(&mut self) -> impl Iterator<Item = &mut ScalarExpr> {
        let (first, second) = match self {
            ScalarExpr::Binary { lhs, rhs, .. } => (Some(&mut **lhs), Some(&mut **rhs)),
            ScalarExpr::Not(e)
            | ScalarExpr::IsNull(e)
            | ScalarExpr::Aggregate { arg: Some(e), .. } => (Some(&mut **e), None),
            _ => (None, None),
        };
        first.into_iter().chain(second)
    }

    /// Calls `f` on this node, then walks its operands, depth first and
    /// left to right. `EXISTS` subqueries are not entered: they are query
    /// levels of their own ([`SelectQuery::walk`] enters them).
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a ScalarExpr)) {
        f(self);
        for operand in self.operands() {
            operand.walk(f);
        }
    }

    /// [`ScalarExpr::walk`] over mutable nodes. `f` sees a node before its
    /// operands, so it can replace the node; the replacement's operands are
    /// walked next.
    pub fn walk_mut(&mut self, f: &mut impl FnMut(&mut ScalarExpr)) {
        f(self);
        for operand in self.operands_mut() {
            operand.walk_mut(f);
        }
    }

    /// True if `pred` holds for some node [`ScalarExpr::walk`] visits.
    pub(crate) fn any(&self, pred: impl Fn(&ScalarExpr) -> bool) -> bool {
        fn go(e: &ScalarExpr, pred: &impl Fn(&ScalarExpr) -> bool) -> bool {
            pred(e) || e.operands().any(|o| go(o, pred))
        }
        go(self, &pred)
    }

    /// The `EXISTS` subqueries [`ScalarExpr::walk`] meets, in its order
    /// (not the ones nested inside them).
    pub fn subqueries(&self) -> Vec<&SelectQuery> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let ScalarExpr::Exists(q) = e {
                out.push(&**q);
            }
        });
        out
    }

    /// The top-level `AND` parts, left to right: `a AND (b AND c)` gives
    /// `[a, b, c]`, and an expression that is no `AND` is its own part.
    pub fn conjuncts(&self) -> Vec<&ScalarExpr> {
        let mut out = Vec::new();
        let mut stack = vec![self];
        while let Some(e) = stack.pop() {
            match e {
                ScalarExpr::Binary {
                    op: BinOp::And,
                    lhs,
                    rhs,
                } => {
                    stack.push(rhs);
                    stack.push(lhs);
                }
                part => out.push(part),
            }
        }
        out
    }

    /// [`ScalarExpr::conjuncts`], taking the parts.
    pub fn into_conjuncts(self) -> Vec<ScalarExpr> {
        let mut out = Vec::new();
        let mut stack = vec![self];
        while let Some(e) = stack.pop() {
            match e {
                ScalarExpr::Binary {
                    op: BinOp::And,
                    lhs,
                    rhs,
                } => {
                    stack.push(*rhs);
                    stack.push(*lhs);
                }
                part => out.push(part),
            }
        }
        out
    }

    /// The left fold of `parts` under `AND`, `None` when there are none:
    /// it rebuilds the left-deep chain [`ScalarExpr::into_conjuncts`] took
    /// apart.
    pub fn conjoin(parts: impl IntoIterator<Item = ScalarExpr>) -> Option<ScalarExpr> {
        parts
            .into_iter()
            .reduce(|acc, part| ScalarExpr::binary(BinOp::And, acc, part))
    }
}

/// One item of a select list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `expr [AS alias]`.
    Expr {
        /// The expression.
        expr: ScalarExpr,
        /// Optional output name.
        alias: Option<String>,
    },
    /// `*` — all columns of all FROM items.
    Star,
    /// `alias.*` — all columns of one FROM item (the paper's `TEMP.*`).
    QualifiedStar(
        /// The FROM-item alias.
        String,
    ),
}

impl SelectItem {
    /// Unaliased expression item.
    pub fn expr(e: ScalarExpr) -> SelectItem {
        SelectItem::Expr {
            expr: e,
            alias: None,
        }
    }

    /// Aliased expression item.
    pub fn aliased(e: ScalarExpr, alias: impl Into<String>) -> SelectItem {
        SelectItem::Expr {
            expr: e,
            alias: Some(alias.into()),
        }
    }

    /// The name an expression item publishes its value under — the XML
    /// attribute name (§2.2.2) that predicates, `$bv.col` parameters and
    /// the lineage report refer to: its alias; else a column's name, a
    /// parameter's column or an aggregate's default name (`sum`); else
    /// `col{idx}`, by its position in the select list. `None` for `*` and
    /// `alias.*`, which publish their FROM items' columns
    /// ([`SelectQuery::output_names`]).
    pub fn name(&self, idx: usize) -> Option<String> {
        let SelectItem::Expr { expr, alias } = self else {
            return None;
        };
        Some(match (alias, expr) {
            (Some(a), _) => a.clone(),
            (None, ScalarExpr::Column { name, .. }) => name.clone(),
            (None, ScalarExpr::Param { column, .. }) => column.clone(),
            (None, ScalarExpr::Aggregate { func, .. }) => func.default_column_name().to_owned(),
            (None, _) => format!("col{idx}"),
        })
    }
}

/// One FROM item.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// Base table, optionally aliased.
    Named {
        /// Table name in the catalog.
        name: String,
        /// Optional alias; the table is referenced by `alias` if present,
        /// by `name` otherwise.
        alias: Option<String>,
    },
    /// Derived table `(SELECT ...) AS alias`.
    Derived {
        /// The subquery.
        query: Box<SelectQuery>,
        /// Mandatory alias.
        alias: String,
        /// Preserved-side (left-outer) semantics: every row of this derived
        /// table appears in the result at least once; when no combination
        /// of the remaining FROM items joins with it, their columns are
        /// NULL. Needed when unbinding implicitly aggregating tag queries
        /// (`SELECT SUM(...)` with no GROUP BY returns a row even over an
        /// empty input, so the composed per-group query must not lose the
        /// group). Rendered as `OUTER (…) AS alias`; in a production SQL
        /// dialect this is `alias LEFT JOIN (rest of FROM)`.
        preserved: bool,
    },
}

impl TableRef {
    /// Base-table reference without alias.
    pub fn table(name: impl Into<String>) -> TableRef {
        TableRef::Named {
            name: name.into(),
            alias: None,
        }
    }

    /// Derived-table reference (inner-join semantics).
    pub fn derived(query: SelectQuery, alias: impl Into<String>) -> TableRef {
        TableRef::Derived {
            query: Box::new(query),
            alias: alias.into(),
            preserved: false,
        }
    }

    /// The name this FROM item is referenced by.
    pub fn binding_name(&self) -> &str {
        match self {
            TableRef::Named { name, alias } => alias.as_deref().unwrap_or(name),
            TableRef::Derived { alias, .. } => alias,
        }
    }

    /// The columns this FROM item provides, in order: a base table's
    /// schema columns, a derived table's output names
    /// ([`SelectQuery::output_columns`]). `schema` looks a base table up,
    /// in a `Catalog` or a `Database`; an unknown table is its error.
    pub fn columns<'s>(
        &self,
        schema: &dyn Fn(&str) -> Result<&'s TableSchema>,
    ) -> Result<Vec<String>> {
        match self {
            TableRef::Named { name, .. } => Ok(schema(name)?.column_names()),
            TableRef::Derived { query, .. } => query.output_columns(schema),
        }
    }
}

/// A SELECT query.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectQuery {
    /// `DISTINCT` flag.
    pub distinct: bool,
    /// Select list (non-empty).
    pub select: Vec<SelectItem>,
    /// FROM items (comma join).
    pub from: Vec<TableRef>,
    /// WHERE predicate.
    pub where_clause: Option<ScalarExpr>,
    /// GROUP BY expressions.
    pub group_by: Vec<ScalarExpr>,
    /// HAVING predicate.
    pub having: Option<ScalarExpr>,
}

impl SelectQuery {
    /// A `SELECT <items> FROM <table>` skeleton.
    pub fn new(select: Vec<SelectItem>, from: Vec<TableRef>) -> Self {
        SelectQuery {
            distinct: false,
            select,
            from,
            where_clause: None,
            group_by: Vec::new(),
            having: None,
        }
    }

    /// Adds a conjunct to the WHERE clause.
    pub fn and_where(&mut self, pred: ScalarExpr) {
        self.where_clause = Some(match self.where_clause.take() {
            None => pred,
            Some(w) => ScalarExpr::binary(BinOp::And, w, pred),
        });
    }

    /// Adds a conjunct to the HAVING clause.
    pub fn and_having(&mut self, pred: ScalarExpr) {
        self.having = Some(match self.having.take() {
            None => pred,
            Some(h) => ScalarExpr::binary(BinOp::And, h, pred),
        });
    }

    /// The `SELECT 1 WHERE guard` probe over an empty FROM: the query the
    /// publisher evaluates for an emission guard, and the one the fact
    /// engine analyzes for it, so both see the same conjuncts.
    pub fn guard_probe(guard: &ScalarExpr) -> SelectQuery {
        let mut probe = SelectQuery::new(vec![SelectItem::expr(ScalarExpr::int(1))], vec![]);
        probe.where_clause = Some(guard.clone());
        probe
    }

    /// The names this query publishes its columns under, in order, over
    /// `layout`: the `(binding, column)` pairs its FROM items provide
    /// ([`TableRef::columns`]). An expression item publishes
    /// [`SelectItem::name`], `*` every layout column and `alias.*` the
    /// columns bound to `alias` — an [`Error::UnknownTable`] when no FROM
    /// item is.
    pub fn output_names(&self, layout: &[(String, String)]) -> Result<Vec<String>> {
        let mut out = Vec::new();
        for (idx, item) in self.select.iter().enumerate() {
            match item {
                SelectItem::Expr { .. } => out.extend(item.name(idx)),
                SelectItem::Star => out.extend(layout.iter().map(|(_, c)| c.clone())),
                SelectItem::QualifiedStar(q) => {
                    if !self.from.iter().any(|t| t.binding_name() == q) {
                        return Err(Error::UnknownTable { name: q.clone() });
                    }
                    out.extend(
                        layout
                            .iter()
                            .filter(|(b, _)| b == q)
                            .map(|(_, c)| c.clone()),
                    );
                }
            }
        }
        Ok(out)
    }

    /// The query's output column names, without evaluating it: its
    /// [`SelectQuery::output_names`] over the columns its FROM items
    /// provide. `schema` looks a base table up.
    pub fn output_columns<'s>(
        &self,
        schema: &dyn Fn(&str) -> Result<&'s TableSchema>,
    ) -> Result<Vec<String>> {
        let mut layout = Vec::new();
        for t in &self.from {
            let binding = t.binding_name();
            layout.extend(
                t.columns(schema)?
                    .into_iter()
                    .map(|c| (binding.to_owned(), c)),
            );
        }
        self.output_names(&layout)
    }

    /// What computes attribute `name` of this query's rows. Attribute `n`
    /// of a row is the first column named `n` in output order
    /// ([`SelectQuery::output_names`]), NULL or not: the publisher emits
    /// it, `$bv.n` reads it ([`crate::Bindings::value`]) and the fact
    /// engine exports its facts alone. That column is an expression
    /// item's expression, or the plain column `name` when a `*` or
    /// `alias.*` covers it first; with no column so named, the plain
    /// column `name`. `schema` looks a base table up; an unknown table a
    /// star expands, or an `alias.*` naming no FROM item, is its error.
    pub fn published<'s>(
        &self,
        name: &str,
        schema: &dyn Fn(&str) -> Result<&'s TableSchema>,
    ) -> Result<ScalarExpr> {
        for (idx, item) in self.select.iter().enumerate() {
            let expanded: Vec<&TableRef> = match item {
                SelectItem::Expr { expr, .. } if item.name(idx).as_deref() == Some(name) => {
                    return Ok(expr.clone())
                }
                SelectItem::Expr { .. } => continue,
                SelectItem::Star => self.from.iter().collect(),
                SelectItem::QualifiedStar(q) => {
                    let t = (self.from.iter().find(|t| t.binding_name() == q))
                        .ok_or_else(|| Error::UnknownTable { name: q.clone() })?;
                    vec![t]
                }
            };
            for t in expanded {
                if t.columns(schema)?.iter().any(|c| c == name) {
                    return Ok(ScalarExpr::col(name));
                }
            }
        }
        Ok(ScalarExpr::col(name))
    }

    /// True if the query computes aggregates (grouped or implicit group).
    pub fn is_aggregating(&self) -> bool {
        !self.group_by.is_empty()
            || self.having.is_some()
            || self.select.iter().any(
                |item| matches!(item, SelectItem::Expr { expr, .. } if expr.contains_aggregate()),
            )
    }

    /// The binding variables referenced by this query (its *parameters* in
    /// the sense of Definition 1), in first-occurrence order.
    pub fn parameters(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        self.walk(&mut |e| {
            if let ScalarExpr::Param { var, .. } = e {
                if !out.contains(var) {
                    out.push(var.clone());
                }
            }
        });
        out
    }

    /// This level's expressions: the select items', then `WHERE`, the
    /// `GROUP BY` keys and `HAVING`. Derived tables and `EXISTS`
    /// subqueries are levels of their own.
    pub fn exprs(&self) -> impl Iterator<Item = &ScalarExpr> {
        self.select
            .iter()
            .filter_map(|item| match item {
                SelectItem::Expr { expr, .. } => Some(expr),
                _ => None,
            })
            .chain(&self.where_clause)
            .chain(&self.group_by)
            .chain(&self.having)
    }

    /// [`SelectQuery::exprs`], mutably.
    pub fn exprs_mut(&mut self) -> impl Iterator<Item = &mut ScalarExpr> {
        self.select
            .iter_mut()
            .filter_map(|item| match item {
                SelectItem::Expr { expr, .. } => Some(expr),
                _ => None,
            })
            .chain(&mut self.where_clause)
            .chain(&mut self.group_by)
            .chain(&mut self.having)
    }

    /// Calls `f` on every expression node at every level, in the order
    /// [`SelectQuery::parameters`] reports: the select items, then the
    /// derived tables, then `WHERE`, `GROUP BY` and `HAVING`, each
    /// `EXISTS` subquery walked where it occurs (after its own node).
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a ScalarExpr)) {
        fn deep<'a>(e: &'a ScalarExpr, f: &mut impl FnMut(&'a ScalarExpr)) {
            e.walk(&mut |node| {
                f(node);
                if let ScalarExpr::Exists(sub) = node {
                    sub.walk(f);
                }
            });
        }
        for item in &self.select {
            if let SelectItem::Expr { expr, .. } = item {
                deep(expr, f);
            }
        }
        for t in &self.from {
            if let TableRef::Derived { query, .. } = t {
                query.walk(f);
            }
        }
        for e in self
            .where_clause
            .iter()
            .chain(&self.group_by)
            .chain(&self.having)
        {
            deep(e, f);
        }
    }

    /// [`SelectQuery::walk`] over mutable nodes; like
    /// [`ScalarExpr::walk_mut`], `f` sees a node before what it holds.
    pub fn walk_mut(&mut self, f: &mut impl FnMut(&mut ScalarExpr)) {
        fn deep(e: &mut ScalarExpr, f: &mut impl FnMut(&mut ScalarExpr)) {
            e.walk_mut(&mut |node| {
                f(node);
                if let ScalarExpr::Exists(sub) = node {
                    sub.walk_mut(f);
                }
            });
        }
        for item in &mut self.select {
            if let SelectItem::Expr { expr, .. } = item {
                deep(expr, f);
            }
        }
        for t in &mut self.from {
            if let TableRef::Derived { query, .. } = t {
                query.walk_mut(f);
            }
        }
        for e in self
            .where_clause
            .iter_mut()
            .chain(&mut self.group_by)
            .chain(&mut self.having)
        {
            deep(e, f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_where_builds_conjunctions() {
        let mut q = SelectQuery::new(vec![SelectItem::Star], vec![TableRef::table("hotel")]);
        assert!(q.where_clause.is_none());
        q.and_where(ScalarExpr::eq(ScalarExpr::col("a"), ScalarExpr::int(1)));
        q.and_where(ScalarExpr::eq(ScalarExpr::col("b"), ScalarExpr::int(2)));
        let Some(ScalarExpr::Binary { op: BinOp::And, .. }) = q.where_clause else {
            panic!("expected AND");
        };
    }

    #[test]
    fn aggregation_detection() {
        let mut q = SelectQuery::new(
            vec![SelectItem::expr(ScalarExpr::Aggregate {
                func: AggFunc::Sum,
                arg: Some(Box::new(ScalarExpr::col("capacity"))),
            })],
            vec![TableRef::table("confroom")],
        );
        assert!(q.is_aggregating());
        q.select = vec![SelectItem::Star];
        assert!(!q.is_aggregating());
        q.group_by = vec![ScalarExpr::col("x")];
        assert!(q.is_aggregating());
    }

    #[test]
    fn parameters_collected_recursively() {
        let inner = {
            let mut q = SelectQuery::new(vec![SelectItem::Star], vec![TableRef::table("hotel")]);
            q.and_where(ScalarExpr::eq(
                ScalarExpr::col("metro_id"),
                ScalarExpr::param("m", "metroid"),
            ));
            q
        };
        let mut q = SelectQuery::new(
            vec![SelectItem::Star],
            vec![TableRef::derived(inner, "TEMP")],
        );
        q.and_where(ScalarExpr::eq(
            ScalarExpr::col("x"),
            ScalarExpr::param("h", "hotelid"),
        ));
        assert_eq!(q.parameters(), vec!["m".to_owned(), "h".to_owned()]);

        // One parameter in each place, reported in walk order.
        let q = crate::parse::parse_query(
            "SELECT $a.x, EXISTS (SELECT 1 FROM u WHERE u.k = $b.k) \
             FROM (SELECT * FROM t WHERE t.k = $c.k) AS D \
             WHERE D.z = $d.z GROUP BY $e.g HAVING COUNT(*) > $f.n",
        )
        .unwrap();
        assert_eq!(q.parameters(), ["a", "b", "c", "d", "e", "f"]);
    }

    #[test]
    fn walk_enters_aggregate_arguments_not_exists() {
        let e = crate::parse::parse_query(
            "SELECT 1 FROM t WHERE SUM(a + 1) > 2 OR EXISTS (SELECT b FROM u WHERE c = 3)",
        )
        .unwrap()
        .where_clause
        .unwrap();
        let mut seen = Vec::new();
        e.walk(&mut |node| seen.push(node.to_sql_inline()));
        assert_eq!(
            seen,
            [
                "SUM(a + 1) > 2 OR EXISTS ( SELECT b FROM u WHERE c = 3)",
                "SUM(a + 1) > 2",
                "SUM(a + 1)",
                "a + 1",
                "a",
                "1",
                "2",
                "EXISTS ( SELECT b FROM u WHERE c = 3)",
            ]
        );
        assert_eq!(e.subqueries().len(), 1);
        assert!(e.any(|node| matches!(node, ScalarExpr::Column { name, .. } if name == "a")));
        assert!(!e.any(|node| matches!(node, ScalarExpr::Column { name, .. } if name == "c")));
    }

    #[test]
    fn conjuncts_and_conjoin_round_trip() {
        let (a, b, c) = (
            ScalarExpr::col("a"),
            ScalarExpr::col("b"),
            ScalarExpr::col("c"),
        );
        let and = |l, r| ScalarExpr::binary(BinOp::And, l, r);
        let right_deep = and(a.clone(), and(b.clone(), c.clone()));
        assert_eq!(right_deep.conjuncts(), [&a, &b, &c]);
        assert_eq!(
            right_deep.into_conjuncts(),
            [a.clone(), b.clone(), c.clone()]
        );

        let left_deep = and(and(a.clone(), b.clone()), c.clone());
        let parts = left_deep.clone().into_conjuncts();
        assert_eq!(parts, [a.clone(), b, c]);
        assert_eq!(ScalarExpr::conjoin(parts), Some(left_deep));
        assert_eq!(ScalarExpr::conjoin([a.clone()]), Some(a.clone()));
        assert_eq!(ScalarExpr::conjoin([]), None);
        assert_eq!(a.conjuncts(), [&a]);
    }

    #[test]
    fn binding_names() {
        assert_eq!(TableRef::table("hotel").binding_name(), "hotel");
        let aliased = TableRef::Named {
            name: "hotel".into(),
            alias: Some("h".into()),
        };
        assert_eq!(aliased.binding_name(), "h");
    }
}
