//! Deterministic SQL pretty-printing.
//!
//! Two renderings are provided:
//! * [`SelectQuery::to_sql`] — multi-line, paper-figure style: one clause
//!   per line, `AND` conjuncts stacked, derived tables indented. Golden
//!   tests compare this form.
//! * [`SelectQuery::to_sql_inline`] — single-line (diagnostics, labels);
//!   [`ScalarExpr::to_sql_inline`] renders one expression the same way,
//!   and [`ScalarExpr::to_condition_inline`] one `WHERE` condition.
//!
//! A prepared plan's description (`PreparedPlan::describe`) renders its
//! expressions with the same precedence and literal syntax, each `EXISTS`
//! subquery elided to `EXISTS (...)`.

use std::fmt;

use crate::ast::{BinOp, ScalarExpr, SelectItem, SelectQuery, TableRef};

impl SelectQuery {
    /// Multi-line rendering (see module docs).
    pub fn to_sql(&self) -> String {
        let mut out = String::new();
        write_query(self, 0, &mut out);
        out
    }

    /// Single-line rendering.
    pub fn to_sql_inline(&self) -> String {
        inline(&self.to_sql())
    }
}

impl fmt::Display for SelectQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_sql())
    }
}

impl ScalarExpr {
    /// Single-line rendering (fact-chain displays, labels).
    pub fn to_sql_inline(&self) -> String {
        inline(&render_expr(self, 0))
    }

    /// Single-line rendering of this expression as a `WHERE` condition:
    /// its conjuncts ([`ScalarExpr::conjuncts`]) joined by `AND` the way
    /// [`SelectQuery::to_sql`] stacks them, on one line.
    pub fn to_condition_inline(&self) -> String {
        inline(&condition(&self.conjuncts(), Sub::Indent(0)))
    }
}

/// `e` as a plan description prints it: one line, `EXISTS` elided.
pub(crate) fn describe_expr(e: &ScalarExpr) -> String {
    render(e, 0, Sub::Elide)
}

/// A conjunct list as a plan description prints it: joined the way a
/// `WHERE` clause joins its conjuncts, on one line, `EXISTS` elided.
pub(crate) fn describe_condition(conjuncts: &[ScalarExpr]) -> String {
    condition(&conjuncts.iter().collect::<Vec<_>>(), Sub::Elide)
}

/// How an `EXISTS` subquery renders.
#[derive(Clone, Copy)]
enum Sub {
    /// In full, its clauses indented past this many columns.
    Indent(usize),
    /// As the placeholder `EXISTS (...)`.
    Elide,
}

/// `s` with every run of whitespace collapsed to one space.
fn inline(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// The precedence each of `n` conjuncts renders at: stacked under `AND`,
/// a lower-precedence operator (`OR`) needs parentheses.
fn conjunct_prec(n: usize) -> u8 {
    if n > 1 {
        prec(BinOp::And) + 1
    } else {
        0
    }
}

/// `conjuncts` joined by `AND` on one line.
fn condition(conjuncts: &[&ScalarExpr], sub: Sub) -> String {
    let p = conjunct_prec(conjuncts.len());
    let parts: Vec<String> = conjuncts.iter().map(|c| render(c, p, sub)).collect();
    parts.join(" AND ")
}

fn pad(indent: usize) -> String {
    " ".repeat(indent)
}

fn write_query(q: &SelectQuery, indent: usize, out: &mut String) {
    let p = pad(indent);
    out.push_str(&p);
    out.push_str("SELECT ");
    if q.distinct {
        out.push_str("DISTINCT ");
    }
    let items: Vec<String> = q.select.iter().map(render_item).collect();
    out.push_str(&items.join(", "));
    out.push('\n');
    out.push_str(&p);
    out.push_str("FROM ");
    for (i, t) in q.from.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match t {
            TableRef::Named { name, alias } => {
                out.push_str(name);
                if let Some(a) = alias {
                    out.push_str(" AS ");
                    out.push_str(a);
                }
            }
            TableRef::Derived {
                query,
                alias,
                preserved,
            } => {
                if *preserved {
                    out.push_str("OUTER ");
                }
                out.push('(');
                out.push('\n');
                write_query(query, indent + 4, out);
                out.push('\n');
                out.push_str(&pad(indent + 2));
                out.push_str(") AS ");
                out.push_str(alias);
            }
        }
    }
    if let Some(w) = &q.where_clause {
        out.push('\n');
        write_predicate(w, "WHERE", indent, out);
    }
    if !q.group_by.is_empty() {
        out.push('\n');
        out.push_str(&p);
        out.push_str("GROUP BY ");
        let cols: Vec<String> = q.group_by.iter().map(|e| render_expr(e, 0)).collect();
        out.push_str(&cols.join(", "));
    }
    if let Some(h) = &q.having {
        out.push('\n');
        write_predicate(h, "HAVING", indent, out);
    }
}

/// Writes `WHERE c1\n  AND c2\n  AND c3` by flattening top-level ANDs.
fn write_predicate(pred: &ScalarExpr, keyword: &str, indent: usize, out: &mut String) {
    let conjuncts = pred.conjuncts();
    let p = pad(indent);
    let operand_prec = conjunct_prec(conjuncts.len());
    for (i, c) in conjuncts.iter().enumerate() {
        if i == 0 {
            out.push_str(&p);
            out.push_str(keyword);
            out.push(' ');
        } else {
            out.push('\n');
            out.push_str(&p);
            out.push_str("  AND ");
        }
        out.push_str(&render(c, operand_prec, Sub::Indent(indent)));
    }
}

fn render_item(item: &SelectItem) -> String {
    match item {
        SelectItem::Star => "*".to_owned(),
        SelectItem::QualifiedStar(q) => format!("{q}.*"),
        SelectItem::Expr { expr, alias } => match alias {
            Some(a) => format!("{} AS {a}", render_expr(expr, 0)),
            None => render_expr(expr, 0),
        },
    }
}

/// Operator precedence for parenthesization.
fn prec(op: BinOp) -> u8 {
    match op {
        BinOp::Or => 1,
        BinOp::And => 2,
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
        BinOp::Add | BinOp::Sub => 4,
        BinOp::Mul | BinOp::Div => 5,
    }
}

fn render_expr(e: &ScalarExpr, parent_prec: u8) -> String {
    render(e, parent_prec, Sub::Indent(0))
}

fn render(e: &ScalarExpr, parent_prec: u8, sub: Sub) -> String {
    match e {
        ScalarExpr::Column { qualifier, name } => match qualifier {
            Some(q) => format!("{q}.{name}"),
            None => name.clone(),
        },
        ScalarExpr::Param { var, column } => format!("${var}.{column}"),
        ScalarExpr::Literal(v) => v.to_string(),
        ScalarExpr::Binary { op, lhs, rhs } => {
            let my = prec(*op);
            let l = render(lhs, my, sub);
            let r = render(rhs, my + 1, sub);
            let s = format!("{l} {} {r}", op.symbol());
            if my < parent_prec {
                format!("({s})")
            } else {
                s
            }
        }
        ScalarExpr::Not(inner) => {
            format!("NOT ({})", render(inner, 0, sub))
        }
        ScalarExpr::IsNull(inner) => {
            format!("{} IS NULL", render(inner, 6, sub))
        }
        ScalarExpr::Exists(q) => match sub {
            Sub::Indent(indent) => {
                let mut text = String::new();
                write_query(q, indent + 4, &mut text);
                format!("EXISTS (\n{text})")
            }
            Sub::Elide => "EXISTS (...)".to_owned(),
        },
        ScalarExpr::Aggregate { func, arg } => match arg {
            Some(a) => format!("{}({})", func.keyword(), render(a, 0, sub)),
            None => format!("{}(*)", func.keyword()),
        },
    }
}

#[cfg(test)]
mod tests {
    use crate::ast::*;

    fn sample() -> SelectQuery {
        // SELECT SUM(capacity), TEMP.* FROM confroom, (SELECT * FROM hotel
        // WHERE metro_id = $m.metroid AND starrating > 4) AS TEMP
        // WHERE chotel_id = TEMP.hotelid GROUP BY TEMP.hotelid
        let mut inner = SelectQuery::new(vec![SelectItem::Star], vec![TableRef::table("hotel")]);
        inner.and_where(ScalarExpr::eq(
            ScalarExpr::col("metro_id"),
            ScalarExpr::param("m", "metroid"),
        ));
        inner.and_where(ScalarExpr::binary(
            BinOp::Gt,
            ScalarExpr::col("starrating"),
            ScalarExpr::int(4),
        ));
        let mut q = SelectQuery::new(
            vec![
                SelectItem::expr(ScalarExpr::Aggregate {
                    func: AggFunc::Sum,
                    arg: Some(Box::new(ScalarExpr::col("capacity"))),
                }),
                SelectItem::QualifiedStar("TEMP".into()),
            ],
            vec![
                TableRef::table("confroom"),
                TableRef::derived(inner, "TEMP"),
            ],
        );
        q.and_where(ScalarExpr::eq(
            ScalarExpr::col("chotel_id"),
            ScalarExpr::qcol("TEMP", "hotelid"),
        ));
        q.group_by = vec![ScalarExpr::qcol("TEMP", "hotelid")];
        q
    }

    #[test]
    fn pretty_prints_paper_style() {
        let sql = sample().to_sql();
        assert!(sql.starts_with("SELECT SUM(capacity), TEMP.*\nFROM confroom, (\n"));
        assert!(sql.contains("WHERE metro_id = $m.metroid\n      AND starrating > 4"));
        assert!(sql.contains(") AS TEMP"));
        assert!(sql.ends_with("GROUP BY TEMP.hotelid"));
    }

    #[test]
    fn inline_collapses_whitespace() {
        let sql = sample().to_sql_inline();
        assert!(!sql.contains('\n'));
        assert!(sql.contains("SELECT SUM(capacity), TEMP.* FROM confroom, ( SELECT *"));
    }

    #[test]
    fn parenthesizes_by_precedence() {
        // (a = 1 OR b = 2) AND c = 3 must keep its parens.
        let e = ScalarExpr::binary(
            BinOp::And,
            ScalarExpr::binary(
                BinOp::Or,
                ScalarExpr::eq(ScalarExpr::col("a"), ScalarExpr::int(1)),
                ScalarExpr::eq(ScalarExpr::col("b"), ScalarExpr::int(2)),
            ),
            ScalarExpr::eq(ScalarExpr::col("c"), ScalarExpr::int(3)),
        );
        let mut q = SelectQuery::new(vec![SelectItem::Star], vec![TableRef::table("t")]);
        q.where_clause = Some(e);
        let sql = q.to_sql();
        assert!(
            sql.contains("WHERE (a = 1 OR b = 2)\n  AND c = 3"),
            "got:\n{sql}"
        );
    }

    #[test]
    fn renders_not_and_is_null() {
        let mut q = SelectQuery::new(vec![SelectItem::Star], vec![TableRef::table("t")]);
        q.and_where(ScalarExpr::Not(Box::new(ScalarExpr::IsNull(Box::new(
            ScalarExpr::col("x"),
        )))));
        assert!(q.to_sql().contains("NOT (x IS NULL)"));
    }

    #[test]
    fn renders_count_star_and_aliases() {
        let q = SelectQuery::new(
            vec![
                SelectItem::aliased(
                    ScalarExpr::Aggregate {
                        func: AggFunc::Count,
                        arg: None,
                    },
                    "n",
                ),
                SelectItem::expr(ScalarExpr::col("startdate")),
            ],
            vec![TableRef::table("availability")],
        );
        assert_eq!(
            q.to_sql(),
            "SELECT COUNT(*) AS n, startdate\nFROM availability"
        );
    }
}
