//! Translating `XPath` predicates into SQL conditions (§5.1, Figure 19/20).
//!
//! By restriction (10) database values surface as XML attributes, so an
//! attribute-level predicate like `@capacity > 250` is a condition over a
//! tag query's result columns. Two placements occur:
//!
//! * **own-query conditions** ([`push_into_query`]) — the predicate sits on
//!   the node whose query is being generated: `@attr` resolves to what
//!   that query publishes it from ([`SelectQuery::published`]: its first
//!   column named `attr`). If the
//!   column is produced by an *aggregate*
//!   select item (e.g. `@sum` over `SELECT SUM(capacity)`), the condition
//!   must go to `HAVING` with the aggregate expression substituted —
//!   Figure 20's `HAVING SUM(capacity) > 100`;
//! * **binding-tuple conditions** ([`to_param_condition`]) — the predicate
//!   sits on a context-side node whose tuple is carried by a binding
//!   variable: `@attr` becomes `$bv.attr` (Figure 20's
//!   `$s_new.sum < 200`-style conditions; the paper prints
//!   `$s_new.SUM_capacity`, we use the aggregate's output column name).

use xvc_rel::{BinOp as SqlOp, Catalog, ScalarExpr, SelectQuery, Value};
use xvc_xpath::{Axis, BinOp as XpOp, Expr, NodeTest, PathExpr};

use crate::error::{Error, Result};

/// How `@attr` references resolve during translation.
enum AttrMode<'a> {
    /// Into the output columns of this query (aggregate-aware), whose
    /// FROM items the catalog describes.
    OwnQuery(&'a SelectQuery, &'a Catalog),
    /// Into the binding tuple `$var`.
    Param(&'a str),
}

/// Pushes an attribute-level predicate into the query itself: `WHERE` for
/// plain columns, `HAVING` when the referenced column is an aggregate.
/// `catalog` describes the query's FROM items.
pub fn push_into_query(q: &mut SelectQuery, pred: &Expr, catalog: &Catalog) -> Result<()> {
    let (scalar, has_agg) = translate(pred, &AttrMode::OwnQuery(q, catalog))?;
    if has_agg {
        q.and_having(scalar);
    } else {
        q.and_where(scalar);
    }
    Ok(())
}

/// Translates an attribute-level predicate into a condition over the
/// binding tuple `$var` (to be conjoined into a descendant query's WHERE).
pub fn to_param_condition(var: &str, pred: &Expr) -> Result<ScalarExpr> {
    let (scalar, has_agg) = translate(pred, &AttrMode::Param(var))?;
    debug_assert!(!has_agg, "param mode never yields aggregates");
    Ok(scalar)
}

fn translate(e: &Expr, mode: &AttrMode<'_>) -> Result<(ScalarExpr, bool)> {
    match e {
        Expr::Literal(s) => Ok((ScalarExpr::Literal(Value::Str(s.clone())), false)),
        Expr::Number(n) => {
            let v = if n.fract() == 0.0 && n.abs() < 1e15 {
                Value::Int(*n as i64)
            } else {
                Value::Float(*n)
            };
            Ok((ScalarExpr::Literal(v), false))
        }
        Expr::Var(name) => Err(Error::NotComposable {
            reason: format!(
                "variable ${name} in a predicate (variables are handled by the \
                 §5.3 residual stylesheet, not by composition)"
            ),
        }),
        Expr::Path(p) => {
            // A bare attribute path as a boolean: existence of the value.
            let (col, agg) = attr_ref(p, mode)?;
            Ok((
                ScalarExpr::Not(Box::new(ScalarExpr::IsNull(Box::new(col)))),
                agg,
            ))
        }
        Expr::Binary { op, lhs, rhs } => {
            let sql_op = map_op(*op)?;
            let (l, la) = operand(lhs, mode)?;
            let (r, ra) = operand(rhs, mode)?;
            Ok((ScalarExpr::binary(sql_op, l, r), la || ra))
        }
        Expr::And(a, b) => {
            let (l, la) = translate(a, mode)?;
            let (r, ra) = translate(b, mode)?;
            Ok((ScalarExpr::binary(SqlOp::And, l, r), la || ra))
        }
        Expr::Or(a, b) => {
            let (l, la) = translate(a, mode)?;
            let (r, ra) = translate(b, mode)?;
            Ok((ScalarExpr::binary(SqlOp::Or, l, r), la || ra))
        }
        Expr::Not(a) => {
            let (inner, agg) = translate(a, mode)?;
            Ok((ScalarExpr::Not(Box::new(inner)), agg))
        }
    }
}

/// An operand of a comparison/arithmetic: attribute paths become value
/// references (not existence tests).
fn operand(e: &Expr, mode: &AttrMode<'_>) -> Result<(ScalarExpr, bool)> {
    match e {
        Expr::Path(p) => attr_ref(p, mode),
        other => translate(other, mode),
    }
}

fn attr_ref(p: &PathExpr, mode: &AttrMode<'_>) -> Result<(ScalarExpr, bool)> {
    let attr = match (&p.steps.as_slice(), p.absolute) {
        ([step], false) if step.axis == Axis::Attribute && step.predicates.is_empty() => {
            match &step.test {
                NodeTest::Name(a) => a.clone(),
                NodeTest::Wildcard => {
                    return Err(Error::NotComposable {
                        reason: "wildcard attribute reference `@*` in a predicate".into(),
                    })
                }
            }
        }
        _ => {
            return Err(Error::NotComposable {
                reason: format!("non-attribute path `{p}` in a scalar position"),
            })
        }
    };
    match mode {
        AttrMode::Param(var) => Ok((ScalarExpr::param(*var, attr), false)),
        AttrMode::OwnQuery(q, catalog) => {
            // What the query publishes `@attr` from: an aggregate goes to
            // HAVING.
            let e = q.published(&attr, &|n| catalog.get(n))?;
            let agg = e.contains_aggregate();
            Ok((e, agg))
        }
    }
}

fn map_op(op: XpOp) -> Result<SqlOp> {
    Ok(match op {
        XpOp::Eq => SqlOp::Eq,
        XpOp::Ne => SqlOp::Ne,
        XpOp::Lt => SqlOp::Lt,
        XpOp::Le => SqlOp::Le,
        XpOp::Gt => SqlOp::Gt,
        XpOp::Ge => SqlOp::Ge,
        XpOp::Add => SqlOp::Add,
        XpOp::Sub => SqlOp::Sub,
        XpOp::Mul => SqlOp::Mul,
        XpOp::Div => SqlOp::Div,
        XpOp::Mod => {
            return Err(Error::NotComposable {
                reason: "the `mod` operator has no SQL counterpart here".into(),
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_fixtures::figure2_catalog;
    use xvc_rel::parse_query;
    use xvc_xpath::parse_expr;

    #[test]
    fn plain_column_predicate_goes_to_where() {
        let mut q = parse_query("SELECT * FROM confroom").unwrap();
        push_into_query(
            &mut q,
            &parse_expr("@capacity > 250").unwrap(),
            &figure2_catalog(),
        )
        .unwrap();
        assert_eq!(q.to_sql(), "SELECT *\nFROM confroom\nWHERE capacity > 250");
    }

    #[test]
    fn aggregate_column_predicate_goes_to_having() {
        // Figure 20: the @sum>100 check on a SUM(capacity) query becomes
        // HAVING SUM(capacity) > 100.
        let mut q = parse_query("SELECT SUM(capacity) FROM confroom WHERE chotel_id = 1").unwrap();
        push_into_query(
            &mut q,
            &parse_expr("@sum > 100").unwrap(),
            &figure2_catalog(),
        )
        .unwrap();
        assert!(
            q.to_sql().ends_with("HAVING SUM(capacity) > 100"),
            "{}",
            q.to_sql()
        );
    }

    #[test]
    fn aliased_aggregate_lookup() {
        let mut q = parse_query("SELECT COUNT(a_id) AS total FROM availability").unwrap();
        push_into_query(
            &mut q,
            &parse_expr("@total >= 3").unwrap(),
            &figure2_catalog(),
        )
        .unwrap();
        assert!(q.to_sql().contains("HAVING COUNT(a_id) >= 3"));
    }

    #[test]
    fn param_condition_references_binding_tuple() {
        let c = to_param_condition("s_new", &parse_expr("@sum < 200").unwrap()).unwrap();
        assert_eq!(
            c,
            ScalarExpr::binary(
                SqlOp::Lt,
                ScalarExpr::param("s_new", "sum"),
                ScalarExpr::int(200)
            )
        );
    }

    #[test]
    fn boolean_attribute_existence() {
        let mut q = parse_query("SELECT * FROM hotel").unwrap();
        push_into_query(&mut q, &parse_expr("@pool").unwrap(), &figure2_catalog()).unwrap();
        assert!(q.to_sql().contains("NOT (pool IS NULL)"));
        let c = to_param_condition("h", &parse_expr("not(@pool)").unwrap()).unwrap();
        assert_eq!(
            c,
            ScalarExpr::Not(Box::new(ScalarExpr::Not(Box::new(ScalarExpr::IsNull(
                Box::new(ScalarExpr::param("h", "pool"))
            )))))
        );
    }

    #[test]
    fn connectives_translate() {
        let mut q = parse_query("SELECT * FROM hotel").unwrap();
        push_into_query(
            &mut q,
            &parse_expr("@starrating > 3 and @city = 'chicago' or @gym = 'yes'").unwrap(),
            &figure2_catalog(),
        )
        .unwrap();
        let sql = q.to_sql();
        assert!(
            sql.contains("starrating > 3 AND city = 'chicago' OR gym = 'yes'"),
            "{sql}"
        );
    }

    #[test]
    fn string_literals_and_numbers() {
        let c = to_param_condition("m", &parse_expr("@metroname = \"chicago\"").unwrap()).unwrap();
        assert!(matches!(
            c,
            ScalarExpr::Binary { rhs, .. }
                if *rhs == ScalarExpr::Literal(Value::Str("chicago".into()))
        ));
        let c = to_param_condition("m", &parse_expr("@x = 2.5").unwrap()).unwrap();
        assert!(matches!(
            c,
            ScalarExpr::Binary { rhs, .. }
                if *rhs == ScalarExpr::Literal(Value::Float(2.5))
        ));
    }

    #[test]
    fn variables_rejected() {
        assert!(matches!(
            to_param_condition("m", &parse_expr("@count < $idx").unwrap()),
            Err(Error::NotComposable { .. })
        ));
    }

    #[test]
    fn arithmetic_operands() {
        let mut q = parse_query("SELECT * FROM confroom").unwrap();
        push_into_query(
            &mut q,
            &parse_expr("@capacity * 2 > 500").unwrap(),
            &figure2_catalog(),
        )
        .unwrap();
        assert!(q.to_sql().contains("capacity * 2 > 500"));
    }
}
