//! Property tests for prepared plans: on every generated database and
//! query, `prepare(q).execute(db, env)` must produce exactly the same
//! rows — and `execute_stats` the same [`EvalStats`] counters — as the
//! interpreter (`eval_query_stats`). Queries both sides reject count as
//! agreement: the plan's promise is "same behaviour", not "no errors".

use proptest::prelude::*;
use xvc_rel::{
    eval_query_stats, parse_query, prepare, AggFunc, BinOp, ColumnDef, ColumnType, Database,
    EvalOptions, EvalStats, NamedTuple, ParamEnv, ScalarExpr, SelectItem, SelectQuery, TableRef,
    Value,
};

/// Case count: the in-tree default, overridable via `PROPTEST_CASES` for
/// heavier offline fuzzing runs.
fn cases(default: u32) -> proptest::test_runner::Config {
    let n = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default);
    proptest::test_runner::Config::with_cases(n)
}

// ---------------------------------------------------------------------------
// Generators (same shape as prop_engine.rs: r(a, b, k) ⋈ s(c, k2))
// ---------------------------------------------------------------------------

fn db_strategy() -> impl Strategy<Value = Database> {
    let row_r = (0i64..5, 0i64..5, 0i64..4);
    let row_s = (0i64..5, 0i64..4);
    (
        prop::collection::vec(row_r, 0..8),
        prop::collection::vec(row_s, 0..8),
    )
        .prop_map(|(rs, ss)| {
            let mut db = Database::new();
            db.create_table(
                xvc_rel::TableSchema::new(
                    "r",
                    vec![
                        ColumnDef::new("a", ColumnType::Int),
                        ColumnDef::new("b", ColumnType::Int),
                        ColumnDef::new("k", ColumnType::Int),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
            db.create_table(
                xvc_rel::TableSchema::new(
                    "s",
                    vec![
                        ColumnDef::new("c", ColumnType::Int),
                        ColumnDef::new("k2", ColumnType::Int),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
            for (a, b, k) in rs {
                db.insert("r", vec![Value::Int(a), Value::Int(b), Value::Int(k)])
                    .unwrap();
            }
            for (c, k) in ss {
                db.insert("s", vec![Value::Int(c), Value::Int(k)]).unwrap();
            }
            db
        })
}

fn cmp_op() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
    ]
}

/// A conjunctive filter mixing per-table pushdowns, the equi-join key and
/// (optionally) a `$p.v` parameter bound — every classification bucket the
/// compiler distinguishes (pushdown / join key / prefix filter / residual)
/// gets exercised across the case set.
fn where_strategy() -> impl Strategy<Value = ScalarExpr> {
    let atom = (
        prop_oneof![Just("a"), Just("b"), Just("c")],
        cmp_op(),
        0i64..5,
        any::<bool>(),
    )
        .prop_map(|(col, op, v, param)| {
            let bound = if param {
                ScalarExpr::Param {
                    var: "p".into(),
                    column: "v".into(),
                }
            } else {
                ScalarExpr::int(v)
            };
            ScalarExpr::binary(op, ScalarExpr::col(col), bound)
        });
    (prop::collection::vec(atom, 0..3), any::<bool>()).prop_map(|(extra, join)| {
        let mut pred = if join {
            ScalarExpr::eq(ScalarExpr::col("k"), ScalarExpr::col("k2"))
        } else {
            // Cross product with a filter: exercises the nested-loop path.
            ScalarExpr::binary(BinOp::Le, ScalarExpr::col("k"), ScalarExpr::col("k2"))
        };
        for e in extra {
            pred = ScalarExpr::binary(BinOp::And, pred, e);
        }
        pred
    })
}

fn query_strategy() -> impl Strategy<Value = SelectQuery> {
    (where_strategy(), any::<bool>(), any::<bool>()).prop_map(|(w, agg, distinct)| {
        let select = if agg {
            vec![
                SelectItem::expr(ScalarExpr::col("k")),
                SelectItem::expr(ScalarExpr::Aggregate {
                    func: AggFunc::Count,
                    arg: None,
                }),
                SelectItem::aliased(
                    ScalarExpr::Aggregate {
                        func: AggFunc::Sum,
                        arg: Some(Box::new(ScalarExpr::col("a"))),
                    },
                    "total",
                ),
            ]
        } else {
            vec![SelectItem::Star]
        };
        let mut q = SelectQuery::new(select, vec![TableRef::table("r"), TableRef::table("s")]);
        q.distinct = distinct && !agg;
        q.where_clause = Some(w);
        if agg {
            q.group_by = vec![ScalarExpr::col("k")];
        }
        q
    })
}

fn env_strategy() -> impl Strategy<Value = ParamEnv> {
    (0i64..5).prop_map(|v| {
        let mut env = ParamEnv::new();
        env.insert(
            "p".into(),
            NamedTuple {
                columns: vec!["v".into()],
                values: vec![Value::Int(v)],
            },
        );
        env
    })
}

/// Both paths on the same inputs; rows and stats must agree exactly
/// (including row order — the plan mirrors the interpreter's pipeline, so
/// even ordering is deterministic). Both-sides-error is agreement too.
fn assert_parity(db: &Database, q: &SelectQuery, env: &ParamEnv) {
    let mut interp_stats = EvalStats::default();
    let interp = eval_query_stats(db, q, env, EvalOptions::default(), &mut interp_stats);
    let prepared = prepare(q, &db.catalog()).and_then(|plan| {
        let mut plan_stats = EvalStats::default();
        let rel = plan.execute_stats(db, env, &mut plan_stats)?;
        Ok((rel, plan_stats))
    });
    match (interp, prepared) {
        (Ok(i), Ok((p, p_stats))) => {
            assert_eq!(p, i, "relation mismatch for {}", q.to_sql());
            assert_eq!(p_stats, interp_stats, "stats mismatch for {}", q.to_sql());
        }
        (Err(_), Err(_)) => {} // both reject: agreement
        (Ok(_), Err(e)) => panic!("only the plan failed for {}: {e}", q.to_sql()),
        (Err(e), Ok(_)) => panic!("only the interpreter failed for {}: {e}", q.to_sql()),
    }
}

// ---------------------------------------------------------------------------
// Generators for the shapes column binding could get wrong: typed values
// (NULL, FLOAT with both zeros, TEXT), names an inner table shadows, the
// empty-group scope, and derived tables that repeat a column name. Tables
// v(i INT, f FLOAT, s TEXT) and w(j INT, g FLOAT, s TEXT) share the name
// `s`; u(k INT) has none of theirs.
// ---------------------------------------------------------------------------

fn typed_db_strategy() -> impl Strategy<Value = Database> {
    let int = || {
        (0usize..4)
            .prop_map(|i| [Value::Null, Value::Int(0), Value::Int(1), Value::Int(2)][i].clone())
    };
    let float = || {
        (0usize..5).prop_map(|i| {
            [
                Value::Null,
                Value::Float(0.0),
                Value::Float(-0.0),
                Value::Float(1.5),
                Value::Float(2.0),
            ][i]
                .clone()
        })
    };
    let text = || {
        (0usize..4).prop_map(|i| {
            [
                Value::Null,
                Value::Str(String::new()),
                Value::Str("a".into()),
                Value::Str("b".into()),
            ][i]
                .clone()
        })
    };
    (
        prop::collection::vec((int(), float(), text()), 0..6),
        prop::collection::vec((int(), float(), text()), 0..6),
        prop::collection::vec(int(), 0..4),
    )
        .prop_map(|(vs, ws, us)| {
            let mut db = xvc_rel::database_from_ddl(
                "CREATE TABLE v (i INT, f FLOAT, s TEXT); \
                 CREATE TABLE w (j INT, g FLOAT, s TEXT); \
                 CREATE TABLE u (k INT)",
            )
            .unwrap();
            for (i, f, s) in vs {
                db.insert("v", vec![i, f, s]).unwrap();
            }
            for (j, g, s) in ws {
                db.insert("w", vec![j, g, s]).unwrap();
            }
            for k in us {
                db.insert("u", vec![k]).unwrap();
            }
            db
        })
}

/// A filter over `columns`: comparisons with literals of every type
/// (NULL included) and between columns, `IS [NOT] NULL`, `NOT`, `AND`, `OR`.
fn typed_pred(columns: &'static [&'static str]) -> impl Strategy<Value = String> {
    const LITERALS: [&str; 9] = ["NULL", "0", "1", "2", "1.5", "0.0", "-0.0", "'a'", "''"];
    const OPS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];
    let atom = move || {
        (
            0usize..8,
            0..columns.len(),
            0usize..6,
            0usize..9,
            0..columns.len(),
        )
            .prop_map(move |(kind, c, o, l, d)| match kind {
                0..=3 => format!("{} {} {}", columns[c], OPS[o], LITERALS[l]),
                4 => format!("{} {} {}", columns[c], OPS[o], columns[d]),
                5 => format!("{} IS NULL", columns[c]),
                6 => format!("{} IS NOT NULL", columns[c]),
                _ => format!("NOT ({} {} {})", columns[c], OPS[o], LITERALS[l]),
            })
    };
    (atom(), atom(), atom(), 0usize..5).prop_map(|(p, q, r, shape)| match shape {
        0 => p,
        1 => format!("{p} AND {q}"),
        2 => format!("{p} OR {q}"),
        3 => format!("({p} OR {q}) AND NOT ({r})"),
        _ => format!("{p} AND ({q} OR {r})"),
    })
}

fn assert_sql_parity(db: &Database, sql: &str) {
    let q = parse_query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    assert_parity(db, &q, &ParamEnv::new());
}

proptest! {
    #![proptest_config(cases(256))]

    /// `PreparedPlan::execute` ≡ `eval_query` on generated join queries,
    /// including parameter bindings and the EvalStats counters.
    #[test]
    fn prepared_equals_interpreted(
        db in db_strategy(),
        q in query_strategy(),
        env in env_strategy(),
    ) {
        assert_parity(&db, &q, &env);
    }

    /// EXISTS subqueries (correlated and not) through the plan compiler,
    /// including the uncorrelated-EXISTS cache counters.
    #[test]
    fn exists_parity(db in db_strategy(), threshold in 0i64..5, correlated in any::<bool>()) {
        let sql = if correlated {
            format!("SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE k2 = k AND c > {threshold})")
        } else {
            format!("SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE c > {threshold})")
        };
        let q = parse_query(&sql).unwrap();
        assert_parity(&db, &q, &ParamEnv::new());
    }

    /// One plan, many environments: compiling once and re-executing with
    /// different bindings equals interpreting from scratch each time —
    /// the cached-plan reuse the publisher relies on.
    #[test]
    fn one_plan_many_environments(db in db_strategy(), vs in prop::collection::vec(0i64..5, 1..5)) {
        let q = parse_query("SELECT a, b FROM r WHERE k = $p.v").unwrap();
        let plan = prepare(&q, &db.catalog()).unwrap();
        for v in vs {
            let mut env = ParamEnv::new();
            env.insert(
                "p".into(),
                NamedTuple { columns: vec!["v".into()], values: vec![Value::Int(v)] },
            );
            let mut interp_stats = EvalStats::default();
            let interp =
                eval_query_stats(&db, &q, &env, EvalOptions::default(), &mut interp_stats)
                    .unwrap();
            let mut plan_stats = EvalStats::default();
            let prepared = plan.execute_stats(&db, &env, &mut plan_stats).unwrap();
            prop_assert_eq!(&prepared, &interp);
            prop_assert_eq!(&plan_stats, &interp_stats);
        }
    }

    /// Derived tables (plain and parameterized) compile to nested blocks;
    /// parity must hold through the nesting.
    #[test]
    fn derived_table_parity(db in db_strategy(), env in env_strategy(), lo in 0i64..5) {
        let sql = format!(
            "SELECT k, c FROM s, (SELECT * FROM r WHERE a >= {lo} AND b = $p.v) AS t \
             WHERE k2 = t.k"
        );
        let q = parse_query(&sql).unwrap();
        assert_parity(&db, &q, &env);
    }

    /// Typed values through pushdowns, join keys and prefix filters: NULL
    /// comparisons are unknown, `NOT` keeps NULL, and `-0.0 = 0.0`.
    #[test]
    fn typed_filter_parity(
        db in typed_db_strategy(),
        pv in typed_pred(&["i", "f", "v.s"]),
        pw in typed_pred(&["j", "g", "w.s"]),
    ) {
        assert_sql_parity(&db, &format!("SELECT * FROM v WHERE {pv}"));
        assert_sql_parity(&db, &format!("SELECT i, w.s FROM v, w WHERE v.s = w.s AND {pw}"));
        assert_sql_parity(&db, &format!("SELECT i, j FROM v, w WHERE ({pv}) OR ({pw})"));
        assert_sql_parity(&db, &format!("SELECT DISTINCT v.s FROM v, w WHERE i = j AND {pv}"));
    }

    /// `EXISTS` subqueries whose inner table shadows an outer column name
    /// (`s`), that read the outer row through its qualified alias, or
    /// through an unqualified name only the outer row holds — one and two
    /// levels up.
    #[test]
    fn exists_scoping_parity(db in typed_db_strategy(), pw in typed_pred(&["j", "g", "s"])) {
        for sql in [
            format!("SELECT i, s FROM v WHERE EXISTS (SELECT * FROM w WHERE s = v.s AND {pw})"),
            format!("SELECT i FROM v WHERE NOT EXISTS (SELECT * FROM w WHERE j = i AND {pw})"),
            format!(
                "SELECT i, f FROM v WHERE EXISTS (SELECT * FROM w WHERE {pw} AND \
                 EXISTS (SELECT * FROM v AS x WHERE x.i = j AND s = v.s))"
            ),
            format!(
                "SELECT w.s FROM v, w WHERE v.i = w.j AND \
                 EXISTS (SELECT * FROM v AS x WHERE x.s = w.s AND i > 0 AND {pw})"
            ),
            format!("SELECT j FROM w WHERE {pw} AND EXISTS (SELECT * FROM u WHERE k = j OR s IS NULL)"),
            // A derived table inside an EXISTS sees the EXISTS's outer row,
            // not the FROM items beside it.
            format!(
                "SELECT i FROM v WHERE EXISTS (SELECT * FROM w, \
                 (SELECT k FROM u WHERE k = i OR f > 1.0) AS d WHERE d.k = j AND {pw})"
            ),
        ] {
            assert_sql_parity(&db, &sql);
        }
    }

    /// An aggregating block over a possibly empty input whose select list
    /// or HAVING mixes aggregates with a non-aggregate expression and an
    /// `EXISTS`: an empty group evaluates them over an all-NULL row of the
    /// block, so `s` below reads the block's NULL `v.s`.
    #[test]
    fn empty_group_scope_parity(db in typed_db_strategy(), lo in 0i64..3) {
        for sql in [
            format!(
                "SELECT COUNT(*), SUM(f), i + 1, EXISTS (SELECT * FROM u WHERE k = 1) \
                 FROM v WHERE i > {lo}"
            ),
            format!("SELECT COUNT(*), EXISTS (SELECT * FROM u WHERE s = 'a') FROM v WHERE i > {lo}"),
            format!(
                "SELECT j, s FROM w WHERE EXISTS (SELECT COUNT(*) FROM v WHERE i > {lo} \
                 HAVING EXISTS (SELECT * FROM u WHERE k >= 0 AND s = 'a'))"
            ),
            format!(
                "SELECT j FROM w WHERE EXISTS (SELECT MAX(f), g + 1 FROM v WHERE i > {lo} \
                 HAVING COUNT(*) = 0 OR EXISTS (SELECT * FROM u WHERE k = j))"
            ),
        ] {
            assert_sql_parity(&db, &sql);
        }
    }

    /// Derived tables whose select list repeats a column name: a qualified
    /// reference takes the first, an unqualified one is ambiguous where it
    /// is evaluated.
    #[test]
    fn repeated_column_parity(db in typed_db_strategy(), lo in 0i64..3) {
        for sql in [
            format!("SELECT * FROM (SELECT i, i, s FROM v) AS d WHERE d.i > {lo}"),
            format!("SELECT d.i FROM (SELECT i, f AS i FROM v) AS d WHERE d.i >= {lo}"),
            format!("SELECT * FROM (SELECT i, s AS i FROM v) AS d WHERE i > {lo}"),
            "SELECT d.s, w.j FROM (SELECT s, i AS s FROM v) AS d, w WHERE d.s = w.s".to_owned(),
            format!(
                "SELECT * FROM (SELECT i, i FROM v WHERE i >= {lo}) AS d \
                 WHERE EXISTS (SELECT * FROM w WHERE j = d.i)"
            ),
            "SELECT * FROM (SELECT i, i FROM v) AS d WHERE EXISTS (SELECT * FROM w WHERE j = i)"
                .to_owned(),
        ] {
            assert_sql_parity(&db, &sql);
        }
    }
}
