//! Property tests for the relational engine:
//!
//! * the SQL printer and parser are mutually inverse on generated ASTs;
//! * hash-join and nested-loop execution agree on every generated query,
//!   also on equi-joins over values whose hash keys collide or differ
//!   while SQL `=` says otherwise (`0.0`/`-0.0`, NaN, integers past 2^53);
//! * EXISTS caching never changes results;
//! * WHERE-conjunct order never changes results.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use xvc_rel::{
    database_from_ddl, eval_query, eval_query_with, load_csv, parse_query, prepare, AggFunc, BinOp,
    ColumnDef, ColumnType, Database, EvalOptions, ParamEnv, ScalarExpr, SelectItem, SelectQuery,
    TableRef, TableSchema, Value,
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
// Generators
// ---------------------------------------------------------------------------

/// Two small tables `r(a, b, k)` and `s(c, k)` with random integer rows.
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
                TableSchema::new(
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
                TableSchema::new(
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

/// A conjunctive filter over `r` and `s` columns, always including the
/// equi-join key so hash joins have something to chew on. Bounds mix
/// integer and float literals (floats exercise the printer's `3.0`
/// round-trip and the evaluator's mixed-type comparisons).
fn where_strategy() -> impl Strategy<Value = ScalarExpr> {
    let atom = (
        prop_oneof![Just("a"), Just("b"), Just("c")],
        cmp_op(),
        0i64..5,
        any::<bool>(),
    )
        .prop_map(|(col, op, v, as_float)| {
            let bound = if as_float {
                ScalarExpr::Literal(Value::Float(v as f64))
            } else {
                ScalarExpr::int(v)
            };
            ScalarExpr::binary(op, ScalarExpr::col(col), bound)
        });
    prop::collection::vec(atom, 0..3).prop_map(|extra| {
        let mut pred = ScalarExpr::eq(ScalarExpr::col("k"), ScalarExpr::col("k2"));
        for e in extra {
            pred = ScalarExpr::binary(BinOp::And, pred, e);
        }
        pred
    })
}

fn join_query_strategy() -> impl Strategy<Value = SelectQuery> {
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

/// The FLOAT join values: `0.0` and `-0.0` are SQL-equal with different
/// bits, and NaN equals nothing, itself included.
const EDGE_FLOATS: [Option<f64>; 5] = [None, Some(0.0), Some(-0.0), Some(f64::NAN), Some(2.0)];

/// The INT join values: 2^53 and 2^53 + 1 are unequal integers with one
/// `f64` image.
const EDGE_INTS: [i64; 3] = [5, 9_007_199_254_740_992, 9_007_199_254_740_993];

/// Two tables `f(id, x FLOAT, i INT)` and `g(id, y FLOAT, j INT)` whose
/// join columns are drawn from [`EDGE_FLOATS`] and [`EDGE_INTS`].
fn edge_db_strategy() -> impl Strategy<Value = Database> {
    let row = (0usize..EDGE_FLOATS.len(), 0usize..EDGE_INTS.len());
    (
        prop::collection::vec(row.clone(), 0..6),
        prop::collection::vec(row, 0..6),
    )
        .prop_map(|(fs, gs)| {
            let mut db = database_from_ddl(
                "CREATE TABLE f (id INT, x FLOAT, i INT);
                 CREATE TABLE g (id INT, y FLOAT, j INT);",
            )
            .unwrap();
            for (table, rows) in [("f", fs), ("g", gs)] {
                for (id, (x, i)) in rows.into_iter().enumerate() {
                    let x = EDGE_FLOATS[x].map_or(Value::Null, Value::Float);
                    db.insert(
                        table,
                        vec![Value::Int(id as i64), x, Value::Int(EDGE_INTS[i])],
                    )
                    .unwrap();
                }
            }
            db
        })
}

/// An equi-join of `f` and `g` on the FLOAT columns, the INT columns or
/// both, either side written first, projecting every column (optionally
/// DISTINCT) or counting per `f.x`.
fn edge_join_query_strategy() -> impl Strategy<Value = SelectQuery> {
    let keys = prop_oneof![
        Just("x = y"),
        Just("y = x"),
        Just("i = j"),
        Just("x = y AND j = i"),
    ];
    (keys, 0usize..3).prop_map(|(keys, shape)| {
        let sql = match shape {
            0 => format!("SELECT * FROM f, g WHERE {keys}"),
            1 => format!("SELECT DISTINCT x, y FROM f, g WHERE {keys}"),
            _ => format!("SELECT x, COUNT(*) FROM f, g WHERE {keys} GROUP BY x"),
        };
        parse_query(&sql).unwrap()
    })
}

/// Hash joins and nested loops return the same multiset of rows.
fn assert_hash_join_equals_nested_loop(
    db: &Database,
    q: &SelectQuery,
) -> Result<(), TestCaseError> {
    let hash = eval_query_with(db, q, &ParamEnv::new(), EvalOptions::default()).unwrap();
    let nested = eval_query_with(
        db,
        q,
        &ParamEnv::new(),
        EvalOptions {
            hash_joins: false,
            ..EvalOptions::default()
        },
    )
    .unwrap();
    prop_assert_eq!(hash.columns.clone(), nested.columns.clone());
    prop_assert_eq!(canonical(&hash), canonical(&nested), "{}", q.to_sql());
    Ok(())
}

/// Sorts rows for order-insensitive comparison.
fn canonical(rel: &xvc_rel::Relation) -> Vec<String> {
    let mut rows: Vec<String> = rel
        .rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(cases(128))]

    /// print → parse is the identity on generated join queries.
    #[test]
    fn sql_printer_parser_roundtrip(q in join_query_strategy()) {
        let sql = q.to_sql();
        let reparsed = parse_query(&sql).unwrap();
        prop_assert_eq!(&q, &reparsed, "{}", sql);
        // And the printer is a fixed point.
        prop_assert_eq!(sql.clone(), reparsed.to_sql());
    }

    /// Hash joins and nested loops agree (same multiset of rows).
    #[test]
    fn hash_join_equals_nested_loop(db in db_strategy(), q in join_query_strategy()) {
        assert_hash_join_equals_nested_loop(&db, &q)?;
    }

    /// They agree on equi-joins over the values where a hash key alone
    /// would decide `=` wrongly.
    #[test]
    fn hash_join_equals_nested_loop_on_edge_values(
        db in edge_db_strategy(),
        q in edge_join_query_strategy(),
    ) {
        assert_hash_join_equals_nested_loop(&db, &q)?;
    }

    /// EXISTS caching never changes results.
    #[test]
    fn exists_cache_is_transparent(db in db_strategy(), threshold in 0i64..5) {
        let q = parse_query(&format!(
            "SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE c > {threshold})"
        ))
        .unwrap();
        let qc = parse_query(&format!(
            "SELECT a FROM r WHERE EXISTS (SELECT * FROM s WHERE k2 = k AND c > {threshold})"
        ))
        .unwrap();
        for query in [&q, &qc] {
            let cached =
                eval_query_with(&db, query, &ParamEnv::new(), EvalOptions::default()).unwrap();
            let uncached = eval_query_with(
                &db,
                query,
                &ParamEnv::new(),
                EvalOptions { cache_uncorrelated_exists: false, ..EvalOptions::default() },
            )
            .unwrap();
            prop_assert_eq!(canonical(&cached), canonical(&uncached));
        }
    }

    /// Reordering WHERE conjuncts never changes results (the pushdown and
    /// join-key extraction must be order-insensitive in effect).
    #[test]
    fn conjunct_order_is_irrelevant(db in db_strategy(), q in join_query_strategy()) {
        let mut reversed = q.where_clause.clone().unwrap().into_conjuncts();
        reversed.reverse();
        let mut q2 = q.clone();
        q2.where_clause = ScalarExpr::conjoin(reversed);
        let a = eval_query_with(&db, &q, &ParamEnv::new(), EvalOptions::default()).unwrap();
        let b = eval_query_with(&db, &q2, &ParamEnv::new(), EvalOptions::default()).unwrap();
        prop_assert_eq!(canonical(&a), canonical(&b), "{}", q.to_sql());
    }

    /// DISTINCT is idempotent and never increases cardinality.
    #[test]
    fn distinct_laws(db in db_strategy(), q in join_query_strategy()) {
        let mut qd = q.clone();
        qd.distinct = true;
        let plain = eval_query_with(&db, &q, &ParamEnv::new(), EvalOptions::default()).unwrap();
        let distinct = eval_query_with(&db, &qd, &ParamEnv::new(), EvalOptions::default()).unwrap();
        prop_assert!(distinct.len() <= plain.len());
        let mut unique = canonical(&distinct);
        unique.dedup();
        prop_assert_eq!(unique.len(), distinct.len());
    }
}

/// The plan, the interpreter's hash join and its nested loop all decide
/// the join, the grouping, by SQL `=`: `0.0` joins `-0.0`, NaN joins
/// nothing, 2^53 does not join 2^53 + 1, and `0.0` and `-0.0` are one
/// group.
#[test]
fn equality_is_sql_equality_in_every_executor() {
    let mut db = database_from_ddl(
        "CREATE TABLE a (id INT, x FLOAT, n INT);
         CREATE TABLE b (id INT, y FLOAT, m INT);
         CREATE TABLE z (y FLOAT);",
    )
    .unwrap();
    load_csv(
        &mut db,
        "a",
        "id,x,n\n1,0.0,9007199254740992\n2,NaN,5\n3,2.0,7\n",
    )
    .unwrap();
    load_csv(
        &mut db,
        "b",
        "id,y,m\n10,-0.0,9007199254740993\n20,NaN,5\n30,2,8\n",
    )
    .unwrap();
    load_csv(&mut db, "z", "y\n-0.0\n0.0\n").unwrap();
    let env = ParamEnv::new();
    let nested = EvalOptions {
        hash_joins: false,
        ..EvalOptions::default()
    };
    let run = |sql: &str| {
        let q = parse_query(sql).unwrap();
        let plan = prepare(&q, &db.catalog())
            .unwrap()
            .execute(&db, &env)
            .unwrap();
        let hash = eval_query(&db, &q, &env).unwrap();
        let loops = eval_query_with(&db, &q, &env, nested).unwrap();
        [plan.rows, hash.rows, loops.rows]
    };
    let pairs = |ids: &[(i64, i64)]| -> Vec<Vec<Value>> {
        ids.iter()
            .map(|&(l, r)| vec![Value::Int(l), Value::Int(r)])
            .collect()
    };
    for rows in run("SELECT a.id, b.id FROM a, b WHERE a.x = b.y") {
        assert_eq!(rows, pairs(&[(1, 10), (3, 30)]));
    }
    for rows in run("SELECT a.id, b.id FROM a, b WHERE a.n = b.m") {
        assert_eq!(rows, pairs(&[(2, 20)]));
    }
    for rows in run("SELECT y, COUNT(*) FROM z GROUP BY y") {
        assert_eq!(rows.len(), 1, "{rows:?}");
        assert_eq!(rows[0][1], Value::Int(2));
    }
}
