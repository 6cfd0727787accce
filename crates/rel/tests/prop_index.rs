//! Property tests for secondary-index access paths: on every generated
//! database and equality query, the index-lookup path must produce exactly
//! the same rows — in the same order — as the full scan it replaces. The
//! only sanctioned differences are the access-path counters themselves
//! (`index_lookups` up, `rows_scanned` down).

use proptest::prelude::*;
use xvc_rel::{
    eval_query_stats, parse_query, prepare, BinOp, ColumnDef, ColumnType, Database, EvalOptions,
    EvalStats, NamedTuple, ParamEnv, ScalarExpr, SelectItem, SelectQuery, TableRef, Value,
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
// Generators: r(a, b, k) with indexes on k and b, joined against s(c, k2)
// with an index on k2.
// ---------------------------------------------------------------------------

fn db_strategy() -> impl Strategy<Value = Database> {
    let row_r = (0i64..5, 0i64..5, 0i64..4);
    let row_s = (0i64..5, 0i64..4);
    (
        prop::collection::vec(row_r, 0..10),
        prop::collection::vec(row_s, 0..10),
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
            db.create_index("r", "k").unwrap();
            db.create_index("r", "b").unwrap();
            db.create_index("s", "k2").unwrap();
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

/// Single-table query over `r` whose WHERE always contains at least one
/// indexable equality (`k = …` or `b = …`, literal or `$p.v`) plus extra
/// conjuncts that must be rechecked on every index candidate.
fn query_strategy() -> impl Strategy<Value = SelectQuery> {
    let eq_col = prop_oneof![Just("k"), Just("b")];
    let extra = (
        prop_oneof![Just("a"), Just("b"), Just("k")],
        cmp_op(),
        0i64..5,
    )
        .prop_map(|(col, op, v)| ScalarExpr::binary(op, ScalarExpr::col(col), ScalarExpr::int(v)));
    (
        eq_col,
        0i64..5,
        any::<bool>(),
        any::<bool>(),
        prop::collection::vec(extra, 0..3),
    )
        .prop_map(|(col, v, param, flipped, extras)| {
            let bound = if param {
                ScalarExpr::Param {
                    var: "p".into(),
                    column: "v".into(),
                }
            } else {
                ScalarExpr::int(v)
            };
            // Both operand orders must select the index.
            let mut pred = if flipped {
                ScalarExpr::eq(bound, ScalarExpr::col(col))
            } else {
                ScalarExpr::eq(ScalarExpr::col(col), bound)
            };
            for e in extras {
                pred = ScalarExpr::binary(BinOp::And, pred, e);
            }
            let mut q = SelectQuery::new(vec![SelectItem::Star], vec![TableRef::table("r")]);
            q.where_clause = Some(pred);
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

/// `db`'s tables and rows, without its secondary indexes.
fn without_indexes(db: &Database) -> Database {
    let mut plain = Database::new();
    for schema in db.catalog().iter() {
        let mut schema = schema.clone();
        schema.indexes.clear();
        let name = schema.name.clone();
        plain.create_table(schema).unwrap();
        for row in db.table(&name).unwrap().rows() {
            plain.insert(&name, row.clone()).unwrap();
        }
    }
    plain
}

/// Runs `q` through the prepared plan over `db` and over its copy without
/// indexes, and through the interpreter; rows (and order) must agree three
/// ways, and the scan-path counters must equal the interpreter's exactly.
fn assert_access_path_parity(db: &Database, q: &SelectQuery, env: &ParamEnv) {
    let run = |db: &Database| {
        prepare(q, &db.catalog()).and_then(|plan| {
            let mut stats = EvalStats::default();
            let rel = plan.execute_stats(db, env, &mut stats)?;
            Ok((rel, stats))
        })
    };
    let indexed = run(db);
    let scanned = run(&without_indexes(db));
    let mut interp_stats = EvalStats::default();
    let interp = eval_query_stats(db, q, env, EvalOptions::default(), &mut interp_stats);
    match (indexed, scanned, interp) {
        (Ok((irel, istats)), Ok((srel, sstats)), Ok(rel)) => {
            assert_eq!(irel, srel, "index vs scan rows for {}", q.to_sql());
            assert_eq!(srel, rel, "scan vs interpreter rows for {}", q.to_sql());
            assert_eq!(sstats, interp_stats, "scan stats for {}", q.to_sql());
            assert_eq!(sstats.index_lookups, 0);
            // The index path reads no more rows than the scan, and every
            // other counter is untouched by the access-path choice.
            assert!(
                istats.rows_scanned <= sstats.rows_scanned,
                "index path scanned more ({} > {}) for {}",
                istats.rows_scanned,
                sstats.rows_scanned,
                q.to_sql()
            );
            assert_eq!(
                EvalStats {
                    rows_scanned: 0,
                    index_lookups: 0,
                    ..istats
                },
                EvalStats {
                    rows_scanned: 0,
                    index_lookups: 0,
                    ..sstats
                },
                "non-access counters diverged for {}",
                q.to_sql()
            );
        }
        (Err(_), Err(_), Err(_)) => {} // unanimous rejection: agreement
        (i, s, e) => panic!(
            "access paths disagree on failure for {}: indexed={:?} scan={:?} interp={:?}",
            q.to_sql(),
            i.map(|(r, _)| r.len()),
            s.map(|(r, _)| r.len()),
            e.map(|r| r.len()),
        ),
    }
}

proptest! {
    #![proptest_config(cases(192))]

    /// Index-lookup execution ≡ full-scan execution ≡ interpreter on
    /// generated equality queries, row for row and in order.
    #[test]
    fn index_path_equals_scan_path(
        db in db_strategy(),
        q in query_strategy(),
        env in env_strategy(),
    ) {
        assert_access_path_parity(&db, &q, &env);
    }

    /// One plan executed over a batch of environments through the
    /// index-nested-loop path returns exactly the per-environment scalar
    /// results, in order — the publisher's set-oriented contract.
    #[test]
    fn index_nested_loop_batch_equals_scalar_loop(
        db in db_strategy(),
        vs in prop::collection::vec(0i64..5, 1..6),
    ) {
        let q = parse_query("SELECT a, b FROM r WHERE k = $p.v").unwrap();
        let plan = prepare(&q, &db.catalog()).unwrap();
        let envs: Vec<ParamEnv> = vs
            .iter()
            .map(|&v| {
                let mut env = ParamEnv::new();
                env.insert(
                    "p".into(),
                    NamedTuple { columns: vec!["v".into()], values: vec![Value::Int(v)] },
                );
                env
            })
            .collect();
        let mut batch_stats = EvalStats::default();
        let batch = plan.execute_batch_stats(&db, &envs, &mut batch_stats).unwrap();
        let rels = batch.into_relations();
        prop_assert_eq!(rels.len(), envs.len());
        for (env, got) in envs.iter().zip(&rels) {
            let mut stats = EvalStats::default();
            let want = plan.execute_stats(&db, env, &mut stats).unwrap();
            prop_assert_eq!(got, &want);
        }
        // Each distinct binding costs exactly one index probe.
        let distinct: std::collections::HashSet<i64> = vs.iter().copied().collect();
        prop_assert_eq!(batch_stats.index_lookups, distinct.len() as u64);
    }
}
