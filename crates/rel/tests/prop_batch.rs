//! Property tests for set-oriented execution: on every generated
//! database, query and binding list, `execute_batch` must agree
//! row-for-row (per binding, in order) with the scalar loop
//! `envs.iter().map(|e| plan.execute(db, e))` — including *which* error
//! surfaces when bindings fail, and the documented `EvalStats`
//! relationships between the two paths.

use proptest::prelude::*;
use xvc_rel::{
    parse_query, prepare, ColumnDef, ColumnType, Database, EvalStats, NamedTuple, ParamEnv,
    PreparedPlan, Relation, SharedScan, Value,
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

/// Queries spanning every batch strategy: separable slot equalities
/// (fast path, alone / fused with other pushdowns / across a join /
/// under aggregation and DISTINCT) and non-separable slot predicates
/// (per-distinct-binding fallback).
fn query_pool() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("SELECT a, b FROM r WHERE k = $p.v"),
        Just("SELECT a FROM r WHERE k = $p.v AND a > 1"),
        Just("SELECT r.a, s.c FROM r, s WHERE k = k2 AND b = $p.v"),
        Just("SELECT k, COUNT(*) FROM r WHERE b = $p.v GROUP BY k"),
        Just("SELECT DISTINCT a FROM r WHERE k = $p.v"),
        Just("SELECT a FROM r WHERE k > $p.v"),
        Just("SELECT a FROM r WHERE k = $p.v AND b > $p.v"),
    ]
}

fn env(v: i64) -> ParamEnv {
    let mut env = ParamEnv::new();
    env.insert(
        "p".into(),
        NamedTuple {
            columns: vec!["v".into()],
            values: vec![Value::Int(v)],
        },
    );
    env
}

/// Binding lists: `Some(v)` binds `$p.v = v`, `None` leaves `$p` unbound
/// (the scalar path errors there, and the batch must agree).
fn binding_strategy() -> impl Strategy<Value = Vec<Option<i64>>> {
    prop::collection::vec(
        prop_oneof![4 => (0i64..5).prop_map(Some), 1 => Just(None)],
        0..7,
    )
}

fn envs_of(bindings: &[Option<i64>]) -> Vec<ParamEnv> {
    bindings
        .iter()
        .map(|b| b.map(env).unwrap_or_default())
        .collect()
}

/// The reference semantics: scalar execution per binding, stopping at
/// the first error, accumulating stats over the successes.
fn scalar_loop(
    plan: &PreparedPlan,
    db: &Database,
    envs: &[ParamEnv],
) -> Result<(Vec<Relation>, EvalStats), xvc_rel::Error> {
    let mut stats = EvalStats::default();
    let mut out = Vec::new();
    for e in envs {
        out.push(plan.execute_stats(db, e, &mut stats)?);
    }
    Ok((out, stats))
}

proptest! {
    #![proptest_config(cases(256))]

    /// Row-for-row and error agreement: for every binding `i`,
    /// `batch.rows_for(i)` equals the scalar `execute(db, &envs[i])`
    /// rows in the same order; if any binding errors scalarly, the batch
    /// fails with the first such error and absorbs no stats.
    #[test]
    fn batch_equals_scalar_loop(
        db in db_strategy(),
        sql in query_pool(),
        bindings in binding_strategy(),
    ) {
        let q = parse_query(sql).unwrap();
        let plan = prepare(&q, &db.catalog()).unwrap();
        let envs = envs_of(&bindings);
        let mut batch_stats = EvalStats::default();
        let batch = plan.execute_batch_stats(&db, &envs, &mut batch_stats);
        match (scalar_loop(&plan, &db, &envs), batch) {
            (Ok((scalar, _)), Ok(batch)) => {
                prop_assert_eq!(batch.bindings(), envs.len());
                for (i, rel) in scalar.iter().enumerate() {
                    prop_assert_eq!(
                        batch.rows_for(i),
                        &rel.rows[..],
                        "binding {} of {}", i, sql
                    );
                    prop_assert_eq!(batch.columns(), &rel.columns[..]);
                }
            }
            (Err(se), Err(be)) => {
                prop_assert_eq!(
                    format!("{se:?}"),
                    format!("{be:?}"),
                    "different errors for {}", sql
                );
                prop_assert_eq!(batch_stats, EvalStats::default());
            }
            (Ok(_), Err(e)) => prop_assert!(false, "only the batch failed for {}: {}", sql, e),
            (Err(e), Ok(_)) => {
                prop_assert!(false, "only the scalar loop failed for {}: {}", sql, e)
            }
        }
    }

    /// Stats consistency, fallback strategy: a non-separable slot
    /// predicate makes `execute_batch` run once per *distinct* binding,
    /// so its counters must equal the scalar loop over the deduplicated
    /// binding list.
    #[test]
    fn fallback_stats_equal_distinct_scalar_loop(
        db in db_strategy(),
        vs in prop::collection::vec(0i64..5, 1..7),
    ) {
        let q = parse_query("SELECT a FROM r WHERE k > $p.v").unwrap();
        let plan = prepare(&q, &db.catalog()).unwrap();
        prop_assert!(!plan.batchable());
        let envs: Vec<ParamEnv> = vs.iter().copied().map(env).collect();
        let mut batch_stats = EvalStats::default();
        plan.execute_batch_stats(&db, &envs, &mut batch_stats).unwrap();
        let mut distinct: Vec<i64> = Vec::new();
        for v in &vs {
            if !distinct.contains(v) {
                distinct.push(*v);
            }
        }
        let distinct_envs: Vec<ParamEnv> = distinct.into_iter().map(env).collect();
        let (_, reference) = scalar_loop(&plan, &db, &distinct_envs).unwrap();
        prop_assert_eq!(batch_stats, reference);
    }

    /// Stats consistency, fast path: a separable single-table plan scans
    /// its table exactly once per batch regardless of binding count, and
    /// `param_queries` counts distinct bindings. With two or more distinct
    /// bindings the binding relation counts as one hash-join build probed
    /// once per distinct binding; a batch of one distinct binding runs
    /// scalar, with no build and no probes.
    #[test]
    fn fast_path_scans_once(
        db in db_strategy(),
        vs in prop::collection::vec(0i64..5, 1..7),
    ) {
        let q = parse_query("SELECT a, b FROM r WHERE k = $p.v").unwrap();
        let plan = prepare(&q, &db.catalog()).unwrap();
        prop_assert!(plan.batchable());
        let envs: Vec<ParamEnv> = vs.iter().copied().map(env).collect();
        let mut stats = EvalStats::default();
        plan.execute_batch_stats(&db, &envs, &mut stats).unwrap();
        let r_rows = prepare(&parse_query("SELECT * FROM r").unwrap(), &db.catalog())
            .unwrap()
            .execute(&db, &ParamEnv::new())
            .unwrap()
            .len() as u64;
        let mut distinct: Vec<i64> = Vec::new();
        for v in &vs {
            if !distinct.contains(v) {
                distinct.push(*v);
            }
        }
        let (builds, build_rows, probes) = if distinct.len() > 1 {
            (1, r_rows, distinct.len() as u64)
        } else {
            (0, 0, 0)
        };
        prop_assert_eq!(stats.queries, 1);
        prop_assert_eq!(stats.rows_scanned, r_rows);
        prop_assert_eq!(stats.param_queries, distinct.len() as u64);
        prop_assert_eq!(stats.hash_join_builds, builds);
        prop_assert_eq!(stats.hash_join_build_rows, build_rows);
        prop_assert_eq!(stats.hash_join_probe_rows, probes);
    }

    /// Shared scans: cutting the binding list into consecutive batches
    /// that share one [`SharedScan`] changes no rows and no error — every
    /// batch agrees with the scalar loop over its own bindings, and the
    /// first failing batch reports the scalar loop's first error. Even
    /// when its batches hold one binding each, a separable plan over `r`
    /// alone scans `r` at most once in total.
    #[test]
    fn shared_scan_batches_equal_scalar_loop(
        db in db_strategy(),
        sql in query_pool(),
        bindings in binding_strategy(),
        chunk in 1usize..4,
    ) {
        let q = parse_query(sql).unwrap();
        let plan = prepare(&q, &db.catalog()).unwrap();
        let envs = envs_of(&bindings);
        let scan = SharedScan::default();
        let mut shared_stats = EvalStats::default();
        let mut shared_err = None;
        for batch_envs in envs.chunks(chunk) {
            let mut stats = EvalStats::default();
            match plan.execute_batch_shared(&db, batch_envs, Some(&scan), &mut stats) {
                Ok(batch) => {
                    let (scalar, _) = scalar_loop(&plan, &db, batch_envs)
                        .expect("the batch succeeded, so must its scalar loop");
                    for (i, rel) in scalar.iter().enumerate() {
                        prop_assert_eq!(batch.rows_for(i), &rel.rows[..], "binding {} of {}", i, sql);
                    }
                    shared_stats.absorb(&stats);
                }
                Err(e) => {
                    prop_assert_eq!(stats, EvalStats::default());
                    shared_err = Some(e);
                    break;
                }
            }
        }
        match (scalar_loop(&plan, &db, &envs), shared_err) {
            (Ok(_), None) => {}
            (Err(se), Some(be)) => prop_assert_eq!(format!("{se:?}"), format!("{be:?}")),
            (Ok(_), Some(e)) => prop_assert!(false, "only the shared batches failed for {}: {}", sql, e),
            (Err(e), None) => prop_assert!(false, "only the scalar loop failed for {}: {}", sql, e),
        }
        if plan.batchable() && !sql.contains("FROM r, s") {
            let r_rows = db.table("r").unwrap().len() as u64;
            prop_assert!(shared_stats.rows_scanned <= r_rows, "{}: {:?}", sql, shared_stats);
            prop_assert!(shared_stats.hash_join_builds <= 1, "{}: {:?}", sql, shared_stats);
        }
    }
}
