//! The publisher's work counters, pinned. A warm streamed publish of the
//! breadth and needle views over `needle_database(30, 20, 5)`, with and
//! without the needle indexes, and of the paper's workload (Figure 1
//! composed with Figure 4 over `xvc_bench::workload` at scales 1, 4 and
//! 16), and one `orders` and one `confroom` insert absorbed through
//! `republish_segments`, must report exactly these `PublishStats`,
//! `EvalStats`, `bytes_written` and `peak_emit_bytes`. A change to how the
//! publisher executes may change its speed, never these numbers; a change
//! that moves one of them on purpose updates it here.

use std::io;

use xvc::core::paper_fixtures::figure1_view;
use xvc::prelude::*;
use xvc::xslt::parse::FIGURE4_XSLT;
use xvc_bench::synthetic::{all_regions_view, needle_database, needle_indexed, needle_view};
use xvc_bench::workload::{generate, WorkloadConfig};

/// The database the counters are pinned on, plain or with the needle
/// indexes.
fn database(indexed: bool) -> Database {
    let db = needle_database(30, 20, 5);
    if indexed {
        needle_indexed(&db)
    } else {
        db
    }
}

/// What one warm `publish_to` into a sink reports, on an engine set up as
/// `xvc serve` sets up its own.
#[derive(Debug, PartialEq)]
struct Warm {
    stats: PublishStats,
    eval: EvalStats,
    bytes_written: u64,
    peak_emit_bytes: usize,
}

fn warm_publish(view: &SchemaTree, db: &Database) -> Warm {
    let engine = Engine::new(view).parallel(1).incremental(true);
    engine.session().publish_to(db, io::sink()).expect("cold");
    let s = engine.session().publish_to(db, io::sink()).expect("warm");
    Warm {
        stats: s.stats,
        eval: s.eval,
        bytes_written: s.bytes_written,
        peak_emit_bytes: s.peak_emit_bytes,
    }
}

/// `PublishStats` of a full warm publish: every plan a cache hit, no delta.
fn publish_stats(
    [elements, queries_run, batches_executed, bindings_per_batch_max, rows_regrouped]: [usize; 5],
) -> PublishStats {
    PublishStats {
        elements,
        attributes: 2 * elements,
        queries_run,
        tuples_fetched: elements,
        plans_prepared: 0,
        plan_cache_hits: 3,
        plan_prepare_failures: 0,
        batches_executed,
        bindings_per_batch_max,
        rows_regrouped,
        nodes_respliced: 0,
        batches_reexecuted: 0,
        delta_rows_in: 0,
    }
}

/// `EvalStats` of a run that joins nothing but its bindings and
/// evaluates no `EXISTS` or grouping.
fn eval_stats(
    [queries, param_queries, rows_scanned, hash_join_builds, hash_join_build_rows, hash_join_probe_rows, index_lookups]: [u64; 7],
) -> EvalStats {
    EvalStats {
        queries,
        param_queries,
        rows_scanned,
        hash_join_builds,
        hash_join_build_rows,
        hash_join_probe_rows,
        nested_loop_joins: 0,
        nested_loop_rows: 0,
        exists_evals: 0,
        exists_cache_hits: 0,
        group_buckets: 0,
        index_lookups,
    }
}

#[test]
fn breadth_publish_counters() {
    // 30 root tasks; each task's customer and order batches probe one
    // shared scan per plan, or run one index lookup per distinct binding.
    let stats = publish_stats([3_630, 631, 60, 20, 3_600]);
    for (indexed, eval) in [
        (false, eval_stats([3, 630, 3_630, 2, 3_600, 630, 0])),
        (true, eval_stats([631, 630, 3_630, 0, 0, 0, 630])),
    ] {
        let warm = warm_publish(&all_regions_view(), &database(indexed));
        let want = Warm {
            stats,
            eval,
            bytes_written: 119_580,
            peak_emit_bytes: 8_448,
        };
        assert_eq!(warm, want, "indexed: {indexed}");
    }
}

#[test]
fn needle_publish_counters() {
    // One root task: its single-binding customer batch runs scalar, and
    // its 20-binding order batch builds its own pipeline or loops over
    // the index.
    let stats = publish_stats([121, 22, 2, 20, 120]);
    for (indexed, eval) in [
        (false, eval_stats([3, 21, 3_630, 1, 3_000, 20, 0])),
        (true, eval_stats([22, 21, 121, 0, 0, 0, 22])),
    ] {
        let warm = warm_publish(&needle_view("region-7"), &database(indexed));
        let want = Warm {
            stats,
            eval,
            bytes_written: 3_925,
            peak_emit_bytes: 8_448,
        };
        assert_eq!(warm, want, "indexed: {indexed}");
    }
}

#[test]
fn one_order_insert_counters() {
    // The new order keys into customer 137 only: one order batch under
    // that customer re-runs, and its five old orders plus the new one are
    // spliced in.
    for (indexed, eval) in [
        (false, eval_stats([1, 1, 3_001, 0, 0, 0, 0])),
        (true, eval_stats([1, 1, 6, 0, 0, 0, 1])),
    ] {
        let mut db = database(indexed);
        let engine = Engine::new(&all_regions_view())
            .parallel(1)
            .incremental(true);
        let prev = engine.session().publish_segments(&db).expect("publish");
        let delta = db
            .execute_dml("INSERT INTO orders VALUES (100000, 137, 42)")
            .expect("insert");
        let after = engine
            .session()
            .republish_segments(&db, &prev.splice, &delta)
            .expect("republish");
        let got = (
            after.stats.nodes_respliced,
            after.stats.batches_reexecuted,
            after.eval,
        );
        assert_eq!(got, (6, 1, eval), "indexed: {indexed}");
        let full = engine.session().publish(&db).expect("full publish");
        assert_eq!(after.splice.xml(), full.document.to_xml());
    }
}

/// Figure 1's view composed with Figure 4's stylesheet, default options.
fn paper_view(db: &Database) -> SchemaTree {
    let stylesheet = parse_stylesheet(FIGURE4_XSLT).expect("fixture");
    Composer::new(&figure1_view(), &stylesheet, &db.catalog())
        .run()
        .expect("Figure 4 composes")
        .view
}

/// A warm publish of the paper's workload: one root task, `metroarea`
/// scanned once, and per distinct binding one `result_confstat` and one
/// `confroom` execution, each joining its derived tables by hash.
fn paper_warm(
    [elements, attributes, queries_run, tuples_fetched, bindings_per_batch_max]: [usize; 5],
    [queries, param_queries, rows_scanned, hash_join_builds, hash_join_build_rows, hash_join_probe_rows, exists_evals, group_buckets]: [u64; 8],
    bytes_written: u64,
    peak_emit_bytes: usize,
) -> Warm {
    Warm {
        stats: PublishStats {
            elements,
            attributes,
            queries_run,
            tuples_fetched,
            plan_cache_hits: 3,
            batches_executed: 3,
            bindings_per_batch_max,
            rows_regrouped: tuples_fetched,
            ..PublishStats::default()
        },
        eval: EvalStats {
            queries,
            param_queries,
            rows_scanned,
            hash_join_builds,
            hash_join_build_rows,
            hash_join_probe_rows,
            exists_evals,
            exists_cache_hits: exists_evals,
            group_buckets,
            ..EvalStats::default()
        },
        bytes_written,
        peak_emit_bytes,
    }
}

#[test]
fn paper_publish_counters() {
    for (scale, want) in [
        (
            1,
            paper_warm(
                [39, 80, 11, 26, 8],
                [21, 10, 2_914, 10, 48, 1_984, 8, 47],
                1_708,
                3_968,
            ),
        ),
        (
            4,
            paper_warm(
                [147, 320, 41, 104, 32],
                [81, 40, 46_600, 40, 192, 31_744, 32, 190],
                6_807,
                15_872,
            ),
        ),
        (
            16,
            paper_warm(
                [579, 1_280, 161, 416, 128],
                [321, 160, 745_504, 160, 768, 507_904, 128, 746],
                27_500,
                63_488,
            ),
        ),
    ] {
        let db = generate(&WorkloadConfig::scale(scale));
        let warm = warm_publish(&paper_view(&db), &db);
        assert_eq!(warm, want, "scale {scale}");
    }
}

#[test]
fn one_confroom_insert_counters() {
    // The document is one root task (Figure 4 wraps it in literal
    // elements), so the insert into hotel 1's conference rooms rebuilds
    // the whole task: both batches re-run.
    let mut db = generate(&WorkloadConfig::scale(4));
    let engine = Engine::new(&paper_view(&db)).parallel(1).incremental(true);
    let prev = engine.session().publish_segments(&db).expect("publish");
    let delta = db
        .execute_dml("INSERT INTO confroom VALUES (100000, 1, 3, 100, 500)")
        .expect("insert");
    let after = engine
        .session()
        .republish_segments(&db, &prev.splice, &delta)
        .expect("republish");
    let got = (
        after.stats.nodes_respliced,
        after.stats.batches_reexecuted,
        after.eval,
    );
    let eval = EvalStats {
        queries: 80,
        param_queries: 40,
        rows_scanned: 46_632,
        hash_join_builds: 40,
        hash_join_build_rows: 192,
        hash_join_probe_rows: 31_752,
        exists_evals: 32,
        exists_cache_hits: 33,
        group_buckets: 190,
        ..EvalStats::default()
    };
    assert_eq!(got, (32, 2, eval));
    let full = engine.session().publish(&db).expect("full publish");
    assert_eq!(after.splice.xml(), full.document.to_xml());
}
