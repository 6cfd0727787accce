//! The publisher's work counters, pinned. A warm streamed publish of the
//! breadth and needle views over `needle_database(30, 20, 5)`, with and
//! without the needle indexes, and one `orders` insert absorbed through
//! `republish_segments`, must report exactly these `PublishStats`,
//! `EvalStats`, `bytes_written` and `peak_emit_bytes`. A change to how the
//! publisher executes may change its speed, never these numbers; a change
//! that moves one of them on purpose updates it here.

use std::io;

use xvc::prelude::*;
use xvc_bench::synthetic::{all_regions_view, needle_database, needle_indexed, needle_view};

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
            peak_emit_bytes: 8_478,
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
            peak_emit_bytes: 8_478,
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
