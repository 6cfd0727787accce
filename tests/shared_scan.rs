//! Breadth publishes scan each batched table once. The all-regions view
//! cuts one root task per region. Every task's customer and order batches
//! probe one binding-free scan per plan, shared across the publish, so a
//! publish scans exactly the rows in the database at any region count and
//! builds one hash table per batched plan. A single-region publish has one
//! root task and keeps the per-task path, where its single-binding
//! customer batch runs scalar.

use xvc::prelude::*;
use xvc_bench::synthetic::{all_regions_view, needle_database, needle_view};

/// The stream study's smoke instance shape without indexes: 5 customers
/// per region, 4 orders per customer.
fn database(regions: usize) -> Database {
    needle_database(regions, 5, 4)
}

/// Engine work of one materialized and one streamed publish, after
/// checking that both deliver the same bytes.
fn publish_both(view: &SchemaTree, db: &Database, threads: usize) -> (EvalStats, EvalStats) {
    let engine = Engine::new(view).parallel(threads);
    let published = engine.session().publish(db).expect("publish");
    let mut bytes = Vec::new();
    let streamed = engine
        .session()
        .publish_to(db, &mut bytes)
        .expect("publish_to");
    assert_eq!(
        String::from_utf8(bytes).expect("utf-8"),
        published.document.to_xml(),
        "streamed bytes diverged from the materialized document"
    );
    (published.eval, streamed.eval)
}

#[test]
fn breadth_publish_scans_each_table_once() {
    for regions in [20, 200] {
        let db = database(regions);
        let view = all_regions_view();
        let (published, streamed) = publish_both(&view, &db, 1);
        for (path, eval) in [("publish", published), ("publish_to", streamed)] {
            assert_eq!(
                eval.rows_scanned,
                db.total_rows() as u64,
                "{regions} regions, {path}: rows scanned must equal database rows: {eval:?}"
            );
            assert_eq!(
                eval.hash_join_builds, 2,
                "{regions} regions, {path}: one hash build per batched plan: {eval:?}"
            );
        }
        let (published4, streamed4) = publish_both(&view, &db, 4);
        assert_eq!(
            published4, published,
            "{regions} regions: parallel(4) publish"
        );
        assert_eq!(
            streamed4, streamed,
            "{regions} regions: parallel(4) publish_to"
        );
    }
}

#[test]
fn single_root_task_publish_keeps_per_task_execution() {
    // One region: the customer batch carries one binding and runs scalar
    // (a filtered scan of `customer`); the order batch scans `orders` once
    // and hash-joins its five customer bindings. These are the counters
    // the per-task path has always reported.
    for (regions, customers, orders) in [(20u64, 100u64, 400u64), (200, 1_000, 4_000)] {
        let db = database(regions as usize);
        let expected = EvalStats {
            queries: 3,
            param_queries: 6,
            rows_scanned: regions + customers + orders,
            hash_join_builds: 1,
            hash_join_build_rows: orders,
            hash_join_probe_rows: 5,
            ..EvalStats::default()
        };
        let view = needle_view("region-7");
        for threads in [1, 4] {
            let (published, streamed) = publish_both(&view, &db, threads);
            assert_eq!(published, expected, "{regions} regions, publish");
            assert_eq!(streamed, expected, "{regions} regions, publish_to");
        }
    }
}
