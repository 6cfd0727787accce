//! A one-row write costs the same at any document size. The all-regions
//! view cuts one root task per region; inserting one order re-runs the
//! order query under the one customer the row keys into, rebuilds that
//! customer's region task, and shares every other task entry with the
//! previous state. So the re-emitted subtrees and the tag executions of
//! the delta are equal at 20 and at 200 regions, while the document grows
//! tenfold.

use std::sync::Arc;

use xvc::prelude::*;
use xvc_bench::synthetic::{all_regions_view, needle_database};

/// The inserted order: customer 7 is the third customer of region 1 (five
/// customers per region), and its total passes no filter the view lacks.
const INSERT: &str = "INSERT INTO orders VALUES (999999, 7, 500)";

/// Publishes `regions` regions, inserts one order and absorbs it through
/// both delta entry points, checking each against a full republish and
/// the sharing of every untouched root task. Returns the delta's
/// `(nodes_respliced, queries_run)`.
fn one_order_insert(regions: usize) -> (usize, usize) {
    let view = all_regions_view();
    let mut db = needle_database(regions, 5, 4);
    let engine = Engine::new(&view).incremental(true);
    let prev = engine.session().publish(&db).expect("publish");
    let prev_segments = engine
        .session()
        .publish_segments(&db)
        .expect("segment publish");
    let delta = db.execute_dml(INSERT).expect("insert");
    let full = engine.session().publish(&db).expect("full republish");
    let expected = full.document.to_xml();

    let next = engine
        .session()
        .republish_delta(&db, &prev, &delta)
        .expect("delta republish");
    assert_eq!(next.document.to_xml(), expected, "{regions} regions");
    let next_segments = engine
        .session()
        .republish_segments(&db, &prev_segments.splice, &delta)
        .expect("segment republish");
    assert_eq!(next_segments.splice.xml(), expected, "{regions} regions");
    assert_eq!(next_segments.stats, next.stats, "{regions} regions");

    let before = prev.splice.as_ref().expect("incremental publish");
    let after = next.splice.as_ref().expect("delta keeps a splice index");
    for (old, new) in [
        (before, after),
        (&prev_segments.splice, &next_segments.splice),
    ] {
        assert_eq!(old.tasks().len(), regions);
        assert_eq!(new.tasks().len(), regions);
        let rebuilt: Vec<usize> = (0..regions)
            .filter(|&i| !Arc::ptr_eq(&old.tasks()[i], &new.tasks()[i]))
            .collect();
        assert_eq!(rebuilt, vec![1], "{regions} regions: rebuilt root tasks");
    }
    assert_eq!(next.stats.batches_reexecuted, 1, "{:?}", next.stats);
    (next.stats.nodes_respliced, next.stats.queries_run)
}

#[test]
fn one_row_insert_costs_the_same_at_any_document_size() {
    let small = one_order_insert(20);
    let large = one_order_insert(200);
    assert_eq!(small, large, "delta work grew with the document");
    // Customer 7's four orders plus the new one, from one order execution.
    assert_eq!(small, (5, 1));
}
