//! Soundness of the static cardinality analysis: on randomized workloads
//! the publisher's measured counters never exceed the statically
//! predicted bounds (the analysis may overestimate, never undercount) —
//! on the instance as generated and on an indexed copy of it.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use xvc::core::paper_fixtures::figure1_view;
use xvc::prelude::*;
use xvc_bench::random_stylesheet::{random_stylesheet, StylesheetConfig};
use xvc_bench::workload::{generate, keyed_hotel_view, WorkloadConfig};

/// Case count: the in-tree default, overridable via `PROPTEST_CASES` for
/// heavier offline fuzzing runs.
fn cases(default: u32) -> proptest::test_runner::Config {
    let n = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default);
    proptest::test_runner::Config::with_cases(n)
}

fn config_strategy() -> impl Strategy<Value = WorkloadConfig> {
    (
        1usize..3, // metros
        1usize..5, // hotels per metro
        0u8..=10,  // luxury tenths
        0usize..4, // rooms
        0usize..3, // conference rooms
        1usize..3, // dates
        0usize..3, // availability per room
        any::<u64>(),
    )
        .prop_map(
            |(metros, hotels, lux, rooms, confs, dates, avail, seed)| WorkloadConfig {
                metros,
                hotels_per_metro: hotels,
                luxury_fraction: lux as f64 / 10.0,
                rooms_per_hotel: rooms,
                conf_rooms_per_hotel: confs,
                dates,
                avail_per_room: avail,
                seed,
            },
        )
}

/// The three generator presets every case is run under: the default mix,
/// the recursion-heavy deep-chain preset, and the wide-fanout batching
/// preset.
fn presets() -> [StylesheetConfig; 3] {
    [
        StylesheetConfig::default(),
        StylesheetConfig::recursion_heavy(),
        StylesheetConfig::wide_fanout(),
    ]
}

/// Publishes `composed` against `db` and checks every measured counter
/// against the static prediction.
fn assert_bounds_sound(
    composed: &SchemaTree,
    db: &Database,
    bounds: &ViewBounds,
    context: &str,
) -> Result<(), TestCaseError> {
    let published = Engine::new(composed)
        .session()
        .publish(db)
        .expect("publish");
    // Soundness: measured per-wave batch sizes and the total element
    // count never exceed the static bounds (when those are finite).
    if let Some(limit) = bounds.max_batch.as_limit() {
        prop_assert!(
            published.stats.bindings_per_batch_max as u64 <= limit,
            "{context}: measured batch {} exceeds static bound {limit}",
            published.stats.bindings_per_batch_max
        );
    }
    if let Some(limit) = bounds.document.as_limit() {
        prop_assert!(
            published.stats.elements as u64 <= limit,
            "{context}: {} elements exceed static document bound {limit}",
            published.stats.elements
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(cases(64))]

    /// ≥192 random workloads per run (64 cases × 3 generator presets):
    /// measured batch sizes and element counts never exceed the static
    /// cardinality bounds — on the instance as generated and on an indexed
    /// copy of it.
    #[test]
    fn cardinality_bounds_sound_across_backends(
        cfg in config_strategy(),
        sheet_seed in 0u64..10_000,
    ) {
        let mem = generate(&cfg);
        let view = figure1_view();
        let catalog = mem.catalog();
        // An indexed copy: hash the hot foreign keys the Figure 1 view
        // joins through, so the index access path actually fires.
        let mut indexed = mem.clone();
        indexed.create_index("hotel", "metro_id").expect("index");
        indexed.create_index("confroom", "chotel_id").expect("index");
        let indexed_catalog = indexed.catalog();

        for (p, preset) in presets().iter().enumerate() {
            let stylesheet = random_stylesheet(&view, &catalog, sheet_seed, *preset);
            let composed = Composer::new(&view, &stylesheet, &catalog)
                .run()
                .expect("generated stylesheets compose")
                .view;
            let bounds = analyze_view_bounds(&composed, &catalog);
            let ctx = |backend: &str| {
                format!("preset {p} seed {sheet_seed} cfg {cfg:?} backend {backend}")
            };
            assert_bounds_sound(&composed, &mem, &bounds, &ctx("memory"))?;
            // The indexed catalog declares extra access paths but the
            // same keys, so the bounds carry over unchanged — re-derive
            // them anyway to check analysis stability under IndexDefs.
            let indexed_bounds = analyze_view_bounds(&composed, &indexed_catalog);
            prop_assert_eq!(
                indexed_bounds.max_batch, bounds.max_batch,
                "secondary indexes changed the batch bound"
            );
            assert_bounds_sound(&composed, &indexed, &indexed_bounds, &ctx("indexed"))?;
        }
    }

    /// The static document bound is finite on a view every key reaches,
    /// and on every stylesheet composed over it, and it never undercounts
    /// the published elements.
    #[test]
    fn finite_document_bounds_never_undercount(
        cfg in config_strategy(),
        sheet_seed in 0u64..10_000,
    ) {
        let db = generate(&cfg);
        let view = keyed_hotel_view();
        let catalog = db.catalog();
        let mut views = vec![("the keyed view".to_owned(), view.clone())];
        for (p, preset) in presets().iter().enumerate() {
            let stylesheet = random_stylesheet(&view, &catalog, sheet_seed, *preset);
            let composed = Composer::new(&view, &stylesheet, &catalog)
                .run()
                .expect("generated stylesheets compose")
                .view;
            views.push((format!("preset {p} seed {sheet_seed}"), composed));
        }
        for (context, view) in &views {
            let bounds = analyze_view_bounds(view, &catalog);
            let limit = bounds.document.as_limit();
            prop_assert!(limit.is_some(), "{}: document bound not finite", context);
            let published = Engine::new(view).session().publish(&db).expect("publish");
            prop_assert!(
                published.stats.elements as u64 <= limit.unwrap_or(0),
                "{}: {} elements exceed static document bound {:?} (cfg {:?})",
                context,
                published.stats.elements,
                limit,
                cfg
            );
        }
    }
}
