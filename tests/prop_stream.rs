//! Byte-equality of streamed emission: on randomized workloads,
//! `Session::publish_to` must write exactly the bytes of
//! `Document::to_xml()` (and `publish_pretty_to` those of
//! `to_pretty_xml()`) — across generator presets. The streaming path
//! shares the batched frontier walk but swaps the arena document for a
//! per-task skeleton, so any drift between the two element stores shows
//! up here as a byte diff.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use xvc::core::paper_fixtures::figure1_view;
use xvc::prelude::*;
use xvc_bench::random_stylesheet::{random_stylesheet, StylesheetConfig};
use xvc_bench::workload::{generate, WorkloadConfig};

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

/// Publishes `composed` against `db` both ways and compares bytes — the
/// compact and pretty layouts, plus the materialization counters (the
/// streaming walk must be the *same* walk, not merely an equivalent one).
fn assert_stream_identical(
    composed: &SchemaTree,
    db: &Database,
    context: &str,
) -> Result<(), TestCaseError> {
    let published = Engine::new(composed)
        .session()
        .publish(db)
        .expect("publish materialized");

    let mut session = Engine::new(composed).session();
    let mut compact = Vec::new();
    let streamed = session
        .publish_to(db, &mut compact)
        .expect("publish streamed");
    prop_assert_eq!(
        String::from_utf8(compact).expect("utf-8 stream"),
        published.document.to_xml(),
        "{}: streamed bytes diverged from Document::to_xml()",
        context
    );
    prop_assert_eq!(
        streamed.stats.elements,
        published.stats.elements,
        "{}: streamed walk materialized a different element count",
        context
    );
    prop_assert_eq!(
        streamed.stats.batches_executed,
        published.stats.batches_executed,
        "{}: streamed walk ran a different batch decomposition",
        context
    );
    prop_assert_eq!(
        &streamed.eval,
        &published.eval,
        "{}: streamed walk did different relational work",
        context
    );

    let mut pretty = Vec::new();
    session
        .publish_pretty_to(db, &mut pretty)
        .expect("publish streamed pretty");
    prop_assert_eq!(
        String::from_utf8(pretty).expect("utf-8 stream"),
        published.document.to_pretty_xml(),
        "{}: streamed pretty bytes diverged from to_pretty_xml()",
        context
    );
    Ok(())
}

proptest! {
    #![proptest_config(cases(64))]

    /// ≥192 random workloads per run (64 cases × 3 generator presets):
    /// streamed emission is byte-identical to the materializing
    /// serializers in both layouts, with identical publish/eval counters.
    #[test]
    fn streamed_emission_is_byte_identical_across_backends(
        cfg in config_strategy(),
        sheet_seed in 0u64..10_000,
    ) {
        let mem = generate(&cfg);
        let view = figure1_view();
        let catalog = mem.catalog();

        for (p, preset) in presets().iter().enumerate() {
            let stylesheet = random_stylesheet(&view, &catalog, sheet_seed, *preset);
            let composed = Composer::new(&view, &stylesheet, &catalog)
                .run()
                .expect("generated stylesheets compose")
                .view;
            let ctx = |backend: &str| {
                format!("preset {p} seed {sheet_seed} cfg {cfg:?} backend {backend}")
            };
            assert_stream_identical(&composed, &mem, &ctx("memory"))?;
        }
    }
}
