//! Delta-publish property tests: `Session::republish_delta` absorbs a
//! write through the `xvc_rel` DML path and must be indistinguishable —
//! byte-for-byte — from republishing the whole document. A soundness
//! property pins the delta path to the static analysis: every view node
//! the delta run re-executed must lie inside (the subtree closure of) the
//! [`xvc::core::DependencyMap`]'s affected set for the changed tables.
//!
//! The acceptance test at the bottom pins the incremental *win*: on the
//! deep chain workload a single-row insert re-executes under 20% of the
//! full publish's batch count.

use proptest::prelude::*;
use xvc::core::paper_fixtures::figure1_view;
use xvc::core::DependencyMap;
use xvc::prelude::*;
use xvc_bench::experiments::incr_bench;
use xvc_bench::random_stylesheet::{random_stylesheet, StylesheetConfig};
use xvc_bench::workload::{generate, WorkloadConfig};
use xvc_rel::ColumnType;

/// Case count: the in-tree default, overridable via `PROPTEST_CASES` for
/// heavier offline fuzzing runs.
fn cases(default: u32) -> proptest::test_runner::Config {
    let n = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default);
    proptest::test_runner::Config::with_cases(n)
}

/// Rotates through the generator presets so every run covers the plain,
/// recursion-heavy, and wide-fanout shapes.
fn preset(seed: u64) -> StylesheetConfig {
    match seed % 3 {
        0 => StylesheetConfig::default(),
        1 => StylesheetConfig::recursion_heavy(),
        _ => StylesheetConfig::wide_fanout(),
    }
}

/// A fresh, type-correct row for `table`, keyed far away from the
/// generator's id ranges so inserts never collide.
fn insert_sql(schema: &TableSchema, seed: u64) -> String {
    let vals: Vec<String> = schema
        .columns
        .iter()
        .enumerate()
        .map(|(i, c)| match c.ty {
            ColumnType::Int => format!("{}", 900_000 + seed as i64 * 100 + i as i64),
            ColumnType::Float => format!("{}.5", 900_000 + seed as i64 * 100 + i as i64),
            ColumnType::Str => format!("'delta_{seed}_{i}'"),
        })
        .collect();
    format!("INSERT INTO {} VALUES ({})", schema.name, vals.join(", "))
}

/// The DML statement for this seed: usually an insert into a
/// seed-selected table, every fourth seed a delete that hits real rows.
fn delta_sql(catalog: &Catalog, seed: u64) -> String {
    let tables: Vec<&TableSchema> = catalog.iter().collect();
    let schema = tables[(seed as usize / 4) % tables.len()];
    if seed % 4 == 3 {
        // The generators key every table by an integer first column, so a
        // broad range predicate deletes a real slice of the instance.
        format!(
            "DELETE FROM {} WHERE {} > {}",
            schema.name,
            schema.columns[0].name,
            seed % 7
        )
    } else {
        insert_sql(schema, seed)
    }
}

/// Composes the workload for `seed`, publishes it incrementally, applies
/// the seed's delta, and returns `(full, incr, changed tables, composed)`
/// for the properties to inspect. `db` is mutated to the post-delta state.
fn run_delta(db: &mut Database, seed: u64) -> (Published, Published, Vec<String>, SchemaTree) {
    let view = figure1_view();
    let catalog = db.catalog();
    let stylesheet = random_stylesheet(&view, &catalog, seed, preset(seed));
    let composed = Composer::new(&view, &stylesheet, &catalog)
        .run()
        .expect("generated stylesheets compose")
        .view;

    let mut publisher = Engine::new(&composed).incremental(true).session();
    let prev = publisher.publish(db).expect("initial publish");
    let delta = db
        .execute_dml(&delta_sql(&db.catalog(), seed))
        .expect("delta DML");
    let changed: Vec<String> = delta
        .tables_changed()
        .iter()
        .map(|t| (*t).to_owned())
        .collect();
    let full = publisher.publish(db).expect("full republish");
    let incr = publisher
        .republish_delta(db, &prev, &delta)
        .expect("delta republish");
    (full, incr, changed, composed)
}

proptest! {
    #![proptest_config(cases(128))]

    /// Delta publish ≡ full republish, byte-for-byte.
    #[test]
    fn delta_equals_full_republish_memory(seed in 0u64..10_000) {
        let mut db = generate(&WorkloadConfig::scale(1));
        let (full, incr, _, _) = run_delta(&mut db, seed);
        prop_assert_eq!(
            incr.document.to_xml(),
            full.document.to_xml(),
            "seed {}: delta republish diverged from full republish",
            seed
        );
        // Deltas chain: the returned splice index absorbs the next write.
        prop_assert!(incr.splice.is_some(), "seed {}: no splice index", seed);
    }

    /// Soundness against the static analysis: every view node the delta
    /// run re-executed is in the `DependencyMap`'s affected set for some
    /// changed table — or a descendant of one (re-executing a node
    /// re-executes its whole subtree).
    #[test]
    fn reexecuted_nodes_lie_inside_the_dependency_map(seed in 0u64..10_000) {
        let mut db = generate(&WorkloadConfig::scale(1));
        let (_, incr, changed, composed) = run_delta(&mut db, seed);
        let catalog = db.catalog();
        let map = DependencyMap::of_view(&composed, &catalog, false);
        let mut affected = std::collections::BTreeSet::new();
        for t in &changed {
            affected.extend(map.affected_views(t));
        }
        for vid in &incr.reexecuted {
            let mut cur = Some(*vid);
            let mut covered = false;
            while let Some(v) = cur {
                if composed.is_root(v) {
                    break;
                }
                if affected.contains(&v) {
                    covered = true;
                    break;
                }
                cur = composed.parent(v);
            }
            prop_assert!(
                covered,
                "seed {}: node {:?} re-executed but the dependency map ties \
                 none of its ancestors to the changed tables {:?}",
                seed,
                vid,
                changed
            );
        }
    }
}

/// Two writes that land under *existing* parents, so a narrowed delta
/// must pick the right parent instances: a copy of an existing row of a
/// seed-selected table under a fresh first-column id, then the deletion of
/// an existing row by its first column. Empty tables get a fresh row
/// instead of the copy.
fn narrowing_sqls(db: &Database, seed: u64) -> [String; 2] {
    let catalog = db.catalog();
    let tables: Vec<&TableSchema> = catalog.iter().collect();
    let schema = tables[seed as usize % tables.len()];
    let rows = db.table(&schema.name).expect("catalog table").rows();
    let insert = match rows.get(seed as usize / 7 % rows.len().max(1)) {
        Some(row) => {
            let mut vals: Vec<String> = row.iter().map(ToString::to_string).collect();
            vals[0] = format!("{}", 800_000 + seed as i64);
            format!("INSERT INTO {} VALUES ({})", schema.name, vals.join(", "))
        }
        None => insert_sql(schema, seed),
    };
    let delete = match rows.get(seed as usize / 3 % rows.len().max(1)) {
        Some(row) if !row[0].is_null() => format!(
            "DELETE FROM {} WHERE {} = {}",
            schema.name, schema.columns[0].name, row[0]
        ),
        _ => format!(
            "DELETE FROM {} WHERE {} = 800000",
            schema.name, schema.columns[0].name
        ),
    };
    [insert, delete]
}

/// Applies both narrowing writes to `db`, chaining the second delta onto
/// the first one's result, and checks each against a full republish and
/// the static dependency map.
fn check_narrowed_chain(db: &mut Database, seed: u64) -> Result<(), String> {
    let view = figure1_view();
    let stylesheet = random_stylesheet(&view, &db.catalog(), seed, preset(seed));
    let composed = Composer::new(&view, &stylesheet, &db.catalog())
        .run()
        .expect("generated stylesheets compose")
        .view;
    let map = DependencyMap::of_view(&composed, &db.catalog(), false);
    let mut publisher = Engine::new(&composed).incremental(true).session();
    let mut prev = publisher.publish(db).expect("initial publish");
    for sql in narrowing_sqls(db, seed) {
        let delta = db.execute_dml(&sql).map_err(|e| format!("{sql}: {e}"))?;
        let incr = publisher
            .republish_delta(db, &prev, &delta)
            .expect("delta republish");
        let full = publisher.publish(db).expect("full republish");
        if incr.document.to_xml() != full.document.to_xml() {
            return Err(format!(
                "{sql}: delta republish diverged from full republish"
            ));
        }
        let mut affected = std::collections::BTreeSet::new();
        for t in delta.tables_changed() {
            affected.extend(map.affected_views(t));
        }
        for &vid in &incr.reexecuted {
            let mut cur = Some(vid);
            while let Some(v) = cur.filter(|&v| !composed.is_root(v) && !affected.contains(&v)) {
                cur = composed.parent(v);
            }
            if !cur.is_some_and(|v| affected.contains(&v)) {
                return Err(format!(
                    "{sql}: node {vid:?} re-executed outside the dependency map"
                ));
            }
        }
        prev = incr;
    }
    Ok(())
}

proptest! {
    #![proptest_config(cases(64))]

    /// Narrowed deltas ≡ full republish: writes under existing parents,
    /// chained, re-executing only inside the map.
    #[test]
    fn narrowed_chained_deltas_equal_full_republish(seed in 0u64..10_000) {
        let mut memory = generate(&WorkloadConfig::scale(1));
        let r = check_narrowed_chain(&mut memory, seed);
        prop_assert!(r.is_ok(), "seed {} (memory): {:?}", seed, r);
    }
}

/// The acceptance bar for the incremental path: on the deep chain
/// workload, one inserted row republishes byte-identically (asserted
/// inside `incr_bench`) while re-executing strictly less than 20% of the
/// full publish's batches. The depth-5 chain is also absorbed
/// byte-identically (`incr_bench` panics otherwise).
#[test]
fn chain_single_row_insert_reexecutes_under_a_fifth_of_batches() {
    let shallow = incr_bench(5, 3, 1);
    assert_eq!(shallow.delta_rows_in, 1, "{shallow:?}");
    assert!(shallow.batches_delta < shallow.batches_full, "{shallow:?}");
    let deep = incr_bench(6, 3, 1);
    assert!(
        deep.reexecution_fraction() < 0.2,
        "delta path re-ran {:.0}% of the full batch count: {deep:?}",
        deep.reexecution_fraction() * 100.0
    );
}

/// A delta whose previous state was published under another catalog
/// equals a full publish. At the first publish `t2` is empty and `extra`
/// does not exist, so `x`'s plan fails and never runs; the catalog change
/// then compiles `x`, whose column names the old state never had.
#[test]
fn a_delta_across_a_catalog_change_equals_a_full_publish() {
    let view = xvc::view::parse_view(
        "node a $a {
            query: SELECT id FROM t;
            node b $b {
                query: SELECT k FROM t2 WHERE k = $a.id;
                node x $x {
                    query: SELECT xv FROM extra WHERE xk = $b.k;
                }
            }
            node y $y {
                query: SELECT yv FROM t3 WHERE yk = $a.id;
            }
        }",
    )
    .expect("view parses");
    let mut db = xvc::rel::database_from_ddl(
        "CREATE TABLE t (id INT); CREATE TABLE t2 (k INT); CREATE TABLE t3 (yk INT, yv INT);",
    )
    .expect("catalog");
    db.execute_dml("INSERT INTO t VALUES (1), (2)").expect("t");
    db.execute_dml("INSERT INTO t3 VALUES (1, 10), (2, 20)")
        .expect("t3");
    let engine = Engine::new(&view);
    let prev = engine.session().publish_segments(&db).expect("publish");
    assert_eq!(prev.stats.plan_prepare_failures, 1, "{:?}", prev.stats);

    db.execute_ddl("CREATE TABLE extra (xk INT, xv INT)")
        .expect("ddl");
    let mut delta = db
        .execute_dml("INSERT INTO extra VALUES (1, 100)")
        .expect("extra");
    delta.absorb(db.execute_dml("INSERT INTO t2 VALUES (1)").expect("t2"));
    let after = engine
        .session()
        .republish_segments(&db, &prev.splice, &delta)
        .expect("republish");
    let full = engine.session().publish(&db).expect("full publish");
    assert_eq!(after.splice.xml(), full.document.to_xml());
    assert!(after.splice.xml().contains("<x xv=\"100\"/>"));
    // The change of compilation republishes in full.
    assert_eq!(after.stats.batches_reexecuted, full.stats.batches_executed);
    assert_eq!(after.stats.nodes_respliced, 0);
    assert_eq!(after.reexecuted, view.node_ids());
}
