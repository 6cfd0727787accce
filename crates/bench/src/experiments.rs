//! The evaluation the paper deferred ("We defer experimental evaluation
//! ... to future research", §1), realized as experiments E1–E3, the §4.5
//! complexity studies C1–C2 and the E4 micro-benchmarks (see DESIGN.md /
//! EXPERIMENTS.md).
//!
//! Every run first *verifies* `v'(I) = x(v(I))` and only then measures —
//! a benchmark row for unequal results would be meaningless.

use std::time::Instant;

use xvc_core::paper_fixtures::figure1_view;
use xvc_core::Composer;
use xvc_rel::Database;
use xvc_view::{Engine, SchemaTree};
use xvc_xml::documents_equal_unordered;
use xvc_xslt::{process, Stylesheet};

use crate::synthetic::{
    all_regions_view, chain_catalog, chain_stylesheet, chain_view, fan_stylesheet, needle_database,
    needle_indexed, needle_view,
};
use crate::workload::{generate, WorkloadConfig};

/// One measured comparison of the two evaluation strategies.
#[derive(Debug, Clone, Copy)]
pub struct ComparisonRow {
    /// Scale factor (or sweep parameter) of the instance.
    pub param: usize,
    /// Total database rows.
    pub db_rows: usize,
    /// Wall time for `x(v(I))`: publish the full view, run the engine.
    pub naive_ms: f64,
    /// Wall time for `v'(I)`: evaluate the composed view.
    pub composed_ms: f64,
    /// Elements materialized by the naive strategy (the full `v(I)`).
    pub naive_elements: usize,
    /// Elements materialized by the composed strategy (the result only).
    pub composed_elements: usize,
    /// Tag queries run by the naive strategy.
    pub naive_queries: usize,
    /// Tag queries run by the composed strategy.
    pub composed_queries: usize,
    /// Relational rows scanned materializing the full view `v(I)`.
    pub naive_rows_scanned: u64,
    /// Relational rows scanned evaluating the composed view `v'(I)`.
    pub composed_rows_scanned: u64,
}

impl ComparisonRow {
    /// naive / composed wall-time ratio.
    pub fn speedup(&self) -> f64 {
        self.naive_ms / self.composed_ms
    }
}

/// Runs both strategies on one (view, stylesheet, instance) triple,
/// verifying equality. Each strategy runs `reps` times; the best time is
/// reported (standard practice to suppress allocator noise).
pub fn compare(
    view: &SchemaTree,
    stylesheet: &Stylesheet,
    db: &Database,
    param: usize,
    reps: usize,
) -> ComparisonRow {
    let composed = Composer::new(view, stylesheet, &db.catalog())
        .run()
        .expect("stylesheet must compose")
        .view;

    // Verify once (the instrumented publish also measures engine work).
    // The same warm sessions serve the timed loops below, so the measured
    // state is the warm plan cache — the deployment steady state.
    let mut naive_pub = Engine::new(view).session();
    let mut composed_pub = Engine::new(&composed).session();
    let naive_out = naive_pub.publish(db).expect("publish v");
    let (full, naive_stats, naive_eval) = (naive_out.document, naive_out.stats, naive_out.eval);
    let expected = process(stylesheet, &full).expect("run x");
    let composed_out = composed_pub.publish(db).expect("publish v'");
    let (actual, composed_stats, composed_eval) =
        (composed_out.document, composed_out.stats, composed_out.eval);
    assert!(
        documents_equal_unordered(&expected, &actual),
        "v'(I) != x(v(I)) — benchmark would be meaningless"
    );

    let naive_ms = best_ms(reps, || {
        let full = naive_pub.publish(db).expect("publish v").document;
        let out = process(stylesheet, &full).expect("run x");
        std::hint::black_box(out);
    });
    let composed_ms = best_ms(reps, || {
        let out = composed_pub.publish(db).expect("publish v'").document;
        std::hint::black_box(out);
    });

    ComparisonRow {
        param,
        db_rows: db.total_rows(),
        naive_ms,
        composed_ms,
        naive_elements: naive_stats.elements,
        composed_elements: composed_stats.elements,
        naive_queries: naive_stats.queries_run,
        composed_queries: composed_stats.queries_run,
        naive_rows_scanned: naive_eval.rows_scanned,
        composed_rows_scanned: composed_eval.rows_scanned,
    }
}

fn best_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// E1/E2: naive vs composed across database scale, on the paper's running
/// example (Figure 1 view × Figure 4 stylesheet).
pub fn e1_scale_sweep(scales: &[usize], reps: usize) -> Vec<ComparisonRow> {
    let view = figure1_view();
    let stylesheet = xvc_xslt::parse_stylesheet(xvc_xslt::parse::FIGURE4_XSLT).expect("fixture");
    scales
        .iter()
        .map(|&s| {
            let db = generate(&WorkloadConfig::scale(s));
            compare(&view, &stylesheet, &db, s, reps)
        })
        .collect()
}

/// E3: stylesheet-selectivity sweep — the luxury fraction controls how
/// much of the document the stylesheet's path (through `hotel`) touches.
/// The naive strategy pays for the whole view regardless; the composed
/// strategy only pays for what the stylesheet selects.
pub fn e3_selectivity_sweep(fractions_percent: &[usize], reps: usize) -> Vec<ComparisonRow> {
    let view = figure1_view();
    let stylesheet = xvc_xslt::parse_stylesheet(xvc_xslt::parse::FIGURE4_XSLT).expect("fixture");
    fractions_percent
        .iter()
        .map(|&pct| {
            let db = generate(&WorkloadConfig::scale(4).with_luxury_fraction(pct as f64 / 100.0));
            compare(&view, &stylesheet, &db, pct, reps)
        })
        .collect()
}

/// One data point of the composition-cost studies.
#[derive(Debug, Clone, Copy)]
pub struct ComposeCostRow {
    /// Sweep parameter (chain depth).
    pub param: usize,
    /// |v| — schema-tree nodes.
    pub view_nodes: usize,
    /// |x| — template rules.
    pub rules: usize,
    /// TVQ nodes produced.
    pub tvq_nodes: usize,
    /// Composition wall time.
    pub compose_ms: f64,
}

/// C1: composition cost over chain depth (the polynomial regime of §4.5).
pub fn c1_chain_sweep(depths: &[usize], reps: usize) -> Vec<ComposeCostRow> {
    depths
        .iter()
        .map(|&d| {
            let v = chain_view(d);
            let x = chain_stylesheet(d);
            let catalog = chain_catalog(d);
            let ctg = xvc_core::build_ctg(&v, &x).expect("ctg");
            let tvq = xvc_core::build_tvq(&v, &x, &ctg, &catalog, 1_000_000).expect("tvq");
            let ms = best_ms(reps, || {
                let out = Composer::new(&v, &x, &catalog).run().expect("compose").view;
                std::hint::black_box(out);
            });
            ComposeCostRow {
                param: d,
                view_nodes: v.len(),
                rules: x.len(),
                tvq_nodes: tvq.nodes.len(),
                compose_ms: ms,
            }
        })
        .collect()
}

/// C2: TVQ duplication over fan-out (the exponential regime of §4.5).
/// Depth is fixed; the fan parameter sweeps; TVQ size is `Σ fan^k`.
pub fn c2_fan_sweep(depth: usize, fans: &[usize], reps: usize) -> Vec<ComposeCostRow> {
    fans.iter()
        .map(|&f| {
            let v = chain_view(depth);
            let x = fan_stylesheet(depth, f);
            let catalog = chain_catalog(depth);
            let ctg = xvc_core::build_ctg(&v, &x).expect("ctg");
            let tvq = xvc_core::build_tvq(&v, &x, &ctg, &catalog, 1_000_000).expect("tvq");
            let ms = best_ms(reps, || {
                let out = Composer::new(&v, &x, &catalog)
                    .tvq_limit(1_000_000)
                    .run()
                    .expect("compose")
                    .view;
                std::hint::black_box(out);
            });
            ComposeCostRow {
                param: f,
                view_nodes: v.len(),
                rules: x.len(),
                tvq_nodes: tvq.nodes.len(),
                compose_ms: ms,
            }
        })
        .collect()
}

/// One micro-benchmark of [`micro_benchmarks`]: an operation and its best
/// wall time.
#[derive(Debug, Clone)]
pub struct MicroRow {
    /// `group/operation`, e.g. `compose/figure4` or `xml/parse`.
    pub name: String,
    /// Best of the repetitions' wall times.
    pub best_ms: f64,
}

/// E4: micro-benchmarks of what no other table times. First the paper's
/// own compositions: Figures 4, 15 and 17 composed with the Figure 1 view,
/// and Figure 25 through the recursive composer. Then each substrate layer
/// on the Figure 1 view's document at workload `scale`: XML parse,
/// serialize and canonicalize; XPath parse and evaluation; four SQL
/// queries, run through their prepared plans as publishing runs them; and
/// the Figure 1 publish itself. Each operation reports its best of `reps`
/// runs.
pub fn micro_benchmarks(scale: usize, reps: usize) -> Vec<MicroRow> {
    use xvc_core::paper_fixtures::{figure2_catalog, FIGURE15_XSLT, FIGURE17_XSLT, FIGURE25_XSLT};
    use xvc_rel::{parse_query, prepare, ParamEnv};
    use xvc_xpath::{eval_path, parse_path, VarBindings};

    let mut rows = Vec::new();
    let mut time = |name: &str, f: &mut dyn FnMut()| {
        rows.push(MicroRow {
            name: name.to_owned(),
            best_ms: best_ms(reps, f),
        });
    };

    let view = figure1_view();
    let catalog = figure2_catalog();
    for (name, xslt) in [
        ("compose/figure4", xvc_xslt::parse::FIGURE4_XSLT),
        ("compose/figure15", FIGURE15_XSLT),
        ("compose/figure17", FIGURE17_XSLT),
    ] {
        let x = xvc_xslt::parse_stylesheet(xslt).expect("fixture");
        time(name, &mut || {
            let out = Composer::new(&view, &x, &catalog).run().expect("compose");
            std::hint::black_box(out);
        });
    }
    let x25 = xvc_xslt::parse_stylesheet(FIGURE25_XSLT).expect("fixture");
    time("compose/figure25 (recursive)", &mut || {
        let out = xvc_core::compose_recursive(&view, &x25, &catalog).expect("compose");
        std::hint::black_box(out);
    });

    let db = generate(&WorkloadConfig::scale(scale));
    let doc = Engine::new(&view)
        .session()
        .publish(&db)
        .expect("publish v")
        .document;
    // The view publishes one element per metro, and XML text needs a
    // single document element to parse.
    let xml = format!("<document>{}</document>", doc.to_xml());
    time("xml/parse", &mut || {
        std::hint::black_box(xvc_xml::parse(&xml).expect("parse"));
    });
    time("xml/serialize", &mut || {
        std::hint::black_box(doc.to_xml());
    });
    time("xml/canonicalize", &mut || {
        std::hint::black_box(xvc_xml::canonical_string(&doc, doc.root()));
    });

    let select = ".[@sum<200]/../hotel_available/../confroom[../confstat[@sum>100]][@capacity>250]";
    time("xpath/parse figure17 select", &mut || {
        std::hint::black_box(parse_path(select).expect("path"));
    });
    for p in [
        "metro/hotel/confstat",
        "metro/hotel/confroom[@capacity>250]",
    ] {
        let path = parse_path(p).expect("path");
        time(&format!("xpath/{p}"), &mut || {
            let out = eval_path(&doc, doc.root(), &path, &VarBindings::new()).expect("eval");
            std::hint::black_box(out);
        });
    }

    for (name, sql) in [
        ("scan_filter", "SELECT * FROM hotel WHERE starrating > 4"),
        (
            "hash_join_3way",
            "SELECT metroname, hotelname, capacity FROM metroarea, hotel, confroom \
             WHERE metro_id = metroid AND chotel_id = hotelid",
        ),
        (
            "group_aggregate",
            "SELECT chotel_id, SUM(capacity) FROM confroom GROUP BY chotel_id",
        ),
        (
            "correlated_exists",
            "SELECT hotelname FROM hotel WHERE EXISTS \
             (SELECT * FROM confroom WHERE chotel_id = hotelid AND capacity > 400)",
        ),
    ] {
        let q = parse_query(sql).expect("sql");
        let plan = prepare(&q, &db.catalog()).expect("prepare");
        time(&format!("sql/{name}"), &mut || {
            std::hint::black_box(plan.execute(&db, &ParamEnv::new()).expect("execute"));
        });
    }

    time("publish/figure1", &mut || {
        let out = Engine::new(&view)
            .session()
            .publish(&db)
            .expect("publish v");
        std::hint::black_box(out);
    });
    rows
}

/// Renders micro-benchmark rows as an aligned text table.
pub fn render_micro_table(title: &str, rows: &[MicroRow]) -> String {
    let mut out = format!("## {title}\n\n");
    out.push_str(&format!("{:<44} | {:>10}\n", "operation", "best ms"));
    out.push_str(&"-".repeat(57));
    out.push('\n');
    for r in rows {
        out.push_str(&format!("{:<44} | {:>10.4}\n", r.name, r.best_ms));
    }
    out
}

/// One measured data point of the §4.2.1 predicate-dataflow prune study:
/// how much of the TVQ the prune pass removes on a workload, and what
/// that does to composition and evaluation wall time.
#[derive(Debug, Clone)]
pub struct PruneBenchRow {
    /// Human-readable workload name.
    pub workload: String,
    /// TVQ nodes without pruning.
    pub tvq_nodes_before: usize,
    /// TVQ nodes after pruning (strictly smaller when anything was dead).
    pub tvq_nodes_after: usize,
    /// Redundant conjuncts dropped from surviving tag queries.
    pub conjuncts_eliminated: usize,
    /// Composition wall time without pruning.
    pub compose_plain_ms: f64,
    /// Composition wall time with the prune pass enabled.
    pub compose_prune_ms: f64,
    /// Wall time evaluating the unpruned composed view.
    pub eval_plain_ms: f64,
    /// Wall time evaluating the pruned composed view.
    pub eval_prune_ms: f64,
    /// Wall time evaluating the pruned view through cached prepared plans
    /// (warm cache) — one `execute_batch` per (view node, frontier wave).
    pub eval_prepared_ms: f64,
    /// Warm-publish plan-cache hit rate (1.0 when every lookup hits).
    pub plan_cache_hit_rate: f64,
    /// Batched plan executions per publish.
    pub batches_executed: usize,
    /// Largest binding relation joined in one batch.
    pub bindings_per_batch_max: usize,
}

/// A Figure-4 variant whose `hotel` branch demands `starrating < 3`
/// against the view's `starrating > 4` restriction (provably dead) and
/// whose surviving branch repeats an entailed conjunct.
const PRUNE_STUDY_XSLT: &str = r#"<xsl:stylesheet>
  <xsl:template match="/">
    <out><xsl:apply-templates select="metro"/></out>
  </xsl:template>
  <xsl:template match="metro">
    <m>
      <xsl:apply-templates select="hotel[@starrating &lt; 3]"/>
      <xsl:apply-templates select="confstat"/>
    </m>
  </xsl:template>
  <xsl:template match="hotel">
    <h><xsl:apply-templates select="confroom"/></h>
  </xsl:template>
  <xsl:template match="confroom"><xsl:value-of select="."/></xsl:template>
  <xsl:template match="confstat"><s/></xsl:template>
</xsl:stylesheet>"#;

/// Measures the prune pass on the clean Figure 4 workload (nothing to
/// remove — the overhead case) and on the dead-branch variant (the win
/// case). Both runs verify `v'(I) = x(v(I))` with pruning on before any
/// timing.
pub fn prune_bench(scale: usize, reps: usize) -> Vec<PruneBenchRow> {
    let view = figure1_view();
    let db = generate(&WorkloadConfig::scale(scale));
    let figure4 = xvc_xslt::parse_stylesheet(xvc_xslt::parse::FIGURE4_XSLT).expect("fixture");
    let dead = xvc_xslt::parse_stylesheet(PRUNE_STUDY_XSLT).expect("fixture");
    [
        ("figure4 (clean)", &figure4),
        ("figure4 + dead hotel branch", &dead),
    ]
    .into_iter()
    .map(|(name, stylesheet)| prune_compare(name, &view, stylesheet, &db, reps))
    .collect()
}

fn prune_compare(
    name: &str,
    view: &SchemaTree,
    stylesheet: &Stylesheet,
    db: &Database,
    reps: usize,
) -> PruneBenchRow {
    let catalog = db.catalog();
    let plain_composition = Composer::new(view, stylesheet, &catalog)
        .run()
        .expect("compose");
    let (unpruned, before) = (plain_composition.view, plain_composition.stats);
    let pruned_composition = Composer::new(view, stylesheet, &catalog)
        .prune(true)
        .run()
        .expect("compose --prune");
    let (pruned, after) = (pruned_composition.view, pruned_composition.stats);

    // Verify before measuring, as everywhere else in this module. The
    // Sessions stay warm for the eval timing loops below.
    let mut view_pub = Engine::new(view).session();
    let mut unpruned_pub = Engine::new(&unpruned).session();
    let mut pruned_pub = Engine::new(&pruned).session();
    let full = view_pub.publish(db).expect("publish v").document;
    let expected = process(stylesheet, &full).expect("run x");
    let actual = pruned_pub.publish(db).expect("publish pruned v'").document;
    assert!(
        documents_equal_unordered(&expected, &actual),
        "pruned v'(I) != x(v(I)) — benchmark would be meaningless"
    );

    let compose_plain_ms = best_ms(reps, || {
        let out = Composer::new(view, stylesheet, &catalog)
            .run()
            .expect("compose")
            .view;
        std::hint::black_box(out);
    });
    let compose_prune_ms = best_ms(reps, || {
        let out = Composer::new(view, stylesheet, &catalog)
            .prune(true)
            .run()
            .expect("compose")
            .view;
        std::hint::black_box(out);
    });
    let eval_plain_ms = best_ms(reps, || {
        let out = unpruned_pub.publish(db).expect("publish v'").document;
        std::hint::black_box(out);
    });
    let eval_prune_ms = best_ms(reps, || {
        let out = pruned_pub.publish(db).expect("publish pruned v'").document;
        std::hint::black_box(out);
    });

    let eval_prepared_ms = best_ms(reps, || {
        let out = pruned_pub.publish(db).expect("publish prepared").document;
        std::hint::black_box(out);
    });
    // Every plan was compiled during the verification publish above, so
    // this warm publish must be served entirely from the cache.
    let warm = pruned_pub.publish(db).expect("publish warm");
    let plan_cache_hit_rate = warm.stats.plan_cache_hit_rate();
    let batches_executed = warm.stats.batches_executed;
    let bindings_per_batch_max = warm.stats.bindings_per_batch_max;

    PruneBenchRow {
        workload: name.to_owned(),
        tvq_nodes_before: before.tvq_nodes,
        tvq_nodes_after: after.tvq_nodes,
        conjuncts_eliminated: after.conjuncts_eliminated,
        compose_plain_ms,
        compose_prune_ms,
        eval_plain_ms,
        eval_prune_ms,
        eval_prepared_ms,
        plan_cache_hit_rate,
        batches_executed,
        bindings_per_batch_max,
    }
}

/// The set-oriented publishing study: a deep fan-out chain with
/// `Σ fanout^k` parent bindings per root subtree, which the publisher runs
/// as one batch per level whatever the fan-out. The row carries the same
/// field set as the prune study, so `BENCH_compose.json` stays a single
/// homogeneous array.
pub fn batch_bench(depth: usize, fanout: usize, reps: usize) -> PruneBenchRow {
    let view = chain_view(depth);
    let stylesheet = chain_stylesheet(depth);
    let db = crate::synthetic::chain_database(depth, fanout);
    prune_compare(
        &format!("chain depth {depth} x fan-out {fanout} (batch study)"),
        &view,
        &stylesheet,
        &db,
        reps,
    )
}

/// One data point of the I1 incremental-maintenance study: the same
/// single-row insert absorbed by a full republish and by
/// [`xvc_view::Session::republish_delta`], which re-runs the view nodes
/// whose cached plans read the changed table, narrowed by their row keys —
/// documents verified byte-identical before any timing.
#[derive(Debug, Clone)]
pub struct IncrBenchRow {
    /// Human-readable workload name.
    pub workload: String,
    /// Total database rows *after* the delta.
    pub db_rows: usize,
    /// Rows the delta carried (1 for the single-row study).
    pub delta_rows_in: usize,
    /// Warm wall time republishing the whole document from scratch.
    pub eval_full_republish_ms: f64,
    /// Warm wall time absorbing the delta via `republish_delta`.
    pub eval_delta_ms: f64,
    /// Batched plan executions per full publish.
    pub batches_full: usize,
    /// Batched plan executions the delta path re-ran.
    pub batches_delta: usize,
    /// Stale subtrees spliced out of the previous document.
    pub nodes_respliced: usize,
}

impl IncrBenchRow {
    /// Fraction of the full publish's batch work the delta path re-ran.
    pub fn reexecution_fraction(&self) -> f64 {
        self.batches_delta as f64 / self.batches_full.max(1) as f64
    }
}

/// I1: composes the chain workload, publishes it incrementally, inserts
/// one row into the *deepest* level table through the `xvc_rel` write
/// path, and absorbs the resulting [`xvc_rel::Delta`] both ways. The
/// delta document must be byte-identical to the full republish and must
/// re-execute strictly fewer batches — either failure panics (a benchmark
/// row for a divergent or degenerate delta path would be meaningless).
pub fn incr_bench(depth: usize, fanout: usize, reps: usize) -> IncrBenchRow {
    use crate::synthetic::level_table;

    assert!(depth >= 2, "the study needs a parent level to attach to");
    let view = chain_view(depth);
    let stylesheet = chain_stylesheet(depth);
    let mut db = crate::synthetic::chain_database(depth, fanout);
    let composed = Composer::new(&view, &stylesheet, &db.catalog())
        .run()
        .expect("compose")
        .view;

    let mut publisher = Engine::new(&composed).incremental(true).session();
    let prev = publisher.publish(&db).expect("publish v'");

    // One new leaf row, parented on the first row of the level above.
    // `chain_database` assigns ids breadth-first starting at 1, so the
    // first id of level `k` is `1 + Σ_{j<k} fanout^(j+1)`.
    let parent_id: i64 = 1
        + (0..depth - 2)
            .map(|j| (fanout as i64).pow(j as u32 + 1))
            .sum::<i64>();
    let delta = db
        .execute_dml(&format!(
            "INSERT INTO {} VALUES (999983, {parent_id}, 42)",
            level_table(depth - 1)
        ))
        .expect("single-row insert");

    // Both strategies absorb the same post-delta instance; byte equality
    // is the gate everything downstream rests on.
    let full = publisher.publish(&db).expect("full republish");
    let incr = publisher
        .republish_delta(&db, &prev, &delta)
        .expect("delta republish");
    assert_eq!(
        incr.document.to_xml(),
        full.document.to_xml(),
        "delta republish diverged from the full republish — \
         benchmark would be meaningless"
    );
    assert!(
        incr.stats.batches_reexecuted < full.stats.batches_executed,
        "delta path re-ran {} of {} batches — no incremental win",
        incr.stats.batches_reexecuted,
        full.stats.batches_executed
    );

    let eval_full_republish_ms = best_ms(reps, || {
        let out = publisher.publish(&db).expect("full republish").document;
        std::hint::black_box(out);
    });
    let eval_delta_ms = best_ms(reps, || {
        let out = publisher
            .republish_delta(&db, &prev, &delta)
            .expect("delta republish")
            .document;
        std::hint::black_box(out);
    });

    IncrBenchRow {
        workload: format!("chain depth {depth} x fan-out {fanout} (incr study)"),
        db_rows: db.total_rows(),
        delta_rows_in: incr.stats.delta_rows_in,
        eval_full_republish_ms,
        eval_delta_ms,
        batches_full: full.stats.batches_executed,
        batches_delta: incr.stats.batches_reexecuted,
        nodes_respliced: incr.stats.nodes_respliced,
    }
}

/// Runs [`incr_bench`] over `(depth, fanout)` configurations, ascending
/// instance size.
pub fn incr_sweep(configs: &[(usize, usize)], reps: usize) -> Vec<IncrBenchRow> {
    configs
        .iter()
        .map(|&(d, f)| incr_bench(d, f, reps))
        .collect()
}

/// Serializes incremental-study rows as `BENCH_compose.json` array
/// fragments, combinable with the other studies via [`render_json_array`].
pub fn render_incr_objects(rows: &[IncrBenchRow]) -> Vec<String> {
    rows.iter()
        .map(|r| {
            format!(
                "  {{\"workload\": \"{}\", \"db_rows\": {}, \"delta_rows_in\": {}, \
                 \"eval_full_republish_ms\": {:.3}, \"eval_delta_ms\": {:.3}, \
                 \"batches_full\": {}, \"batches_delta\": {}, \"nodes_respliced\": {}}}",
                r.workload,
                r.db_rows,
                r.delta_rows_in,
                r.eval_full_republish_ms,
                r.eval_delta_ms,
                r.batches_full,
                r.batches_delta,
                r.nodes_respliced,
            )
        })
        .collect()
}

/// One data point of the access-path scale study: the same needle view
/// published against the same instance with full scans and with secondary
/// indexes — documents verified bit-identical before any timing.
#[derive(Debug, Clone)]
pub struct ScaleBenchRow {
    /// Human-readable workload name.
    pub workload: String,
    /// Total database rows.
    pub db_rows: usize,
    /// Warm publish, full scans.
    pub eval_mem_ms: f64,
    /// Warm publish with secondary indexes.
    pub eval_indexed_ms: f64,
    /// Engine rows scanned per publish on the full-scan path.
    pub scan_rows_scanned: u64,
    /// Engine rows scanned per publish on the index path (candidates
    /// fetched and rechecked).
    pub indexed_rows_scanned: u64,
    /// Index probes per publish on the index path.
    pub index_lookups: u64,
}

/// Sizing of one scale-study instance.
#[derive(Debug, Clone, Copy)]
pub struct ScaleConfig {
    /// Region (root-table) rows; exactly one is selected by the view.
    pub regions: usize,
    /// Customers per region.
    pub customers_per_region: usize,
    /// Orders per customer.
    pub orders_per_customer: usize,
}

impl ScaleConfig {
    /// Total rows the config generates.
    pub fn total_rows(&self) -> usize {
        self.regions * (1 + self.customers_per_region * (1 + self.orders_per_customer))
    }
}

/// The study's full-size configurations: ~10⁵ and ~10⁶ rows.
pub const SCALE_FULL: &[ScaleConfig] = &[
    ScaleConfig {
        regions: 100,
        customers_per_region: 100,
        orders_per_customer: 9,
    },
    ScaleConfig {
        regions: 200,
        customers_per_region: 250,
        orders_per_customer: 19,
    },
];

/// Reduced configurations for the CI smoke run — small enough to finish in
/// seconds, large enough that an index slower than a scan at the last size
/// is a genuine regression, not noise.
pub const SCALE_SMOKE: &[ScaleConfig] = &[
    ScaleConfig {
        regions: 10,
        customers_per_region: 10,
        orders_per_customer: 8,
    },
    ScaleConfig {
        regions: 50,
        customers_per_region: 40,
        orders_per_customer: 10,
    },
];

/// Runs the needle view against one instance with full scans and with
/// secondary indexes. The indexed document is asserted byte-identical to
/// the full-scan one before its timing loop runs.
pub fn scale_bench(cfg: &ScaleConfig, reps: usize) -> ScaleBenchRow {
    // The needle: one mid-range region, so neither the first nor the last
    // scan position is favored.
    let needle = format!("region-{}", cfg.regions / 2);
    let view = needle_view(&needle);
    let base = needle_database(
        cfg.regions,
        cfg.customers_per_region,
        cfg.orders_per_customer,
    );
    let db_rows = base.total_rows();

    let mut mem_pub = Engine::new(&view).session();
    let mem_out = mem_pub.publish(&base).expect("publish mem");
    let reference = mem_out.document.to_xml();
    let scan_rows_scanned = mem_out.eval.rows_scanned;
    let eval_mem_ms = best_ms(reps, || {
        let out = mem_pub.publish(&base).expect("publish mem").document;
        std::hint::black_box(out);
    });

    let indexed = needle_indexed(&base);
    let mut idx_pub = Engine::new(&view).session();
    let idx_out = idx_pub.publish(&indexed).expect("publish indexed");
    assert_eq!(
        idx_out.document.to_xml(),
        reference,
        "indexed access path diverged from full scan — benchmark would be meaningless"
    );
    assert!(
        idx_out.eval.index_lookups > 0,
        "index study never probed an index: {:?}",
        idx_out.eval
    );
    let indexed_rows_scanned = idx_out.eval.rows_scanned;
    let index_lookups = idx_out.eval.index_lookups;
    let eval_indexed_ms = best_ms(reps, || {
        let out = idx_pub.publish(&indexed).expect("publish indexed").document;
        std::hint::black_box(out);
    });

    ScaleBenchRow {
        workload: format!(
            "needle {} rows ({}r x {}c x {}o)",
            db_rows, cfg.regions, cfg.customers_per_region, cfg.orders_per_customer
        ),
        db_rows,
        eval_mem_ms,
        eval_indexed_ms,
        scan_rows_scanned,
        indexed_rows_scanned,
        index_lookups,
    }
}

/// Runs [`scale_bench`] over a configuration family, ascending size.
pub fn scale_sweep(configs: &[ScaleConfig], reps: usize) -> Vec<ScaleBenchRow> {
    configs.iter().map(|c| scale_bench(c, reps)).collect()
}

/// Serializes scale-study rows as a `BENCH_compose.json` array fragment:
/// one object per instance size.
pub fn render_scale_objects(rows: &[ScaleBenchRow]) -> Vec<String> {
    rows.iter()
        .map(|r| {
            format!(
                "  {{\"workload\": \"{}\", \"db_rows\": {}, \"eval_mem_ms\": {:.3}, \
                 \"eval_indexed_ms\": {:.3}, \"scan_rows_scanned\": {}, \
                 \"indexed_rows_scanned\": {}, \"index_lookups\": {}}}",
                r.workload,
                r.db_rows,
                r.eval_mem_ms,
                r.eval_indexed_ms,
                r.scan_rows_scanned,
                r.indexed_rows_scanned,
                r.index_lookups,
            )
        })
        .collect()
}

/// One data point of the streaming-emission study: the same publish
/// delivered by materialize-then-serialize and by
/// [`xvc_view::Session::publish_to`], against an instance whose document
/// grows by adding root-level subtrees of fixed size.
#[derive(Debug, Clone)]
pub struct StreamBenchRow {
    /// Human-readable workload name.
    pub workload: String,
    /// Total database rows.
    pub db_rows: usize,
    /// Serialized document size in bytes.
    pub doc_bytes: u64,
    /// Warm publish + `Document::to_xml` (arena document materialized,
    /// then serialized into a fresh `String`).
    pub emit_materialized_ms: f64,
    /// Warm [`xvc_view::Session::publish_to`] into a byte sink — no
    /// output document.
    pub emit_streamed_ms: f64,
    /// Tracked peak of the materializing path: the arena document's heap
    /// plus the serialized string. Grows linearly with document size.
    pub peak_track_bytes_materialized: u64,
    /// Tracked peak of the streaming path's emission buffers
    /// ([`xvc_view::Streamed::peak_emit_bytes`]): bounded by the largest
    /// root-level subtree, flat as the document grows.
    pub peak_track_bytes_streamed: u64,
    /// Base-table rows one materializing publish scanned
    /// ([`xvc_rel::EvalStats::rows_scanned`]).
    pub rows_scanned_materialized: u64,
    /// Base-table rows one streamed publish scanned. Every root task
    /// shares one scan per batched table, so this grows linearly in
    /// `db_rows` — the study's deterministic counter gate.
    pub rows_scanned_streamed: u64,
}

/// Sizing for the stream study: a ≥10× document-size sweep at fixed
/// subtree size ([`ScaleConfig::regions`] is the only axis that moves).
pub const STREAM_FULL: &[ScaleConfig] = &[
    ScaleConfig {
        regions: 50,
        customers_per_region: 10,
        orders_per_customer: 9,
    },
    ScaleConfig {
        regions: 500,
        customers_per_region: 10,
        orders_per_customer: 9,
    },
];

/// Reduced stream-study sizes for the CI smoke run — still a 10× document
/// sweep, small enough to finish in seconds.
pub const STREAM_SMOKE: &[ScaleConfig] = &[
    ScaleConfig {
        regions: 20,
        customers_per_region: 5,
        orders_per_customer: 4,
    },
    ScaleConfig {
        regions: 200,
        customers_per_region: 5,
        orders_per_customer: 4,
    },
];

/// Publishes one stream-study instance both ways. The streamed bytes are
/// asserted identical to `Document::to_xml()` before either timing loop
/// runs — a benchmark row for divergent output would be meaningless.
pub fn stream_bench(cfg: &ScaleConfig, reps: usize) -> StreamBenchRow {
    let view = all_regions_view();
    let db = needle_database(
        cfg.regions,
        cfg.customers_per_region,
        cfg.orders_per_customer,
    );
    let db_rows = db.total_rows();

    let mut session = Engine::new(&view).session();
    let published = session.publish(&db).expect("publish materialized");
    let reference = published.document.to_xml();
    let peak_track_bytes_materialized =
        (published.document.heap_estimate() + reference.len()) as u64;

    let mut streamed_bytes = Vec::with_capacity(reference.len());
    let streamed = session
        .publish_to(&db, &mut streamed_bytes)
        .expect("publish streamed");
    assert_eq!(
        String::from_utf8(streamed_bytes).expect("utf-8 stream"),
        reference,
        "streamed emission diverged from Document::to_xml() — \
         benchmark would be meaningless"
    );

    let emit_materialized_ms = best_ms(reps, || {
        let xml = session
            .publish(&db)
            .expect("publish materialized")
            .document
            .to_xml();
        std::hint::black_box(xml);
    });
    let emit_streamed_ms = best_ms(reps, || {
        let mut out = Vec::new();
        session.publish_to(&db, &mut out).expect("publish streamed");
        std::hint::black_box(out);
    });

    StreamBenchRow {
        workload: format!(
            "stream {} rows ({}r x {}c x {}o)",
            db_rows, cfg.regions, cfg.customers_per_region, cfg.orders_per_customer
        ),
        db_rows,
        doc_bytes: streamed.bytes_written,
        emit_materialized_ms,
        emit_streamed_ms,
        peak_track_bytes_materialized,
        peak_track_bytes_streamed: streamed.peak_emit_bytes as u64,
        rows_scanned_materialized: published.eval.rows_scanned,
        rows_scanned_streamed: streamed.eval.rows_scanned,
    }
}

/// Runs [`stream_bench`] over a configuration family, ascending size.
pub fn stream_sweep(configs: &[ScaleConfig], reps: usize) -> Vec<StreamBenchRow> {
    configs.iter().map(|c| stream_bench(c, reps)).collect()
}

/// Serializes stream-study rows as a `BENCH_compose.json` array fragment.
pub fn render_stream_objects(rows: &[StreamBenchRow]) -> Vec<String> {
    rows.iter()
        .map(|r| {
            format!(
                "  {{\"workload\": \"{}\", \"db_rows\": {}, \"doc_bytes\": {}, \
                 \"emit_materialized_ms\": {:.3}, \"emit_streamed_ms\": {:.3}, \
                 \"peak_track_bytes_materialized\": {}, \"peak_track_bytes_streamed\": {}, \
                 \"rows_scanned_materialized\": {}, \"rows_scanned_streamed\": {}}}",
                r.workload,
                r.db_rows,
                r.doc_bytes,
                r.emit_materialized_ms,
                r.emit_streamed_ms,
                r.peak_track_bytes_materialized,
                r.peak_track_bytes_streamed,
                r.rows_scanned_materialized,
                r.rows_scanned_streamed,
            )
        })
        .collect()
}

/// Joins pre-rendered JSON objects into the `BENCH_compose.json` array.
pub fn render_json_array(objects: &[String]) -> String {
    let mut out = String::from("[\n");
    out.push_str(&objects.join(",\n"));
    out.push_str("\n]\n");
    out
}

/// Serializes prune-bench rows as the `BENCH_compose.json` artifact: a
/// JSON array, one object per workload.
pub fn render_prune_json(rows: &[PruneBenchRow]) -> String {
    render_json_array(&render_prune_objects(rows))
}

/// Serializes prune-bench rows as `BENCH_compose.json` array fragments,
/// combinable with [`render_scale_objects`] via [`render_json_array`].
pub fn render_prune_objects(rows: &[PruneBenchRow]) -> Vec<String> {
    rows.iter()
        .map(|r| {
            format!(
                "  {{\"workload\": \"{}\", \"tvq_nodes_before\": {}, \"tvq_nodes_after\": {}, \
             \"conjuncts_eliminated\": {}, \"compose_plain_ms\": {:.3}, \
             \"compose_prune_ms\": {:.3}, \"eval_plain_ms\": {:.3}, \"eval_prune_ms\": {:.3}, \
             \"eval_prepared_ms\": {:.3}, \"plan_cache_hit_rate\": {:.3}, \
             \"batches_executed\": {}, \"bindings_per_batch_max\": {}}}",
                r.workload,
                r.tvq_nodes_before,
                r.tvq_nodes_after,
                r.conjuncts_eliminated,
                r.compose_plain_ms,
                r.compose_prune_ms,
                r.eval_plain_ms,
                r.eval_prune_ms,
                r.eval_prepared_ms,
                r.plan_cache_hit_rate,
                r.batches_executed,
                r.bindings_per_batch_max,
            )
        })
        .collect()
}

/// Renders comparison rows as an aligned text table.
pub fn render_comparison_table(title: &str, param_name: &str, rows: &[ComparisonRow]) -> String {
    let mut out = format!("## {title}\n\n");
    out.push_str(&format!(
        "{param_name:>10} | {:>8} | {:>11} | {:>11} | {:>8} | {:>10} | {:>10} | {:>8} | {:>8} | {:>9} | {:>9}\n",
        "db rows",
        "naive ms",
        "composed ms",
        "speedup",
        "naive el",
        "comp el",
        "naive q",
        "comp q",
        "naive rs",
        "comp rs"
    ));
    out.push_str(&"-".repeat(128));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:>10} | {:>8} | {:>11.3} | {:>11.3} | {:>7.2}x | {:>10} | {:>10} | {:>8} | {:>8} | {:>9} | {:>9}\n",
            r.param,
            r.db_rows,
            r.naive_ms,
            r.composed_ms,
            r.speedup(),
            r.naive_elements,
            r.composed_elements,
            r.naive_queries,
            r.composed_queries,
            r.naive_rows_scanned,
            r.composed_rows_scanned,
        ));
    }
    out
}

/// Renders composition-cost rows as an aligned text table.
pub fn render_cost_table(title: &str, param_name: &str, rows: &[ComposeCostRow]) -> String {
    let mut out = format!("## {title}\n\n");
    out.push_str(&format!(
        "{param_name:>10} | {:>6} | {:>6} | {:>9} | {:>10}\n",
        "|v|", "|x|", "tvq nodes", "compose ms"
    ));
    out.push_str(&"-".repeat(52));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:>10} | {:>6} | {:>6} | {:>9} | {:>10.3}\n",
            r.param, r.view_nodes, r.rules, r.tvq_nodes, r.compose_ms,
        ));
    }
    out
}

/// Outcome of one [`differential_fuzz`] run.
#[derive(Debug, Clone, Copy)]
pub struct FuzzSummary {
    /// Random workloads checked (corpora × seeds × generator presets).
    pub workloads: usize,
    /// Workloads whose static per-wave batch bound was finite (and was
    /// therefore checked against the measured maximum).
    pub finite_batch_bounds: usize,
    /// Workloads whose static document bound was finite (and was
    /// therefore checked against the published element count).
    pub finite_document_bounds: usize,
    /// Largest measured binding batch across all workloads.
    pub max_batch_seen: usize,
}

/// The CI differential gate over the recursion-heavy and wide-fanout
/// generators, on two corpora: Figure 1's view, and a view every key
/// reaches ([`crate::workload::keyed_hotel_view`]), whose document bound
/// is finite. For every corpus, seed and preset, `v'(I)` must equal
/// `x(v(I))`, and the measured per-wave batch sizes and published element
/// count must stay within the statically predicted cardinality bounds.
/// Any violation panics with the offending stylesheet.
pub fn differential_fuzz(seeds_per_config: u64) -> FuzzSummary {
    use crate::random_stylesheet::{random_stylesheet, StylesheetConfig};
    use crate::workload::keyed_hotel_view;
    use xvc_view::analyze_view_bounds;

    let db = generate(&WorkloadConfig::scale(1));
    let catalog = db.catalog();
    let mut summary = FuzzSummary {
        workloads: 0,
        finite_batch_bounds: 0,
        finite_document_bounds: 0,
        max_batch_seen: 0,
    };
    for (corpus, view) in [
        ("figure1", figure1_view()),
        ("keyed_hotel", keyed_hotel_view()),
    ] {
        let full = Engine::new(&view)
            .session()
            .publish(&db)
            .expect("publish v")
            .document;
        for (preset, cfg) in [
            ("recursion_heavy", StylesheetConfig::recursion_heavy()),
            ("wide_fanout", StylesheetConfig::wide_fanout()),
        ] {
            let name = format!("{corpus} {preset}");
            for seed in 0..seeds_per_config {
                let stylesheet = random_stylesheet(&view, &catalog, seed, cfg);
                let composed = Composer::new(&view, &stylesheet, &catalog)
                    .run()
                    .unwrap_or_else(|e| {
                        panic!("{name} seed {seed}: compose: {e}\n{}", stylesheet.to_xslt())
                    })
                    .view;
                let expected = process(&stylesheet, &full).expect("engine");
                let published = Engine::new(&composed)
                    .session()
                    .publish(&db)
                    .expect("publish v'");
                assert!(
                    documents_equal_unordered(&expected, &published.document),
                    "{name} seed {seed}: v'(I) != x(v(I))\n{}",
                    stylesheet.to_xslt()
                );
                let bounds = analyze_view_bounds(&composed, &catalog);
                summary.workloads += 1;
                summary.max_batch_seen = summary
                    .max_batch_seen
                    .max(published.stats.bindings_per_batch_max);
                if let Some(limit) = bounds.max_batch.as_limit() {
                    summary.finite_batch_bounds += 1;
                    assert!(
                        published.stats.bindings_per_batch_max as u64 <= limit,
                        "{name} seed {seed}: measured batch {} exceeds static bound {limit}\n{}",
                        published.stats.bindings_per_batch_max,
                        stylesheet.to_xslt()
                    );
                }
                if let Some(limit) = bounds.document.as_limit() {
                    summary.finite_document_bounds += 1;
                    assert!(
                        published.stats.elements as u64 <= limit,
                        "{name} seed {seed}: {} elements exceed static document bound {limit}\n{}",
                        published.stats.elements,
                        stylesheet.to_xslt()
                    );
                }
            }
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_small_scales_favor_composition() {
        let rows = e1_scale_sweep(&[1, 2], 1);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            // The composed view materializes strictly fewer elements (the
            // paper's core claim: no unnecessary nodes).
            assert!(
                r.composed_elements < r.naive_elements,
                "composed {} !< naive {}",
                r.composed_elements,
                r.naive_elements
            );
            assert!(r.db_rows > 0);
            // The engine counters flow through: both strategies scan rows.
            assert!(r.naive_rows_scanned > 0);
            assert!(r.composed_rows_scanned > 0);
        }
        // Bigger instance ⇒ more naive elements.
        assert!(rows[1].naive_elements > rows[0].naive_elements);
    }

    #[test]
    fn c1_chain_costs_grow_polynomially() {
        let rows = c1_chain_sweep(&[2, 4, 8], 1);
        assert_eq!(rows[0].tvq_nodes, 1 + 2);
        assert_eq!(rows[2].tvq_nodes, 1 + 8);
    }

    #[test]
    fn c2_fan_grows_exponentially() {
        let rows = c2_fan_sweep(4, &[1, 2, 3], 1);
        // Σ fan^k for k in 0..4 (+1 for the entry node).
        assert_eq!(rows[0].tvq_nodes, 1 + 4);
        assert_eq!(rows[1].tvq_nodes, 1 + 15);
        assert_eq!(rows[2].tvq_nodes, 1 + 40);
    }

    #[test]
    fn batch_bench_engages_set_oriented_execution() {
        let r = batch_bench(4, 3, 1);
        // The batched publisher ran, and at least one wave joined more
        // than one parent binding in a single plan execution.
        assert!(r.batches_executed > 0, "{r:?}");
        assert!(r.bindings_per_batch_max >= 3, "{r:?}");
        assert!(r.eval_prepared_ms > 0.0);
        let json = render_prune_json(&[r]);
        assert!(json.contains("\"eval_prepared_ms\""));
        assert!(json.contains("\"bindings_per_batch_max\""));
    }

    #[test]
    fn incr_bench_absorbs_a_single_row_delta() {
        // incr_bench itself asserts byte equality and a strict batch win.
        let r = incr_bench(5, 3, 1);
        assert_eq!(r.delta_rows_in, 1);
        assert!(r.batches_delta < r.batches_full, "{r:?}");
        assert!(r.nodes_respliced > 0, "{r:?}");
        assert!(r.reexecution_fraction() < 1.0, "{r:?}");
        let json = render_json_array(&render_incr_objects(std::slice::from_ref(&r)));
        assert!(json.contains("\"eval_full_republish_ms\""));
        assert!(json.contains("\"eval_delta_ms\""));
        println!("{r:?}");
    }

    #[test]
    fn scale_bench_verifies_access_paths_and_counts_index_work() {
        let cfg = ScaleConfig {
            regions: 8,
            customers_per_region: 6,
            orders_per_customer: 4,
        };
        // scale_bench itself asserts index/scan document equality.
        let r = scale_bench(&cfg, 1);
        assert_eq!(r.db_rows, cfg.total_rows());
        assert!(r.index_lookups > 0, "{r:?}");
        assert!(r.indexed_rows_scanned < r.scan_rows_scanned, "{r:?}");
        let json = render_json_array(&render_scale_objects(&[r]));
        assert!(json.contains("\"eval_indexed_ms\""));
    }

    #[test]
    fn tables_render() {
        let rows = e1_scale_sweep(&[1], 1);
        let t = render_comparison_table("E1", "scale", &rows);
        assert!(t.contains("speedup"));
        let rows = c1_chain_sweep(&[2], 1);
        let t = render_cost_table("C1", "depth", &rows);
        assert!(t.contains("tvq nodes"));
    }
}
