//! Engine/Session integration tests: parallel evaluation is
//! deterministic, the shared plan cache warms and invalidates correctly
//! (including under concurrent sessions), no query result outlives a
//! publish to go stale across database mutations, traces pin every
//! element's provenance, streaming matches materializing on every
//! configuration, and mid-flight DDL/DML never yields a stale or torn
//! document.

use std::sync::RwLock;

use xvc_rel::{
    parse_query, BinOp, ColumnDef, ColumnType, Database, IndexKind, NamedTuple, ParamEnv,
    ScalarExpr, TableSchema, Value,
};
use xvc_view::{AttrProjection, Engine, PublishStats, SchemaTree, ViewNode};
use xvc_xml::documents_equal_unordered;

fn db() -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "metroarea",
            vec![
                ColumnDef::new("metroid", ColumnType::Int),
                ColumnDef::new("metroname", ColumnType::Str),
            ],
        )
        .unwrap(),
    );
    db.create_table(
        TableSchema::new(
            "hotel",
            vec![
                ColumnDef::new("hotelid", ColumnType::Int),
                ColumnDef::new("hotelname", ColumnType::Str),
                ColumnDef::new("starrating", ColumnType::Int),
                ColumnDef::new("metro_id", ColumnType::Int),
            ],
        )
        .unwrap(),
    );
    for (id, name) in [(1, "chicago"), (2, "nyc"), (3, "sf"), (4, "boston")] {
        db.insert("metroarea", vec![Value::Int(id), Value::Str(name.into())])
            .unwrap();
    }
    for (id, name, stars, metro) in [
        (10, "palmer", 5, 1),
        (11, "drake", 4, 1),
        (12, "plaza", 5, 2),
        (13, "fairmont", 4, 3),
        (14, "lenox", 3, 4),
    ] {
        db.insert(
            "hotel",
            vec![
                Value::Int(id),
                Value::Str(name.into()),
                Value::Int(stars),
                Value::Int(metro),
            ],
        )
        .unwrap();
    }
    db
}

/// metro → hotel, parameterized on the metro binding: four root-level
/// sibling subtrees, so `.parallel(4)` actually fans out.
fn view() -> SchemaTree {
    let mut t = SchemaTree::new();
    let metro = t
        .add_root_node(ViewNode::new(
            1,
            "metro",
            "m",
            parse_query("SELECT metroid, metroname FROM metroarea").unwrap(),
        ))
        .unwrap();
    t.add_child(
        metro,
        ViewNode::new(
            2,
            "hotel",
            "h",
            parse_query("SELECT hotelname, starrating FROM hotel WHERE metro_id = $m.metroid")
                .unwrap(),
        ),
    )
    .unwrap();
    t
}

#[test]
fn parallel_publish_is_deterministic() {
    let v = view();
    let db = db();
    let sequential = Engine::new(&v).session().publish(&db).unwrap();
    for n in [2, 4, 8] {
        let parallel = Engine::new(&v).parallel(n).session().publish(&db).unwrap();
        // Not just an unordered match: document order is pinned too.
        assert_eq!(
            parallel.document.to_pretty_xml(),
            sequential.document.to_pretty_xml(),
            "document order changed at parallel({n})"
        );
        assert!(documents_equal_unordered(
            &parallel.document,
            &sequential.document
        ));
        // Per-task counters merge deterministically, so every statistic —
        // publish and eval alike — is independent of the thread count.
        assert_eq!(parallel.stats, sequential.stats, "stats at parallel({n})");
        assert_eq!(
            parallel.eval, sequential.eval,
            "eval stats at parallel({n})"
        );
    }
}

#[test]
fn plan_cache_warms_on_second_publish() {
    let v = view();
    let db = db();
    let engine = Engine::new(&v);

    let cold = engine.session().publish(&db).unwrap();
    // Two tag queries (metro, hotel), no guards: two compilations, no hits.
    assert_eq!(cold.stats.plans_prepared, 2);
    assert_eq!(cold.stats.plan_cache_hits, 0);
    assert_eq!(cold.stats.plan_cache_hit_rate(), 0.0);

    // The cache lives on the engine, so even a *fresh* session is warm.
    let warm = engine.session().publish(&db).unwrap();
    assert_eq!(warm.stats.plans_prepared, 0);
    assert_eq!(warm.stats.plan_cache_hits, 2);
    assert_eq!(warm.stats.plan_cache_hit_rate(), 1.0);
    assert!(documents_equal_unordered(&warm.document, &cold.document));

    // Engine totals aggregate across sessions without double counting.
    let totals = engine.totals();
    assert_eq!(totals.publishes, 2);
    assert_eq!(totals.stats.plans_prepared, 2);
    assert_eq!(totals.stats.plan_cache_hits, 2);
}

#[test]
fn catalog_change_invalidates_plan_cache() {
    let v = view();
    let mut db = db();
    let engine = Engine::new(&v);
    engine.session().publish(&db).unwrap();

    // A new table changes the catalog, so every cached plan is dropped.
    db.create_table(TableSchema::new("extra", vec![ColumnDef::new("x", ColumnType::Int)]).unwrap());
    let after = engine.session().publish(&db).unwrap();
    assert_eq!(after.stats.plans_prepared, 2);
    assert_eq!(after.stats.plan_cache_hits, 0);
}

#[test]
fn database_mutations_between_publishes_are_observed() {
    let v = view();
    let mut db = db();
    let engine = Engine::new(&v);

    let before = engine.session().publish(&db).unwrap();
    db.insert(
        "hotel",
        vec![
            Value::Int(15),
            Value::Str("ritz".into()),
            Value::Int(5),
            Value::Int(2),
        ],
    )
    .unwrap();
    let after = engine.session().publish(&db).unwrap();

    // Same catalog ⇒ plans were reused — but no result is cached across
    // publishes, so the new row must show up (a cross-call result cache
    // would hand back the stale nyc subtree here).
    assert_eq!(after.stats.plan_cache_hits, 2);
    assert_eq!(after.stats.elements, before.stats.elements + 1);
    assert!(after.document.to_pretty_xml().contains("ritz"));
    assert!(!before.document.to_pretty_xml().contains("ritz"));
}

/// `$m` bound to one `metroarea` row, as a hotel's tag query sees it.
fn metro_env(id: i64, name: &str) -> ParamEnv {
    ParamEnv::from([(
        "m".to_owned(),
        NamedTuple {
            columns: vec!["metroid".into(), "metroname".into()],
            values: vec![Value::Int(id), Value::Str(name.into())],
        },
    )])
}

#[test]
fn batched_trace_pins_every_path_view_and_binding() {
    let v = view();
    let db = db();
    let (metro, hotel) = (
        v.find_by_paper_id(1).unwrap(),
        v.find_by_paper_id(2).unwrap(),
    );
    let expected = [
        ("/metro[1]", metro, ParamEnv::new()),
        ("/metro[1]/hotel[1]", hotel, metro_env(1, "chicago")),
        ("/metro[1]/hotel[2]", hotel, metro_env(1, "chicago")),
        ("/metro[2]", metro, ParamEnv::new()),
        ("/metro[2]/hotel[1]", hotel, metro_env(2, "nyc")),
        ("/metro[3]", metro, ParamEnv::new()),
        ("/metro[3]/hotel[1]", hotel, metro_env(3, "sf")),
        ("/metro[4]", metro, ParamEnv::new()),
        ("/metro[4]/hotel[1]", hotel, metro_env(4, "boston")),
    ];
    for threads in [1, 4] {
        let p = Engine::new(&v)
            .traced(true)
            .parallel(threads)
            .session()
            .publish(&db)
            .unwrap();
        let trace = p.trace.unwrap();
        assert_eq!(trace.entries.len(), expected.len());
        for (e, (path, view, env)) in trace.entries.iter().zip(&expected) {
            assert_eq!(e.path, *path, "trace paths at parallel({threads})");
            assert_eq!(e.view, *view, "{path} at parallel({threads})");
            assert_eq!(e.env, *env, "{path} at parallel({threads})");
        }
        // The hotel level of each metro task runs as a batch.
        assert!(p.stats.batches_executed > 0);
        assert_eq!(p.stats.rows_regrouped, 5); // one row per hotel
    }
}

#[test]
fn context_copy_rebinding_resolves_through_the_environment() {
    // metro ($m) -> metro_copy (copies $m, rebinds it as $mc) ->
    // only_chicago, guarded on $mc: the guard reads the copy's binding,
    // which shares the metro's tuple.
    let mut v = SchemaTree::new();
    let metro = v
        .add_root_node(ViewNode::new(
            1,
            "metro",
            "m",
            parse_query("SELECT metroid, metroname FROM metroarea").unwrap(),
        ))
        .unwrap();
    let mut copy = ViewNode::literal(2, "metro_copy");
    copy.context_tuple_of = Some("m".into());
    copy.bv = "mc".into();
    copy.attrs = AttrProjection::All;
    let copy = v.add_child(metro, copy).unwrap();
    let mut guarded = ViewNode::literal(3, "only_chicago");
    guarded.guard = Some(ScalarExpr::binary(
        BinOp::Eq,
        ScalarExpr::param("mc", "metroname"),
        ScalarExpr::str("chicago"),
    ));
    v.add_child(copy, guarded).unwrap();
    let db = db();
    let metros = [(1, "chicago"), (2, "nyc"), (3, "sf"), (4, "boston")];
    let expected: String = metros
        .iter()
        .map(|&(id, name)| {
            let attrs = format!("metroid=\"{id}\" metroname=\"{name}\"");
            let inner = if name == "chicago" {
                format!("<metro_copy {attrs}><only_chicago/></metro_copy>")
            } else {
                format!("<metro_copy {attrs}/>")
            };
            format!("<metro {attrs}>{inner}</metro>")
        })
        .collect();
    for threads in [1, 4] {
        let p = Engine::new(&v)
            .traced(true)
            .parallel(threads)
            .session()
            .publish(&db)
            .unwrap();
        assert_eq!(p.document.to_xml(), expected, "parallel({threads})");
        // The metro query and one guard probe per copy; 4 + 4 + 1 elements.
        assert_eq!(p.stats.queries_run, 5, "parallel({threads})");
        assert_eq!(p.stats.elements, 9, "parallel({threads})");
        let trace = p.trace.unwrap();
        let entry = trace
            .lookup("/metro[1]/metro_copy[1]/only_chicago[1]")
            .unwrap();
        let mut vars: Vec<&str> = entry.env.keys().map(String::as_str).collect();
        vars.sort_unstable();
        assert_eq!(vars, ["m", "mc"], "parallel({threads})");
        assert_eq!(entry.env["m"], entry.env["mc"]);
        assert_eq!(entry.env["m"], metro_env(1, "chicago")["m"]);
        for (i, &(id, name)) in metros.iter().enumerate() {
            let entry = trace
                .lookup(&format!("/metro[{}]/metro_copy[1]", i + 1))
                .unwrap();
            assert_eq!(entry.env, metro_env(id, name), "parallel({threads})");
        }
    }
}

#[test]
fn tracing_is_identical_under_parallelism() {
    let v = view();
    let db = db();
    let seq = Engine::new(&v).traced(true).session().publish(&db).unwrap();
    let par = Engine::new(&v)
        .traced(true)
        .parallel(4)
        .session()
        .publish(&db)
        .unwrap();
    let (st, pt) = (seq.trace.unwrap(), par.trace.unwrap());
    assert_eq!(st.entries.len(), pt.entries.len());
    for (a, b) in st.entries.iter().zip(pt.entries.iter()) {
        assert_eq!(a.path, b.path);
        assert_eq!(a.view, b.view);
        assert_eq!(a.env, b.env);
    }
}

#[test]
fn concurrent_sessions_never_double_count_plan_lookups() {
    const THREADS: usize = 8;
    let v = view();
    let db = db();
    let engine = Engine::new(&v);

    // Cold stampede: 8 sessions race an empty cache. Exactly one session
    // compiles the 2 plans (under the write lock, start to finish); every
    // other session observes a complete cache and counts pure hits.
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let engine = engine.clone();
            let db = &db;
            s.spawn(move || engine.session().publish(db).unwrap());
        }
    });
    let cold = engine.totals();
    assert_eq!(cold.publishes, THREADS);
    assert_eq!(cold.stats.plans_prepared, 2, "{:?}", cold.stats);
    assert_eq!(
        cold.stats.plan_cache_hits,
        2 * (THREADS - 1),
        "{:?}",
        cold.stats
    );

    // Warm engine under 8 threads: the aggregate hit rate must be exactly
    // 1.0 — any double-counted preparation or missed hit would distort it.
    let warm_stats: Vec<PublishStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let engine = engine.clone();
                let db = &db;
                s.spawn(move || {
                    let mut session = engine.session();
                    session.publish(db).unwrap();
                    session.publish(db).unwrap();
                    *session.stats()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut agg = PublishStats::default();
    for s in &warm_stats {
        assert_eq!(s.plans_prepared, 0, "warm session compiled: {s:?}");
        assert_eq!(s.plan_cache_hits, 4, "2 lookups × 2 publishes: {s:?}");
        agg.absorb(s);
    }
    assert_eq!(agg.plan_cache_hit_rate(), 1.0);
}

#[test]
fn concurrent_publishes_are_byte_identical_to_single_shot() {
    const THREADS: usize = 8;
    let v = view();
    let db = db();
    let expected = Engine::new(&v).session().publish(&db).unwrap();
    let expected_xml = expected.document.to_xml();

    let engine = Engine::new(&v).parallel(2);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let engine = engine.clone();
            let (db, expected_xml) = (&db, &expected_xml);
            s.spawn(move || {
                for _ in 0..5 {
                    let p = engine.session().publish(db).unwrap();
                    assert_eq!(&p.document.to_xml(), expected_xml, "thread {t} diverged");
                }
            });
        }
    });
    assert_eq!(engine.totals().publishes, THREADS * 5);
}

#[test]
fn mid_flight_ddl_and_dml_invalidate_without_stale_documents() {
    const THREADS: usize = 4;
    let v = view();
    let engine = Engine::new(&v);
    let mut post = db();
    let db = RwLock::new(db());

    // The two legitimate states a publish may observe: before and after
    // the writer's mutation batch.
    let before_xml = engine
        .session()
        .publish(&db.read().unwrap())
        .unwrap()
        .document
        .to_xml();
    post.create_index("hotel", "metro_id", IndexKind::Hash)
        .unwrap();
    post.execute_dml("INSERT INTO hotel VALUES (15, 'ritz', 5, 2)")
        .unwrap();
    let after_xml = Engine::new(&v)
        .session()
        .publish(&post)
        .unwrap()
        .document
        .to_xml();

    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let engine = engine.clone();
            let (db, before_xml, after_xml) = (&db, &before_xml, &after_xml);
            s.spawn(move || {
                for _ in 0..20 {
                    let guard = db.read().unwrap();
                    let xml = engine.session().publish(&guard).unwrap().document.to_xml();
                    assert!(
                        xml == *before_xml || xml == *after_xml,
                        "stale or torn document: {xml}"
                    );
                }
            });
        }
        // Mid-flight writer: CREATE INDEX changes the catalog fingerprint
        // (plans recompile), the INSERT changes data only (plans reused).
        let mut guard = db.write().unwrap();
        guard
            .create_index("hotel", "metro_id", IndexKind::Hash)
            .unwrap();
        guard
            .execute_dml("INSERT INTO hotel VALUES (15, 'ritz', 5, 2)")
            .unwrap();
        drop(guard);
    });

    // After the dust settles the engine serves the post-mutation document
    // from a cache warmed for the *new* catalog (the first publish warms
    // it in case every racing reader finished before the writer landed).
    engine.session().publish(&db.read().unwrap()).unwrap();
    let settled = engine.session().publish(&db.read().unwrap()).unwrap();
    assert_eq!(settled.document.to_xml(), after_xml);
    assert_eq!(settled.stats.plans_prepared, 0);
    assert_eq!(settled.stats.plan_cache_hit_rate(), 1.0);
}

#[test]
fn streamed_publish_is_byte_identical_to_materialized() {
    let v = view();
    let db = db();
    let engine = Engine::new(&v);
    let published = engine.session().publish(&db).unwrap();

    let mut compact = Vec::new();
    let streamed = engine.session().publish_to(&db, &mut compact).unwrap();
    assert_eq!(
        String::from_utf8(compact).unwrap(),
        published.document.to_xml()
    );
    assert_eq!(
        streamed.bytes_written as usize,
        published.document.to_xml().len()
    );
    // Same walk, same counters: only the element store differs.
    assert_eq!(streamed.stats.elements, published.stats.elements);
    assert_eq!(streamed.stats.attributes, published.stats.attributes);
    assert_eq!(
        streamed.stats.batches_executed,
        published.stats.batches_executed
    );
    assert_eq!(streamed.eval, published.eval);
    assert!(streamed.peak_emit_bytes > 0);

    let mut pretty = Vec::new();
    engine
        .session()
        .publish_pretty_to(&db, &mut pretty)
        .unwrap();
    assert_eq!(
        String::from_utf8(pretty).unwrap(),
        published.document.to_pretty_xml()
    );
}

#[test]
fn traced_engine_streams_like_an_untraced_one() {
    let db = db();
    let mut plain_out = Vec::new();
    let plain = Engine::new(&view())
        .session()
        .publish_to(&db, &mut plain_out)
        .unwrap();
    let mut traced_out = Vec::new();
    let traced = Engine::new(&view())
        .traced(true)
        .session()
        .publish_to(&db, &mut traced_out)
        .unwrap();
    // The same streamed walk: same bytes, counters and emission peak (no
    // materialized document behind the traced one).
    assert_eq!(traced_out, plain_out);
    assert_eq!(traced.stats, plain.stats);
    assert_eq!(traced.eval, plain.eval);
    assert_eq!(traced.peak_emit_bytes, plain.peak_emit_bytes);
    assert_eq!(traced.bytes_written, plain.bytes_written);
}

/// An `io::Write` that accepts `left` bytes, then fails every write.
struct FailAfter {
    left: usize,
}

impl std::io::Write for FailAfter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.left == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "sink closed",
            ));
        }
        let n = buf.len().min(self.left);
        self.left -= n;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn mid_stream_write_error_surfaces_and_leaves_cache_usable() {
    let v = view();
    let db = db();
    let engine = Engine::new(&v);
    engine.session().publish(&db).unwrap(); // warm the plan cache

    let err = engine
        .session()
        .publish_to(&db, FailAfter { left: 10 })
        .unwrap_err();
    match err {
        xvc_view::Error::Io { kind, .. } => {
            assert_eq!(kind, std::io::ErrorKind::BrokenPipe);
        }
        other => panic!("expected Error::Io, got {other:?}"),
    }

    // The failed stream must not poison the plan cache: a subsequent
    // publish sees pure hits and the expected document.
    let after = engine.session().publish(&db).unwrap();
    assert_eq!(after.stats.plans_prepared, 0);
    assert_eq!(after.stats.plan_cache_hit_rate(), 1.0);
    let mut out = Vec::new();
    engine.session().publish_to(&db, &mut out).unwrap();
    assert_eq!(String::from_utf8(out).unwrap(), after.document.to_xml());
}
