//! The publishing engine: an owned, `Send + Sync` handle over a schema
//! tree whose compiled state outlives any single publish.
//!
//! [`Engine`] is the long-lived half of the publishing API: it owns the
//! [`SchemaTree`], the prepared-plan cache (shared behind an `RwLock`,
//! invalidated by [`xvc_rel::Database::catalog_fingerprint`] changes), and
//! aggregate counters across every publish it has served. Cloning an
//! `Engine` is cheap (`Arc` internally) and every clone shares the same
//! cache and totals, so a server can hand one engine to N worker threads.
//!
//! [`Session`] is the short-lived half: a cheap per-request handle created
//! by [`Engine::session`] that carries per-publish trace state and a
//! private statistics accumulator. Concurrent sessions publish through the
//! same warm plan cache without re-compiling — and without double-counting
//! `plans_prepared` vs `plan_cache_hits`: a plan is compiled (and counted
//! as prepared) by exactly one session; every other session observes a
//! complete cache and counts pure hits, so the aggregate
//! [`PublishStats::plan_cache_hit_rate`] of warm traffic is exactly 1.0
//! at any thread count.
//!
//! ```no_run
//! # use xvc_view::{Engine, SchemaTree};
//! # use xvc_rel::Database;
//! # fn demo(tree: &SchemaTree, db: &Database) -> xvc_view::Result<()> {
//! let engine = Engine::new(tree).parallel(4);
//! let mut session = engine.session();
//! let first = session.publish(db)?; // compiles and caches the plans
//! let again = engine.session().publish(db)?; // every plan cache-served
//! assert!(again.stats.plan_cache_hit_rate() > 0.99);
//! # Ok(()) }
//! ```

use std::io;
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard};

use xvc_rel::{prepare, Catalog, Database, Delta, EvalStats};
use xvc_xml::{PrettyXmlWriter, XmlWriter};

use crate::error::Result;
use crate::publish::{
    guard_probe, PlanCache, PlanKey, PublishConfig, PublishStats, Published, Role, Run, Segmented,
    SpliceIndex,
};
use crate::schema_tree::SchemaTree;

/// Aggregate counters across every publish an [`Engine`] has served, for
/// all sessions combined. The merge is the same deterministic
/// [`PublishStats::absorb`] the parallel publisher uses per subtree, so
/// the hit rate of the aggregate is the hit rate of the traffic — a
/// session that compiled nothing contributes only hits, the one session
/// that compiled contributes the preparations, and nothing is counted
/// twice.
#[derive(Debug, Clone, Default)]
pub struct EngineTotals {
    /// Full publishes served ([`Session::publish`],
    /// [`Session::publish_to`], [`Session::publish_pretty_to`],
    /// [`Session::publish_segments`]).
    pub publishes: usize,
    /// Delta republishes served ([`Session::republish_segments`] and
    /// [`Session::republish_delta`], including a `republish_delta` whose
    /// previous result carried no splice index and so republished from
    /// scratch).
    pub delta_publishes: usize,
    /// Summed materialization counters across all of the above.
    pub stats: PublishStats,
    /// Summed relational-engine work across all of the above.
    pub eval: EvalStats,
}

/// The shared core every clone of an [`Engine`] points at.
#[derive(Debug)]
struct EngineShared {
    tree: SchemaTree,
    cfg: PublishConfig,
    cache: RwLock<PlanCache>,
    totals: Mutex<EngineTotals>,
}

/// An owned, `Send + Sync` publishing engine: schema tree + shared
/// prepared-plan cache + aggregate statistics. See the module docs.
///
/// Configure with the builder methods immediately after [`Engine::new`]
/// (each returns `Self`); then create per-request [`Session`]s with
/// [`Engine::session`]. Clones share the cache and totals.
#[derive(Debug)]
pub struct Engine {
    shared: Arc<EngineShared>,
}

impl Clone for Engine {
    fn clone(&self) -> Self {
        Engine {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl Engine {
    /// An engine for `tree` (cloned into the engine so it owns its whole
    /// world): untraced, single-threaded, not incremental. Every publish
    /// runs the same set-oriented walk over prepared plans; a node whose
    /// query fails to prepare raises that error when it runs.
    pub fn new(tree: &SchemaTree) -> Self {
        let cfg = PublishConfig {
            tracing: false,
            parallel: 1,
            incremental: false,
        };
        Self::from_parts(tree.clone(), cfg)
    }

    fn from_parts(tree: SchemaTree, cfg: PublishConfig) -> Self {
        Engine {
            shared: Arc::new(EngineShared {
                tree,
                cfg,
                cache: RwLock::new(PlanCache::default()),
                totals: Mutex::new(EngineTotals::default()),
            }),
        }
    }

    /// Rebuilds the engine with `f` applied to its configuration. On an
    /// unshared engine (the builder chain right after [`Engine::new`])
    /// this is a move; on a shared one it builds a new engine, with an
    /// empty plan cache and zero totals, and leaves the clones that share
    /// the old one as they were.
    fn reconfig(self, f: impl FnOnce(&mut PublishConfig)) -> Self {
        match Arc::try_unwrap(self.shared) {
            Ok(shared) => {
                let mut cfg = shared.cfg;
                f(&mut cfg);
                Self::from_parts(shared.tree, cfg)
            }
            Err(shared) => {
                let mut cfg = shared.cfg.clone();
                f(&mut cfg);
                Self::from_parts(shared.tree.clone(), cfg)
            }
        }
    }

    /// Record per-element provenance ([`Published::trace`]).
    pub fn traced(self, on: bool) -> Self {
        self.reconfig(|c| c.tracing = on)
    }

    /// Evaluate up to `n` root-level sibling subtrees concurrently within
    /// one publish. `0` and `1` both mean sequential. Document order and
    /// all statistics are independent of `n`.
    pub fn parallel(self, n: usize) -> Self {
        self.reconfig(|c| c.parallel = n.max(1))
    }

    /// Record the per-root-task splice index ([`Published::splice`]) on
    /// full publishes so results can seed [`Session::republish_delta`].
    /// [`Session::publish_segments`] records it whatever this is set to.
    pub fn incremental(self, on: bool) -> Self {
        self.reconfig(|c| c.incremental = on)
    }

    /// The schema tree this engine publishes.
    pub fn tree(&self) -> &SchemaTree {
        &self.shared.tree
    }

    /// A new per-request session. Sessions are cheap: a clone of the
    /// engine handle plus empty statistics accumulators.
    pub fn session(&self) -> Session {
        Session {
            engine: self.clone(),
            stats: PublishStats::default(),
            eval: EvalStats::default(),
            publishes: 0,
        }
    }

    /// Snapshot of the aggregate counters across all sessions so far.
    pub fn totals(&self) -> EngineTotals {
        self.shared
            .totals
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Validates the tree, ensures the plan cache is current for `db`'s
    /// catalog, and hands `f` a [`Run`] over the cached plans, with the
    /// plan-cache counters the lookup accumulated. `f` runs under the
    /// cache's read lock.
    fn with_run<T>(
        &self,
        db: &Database,
        f: impl FnOnce(&Run<'_>, PublishStats) -> Result<T>,
    ) -> Result<T> {
        let shared = &self.shared;
        shared.tree.validate()?;
        let mut stats = PublishStats::default();
        let cache = self.ensure_plans(db, &mut stats);
        let run = Run {
            tree: &shared.tree,
            plans: &cache.plans,
            cfg: &shared.cfg,
        };
        f(&run, stats)
    }

    /// Validates the shared cache against `db`'s catalog fingerprint,
    /// compiles anything missing, and returns a read guard the publish
    /// runs under (writers — i.e. invalidations — wait until in-flight
    /// publishes finish).
    ///
    /// Counting discipline: a session that finds the cache complete for
    /// this fingerprint counts one `plan_cache_hits` per needed plan and
    /// compiles nothing. A session that finds it incomplete takes the
    /// write lock and compiles what is missing (counting `plans_prepared`
    /// / `plan_prepare_failures`, or hits for entries another session got
    /// to first); losers of the write race re-observe a complete cache and
    /// count pure hits. No path counts the same lookup twice.
    fn ensure_plans(
        &self,
        db: &Database,
        stats: &mut PublishStats,
    ) -> RwLockReadGuard<'_, PlanCache> {
        let shared = &self.shared;
        let fingerprint = db.catalog_fingerprint();
        // One plan per tag query plus one per emission-guard probe.
        let needed: usize = shared
            .tree
            .node_ids()
            .iter()
            .filter_map(|&vid| shared.tree.node(vid))
            .map(|n| usize::from(n.query.is_some()) + usize::from(n.guard.is_some()))
            .sum();
        let mut counted = false;
        loop {
            {
                let cache = shared.cache.read().unwrap_or_else(PoisonError::into_inner);
                if cache.fingerprint == Some(fingerprint) && cache.complete {
                    if !counted {
                        stats.plan_cache_hits += needed;
                    }
                    return cache;
                }
            }
            let mut cache = shared.cache.write().unwrap_or_else(PoisonError::into_inner);
            if !(cache.fingerprint == Some(fingerprint) && cache.complete) {
                if cache.fingerprint != Some(fingerprint) {
                    cache.plans.clear();
                    cache.complete = false;
                    cache.fingerprint = Some(fingerprint);
                }
                // Built lazily, only if some node actually needs
                // compiling; on a cache filled by a racing session the
                // catalog is not materialized at all.
                let mut catalog: Option<Catalog> = None;
                for vid in shared.tree.node_ids() {
                    let node = shared.tree.node(vid).expect("non-root id");
                    let key = |role| (vid.index() as u32, role);
                    if let Some(q) = &node.query {
                        ensure_plan(&mut cache, key(Role::Tag), q, db, &mut catalog, stats);
                    }
                    if let Some(g) = &node.guard {
                        let probe = guard_probe(g);
                        ensure_plan(
                            &mut cache,
                            key(Role::Guard),
                            &probe,
                            db,
                            &mut catalog,
                            stats,
                        );
                    }
                }
                cache.complete = true;
                counted = true;
            }
            // Downgrade: drop the write lock and re-enter through the read
            // path (re-counting is suppressed once this session has
            // accounted for its lookups).
            drop(cache);
        }
    }
}

/// What one streaming publish produced ([`Session::publish_to`]): the
/// statistics a materializing publish would report plus the write-side
/// counters — and no document. The serialized bytes went straight to the
/// caller's `io::Write`.
#[derive(Debug, Clone)]
pub struct Streamed {
    /// Materialization counters; equal to [`Published::stats`] for the
    /// same database (the walk is identical, only what happens to each
    /// finished root task differs).
    pub stats: PublishStats,
    /// Relational-engine work across every tag-query / guard evaluation.
    pub eval: EvalStats,
    /// Serialized bytes written to the sink.
    pub bytes_written: u64,
    /// High-water mark of the emission buffers (the retained heap of the
    /// one skeleton every root task grows in before it is written out).
    /// This is the number the `figures -- stream` study shows staying flat
    /// in document size.
    pub peak_emit_bytes: usize,
}

/// Counts bytes flowing through to the wrapped writer.
struct CountingWriter<W> {
    inner: W,
    bytes: u64,
}

impl<W: io::Write> io::Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A per-request publishing handle: shares its [`Engine`]'s plan cache and
/// rolls every publish into both its own accumulator and the engine
/// totals. Create with [`Engine::session`].
#[derive(Debug)]
pub struct Session {
    engine: Engine,
    stats: PublishStats,
    eval: EvalStats,
    publishes: usize,
}

impl Session {
    /// The engine this session publishes through.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Summed [`PublishStats`] across this session's publishes.
    pub fn stats(&self) -> &PublishStats {
        &self.stats
    }

    /// Summed relational-engine work across this session's publishes.
    pub fn eval(&self) -> &EvalStats {
        &self.eval
    }

    /// Publishes this session has served (full + delta).
    pub fn publishes(&self) -> usize {
        self.publishes
    }

    /// Evaluates the engine's schema tree against `db`, producing `v(I)`
    /// plus statistics (and a trace when the engine is `traced`).
    ///
    /// Plans cached by any earlier publish through the same engine are
    /// reused when the database's catalog fingerprint is unchanged — an
    /// `O(1)` check instead of rebuilding and comparing the whole
    /// catalog. No query result is cached across calls, so database
    /// mutations between calls are always observed.
    pub fn publish(&mut self, db: &Database) -> Result<Published> {
        let published = self.engine.with_run(db, |run, stats| run.full(db, stats))?;
        self.record(&published.stats, &published.eval, false);
        Ok(published)
    }

    /// Streams `v(I)` as compact serialized XML straight into `out`,
    /// without materializing an output document: each root-level subtree
    /// is expanded by the same breadth-first batch walk as
    /// [`Session::publish`] into a small reusable skeleton and serialized
    /// out as soon as it completes, so peak emission memory is bounded by
    /// the largest root-level subtree instead of the document. The bytes
    /// are identical to `publish(db)?.document.to_xml()` (proptest-gated
    /// across backends and workload presets), and so are the counters,
    /// whatever the engine's configuration: a traced engine streams too
    /// (the trace is not part of the output).
    ///
    /// A sink failure surfaces as [`crate::Error::Io`] after a truncated
    /// write; engine state (plan cache, totals) is unaffected and the
    /// session remains usable.
    pub fn publish_to<W: io::Write>(&mut self, db: &Database, out: W) -> Result<Streamed> {
        self.stream_publish(db, out, false)
    }

    /// [`Session::publish_to`] with two-space-indented output, byte-equal
    /// to `publish(db)?.document.to_pretty_xml()`. Pretty layout needs
    /// per-element lookahead, so this buffers one top-level element at a
    /// time ([`xvc_xml::PrettyXmlWriter`]) — still bounded by the largest
    /// root-level subtree, not the document.
    pub fn publish_pretty_to<W: io::Write>(&mut self, db: &Database, out: W) -> Result<Streamed> {
        self.stream_publish(db, out, true)
    }

    fn stream_publish<W: io::Write>(
        &mut self,
        db: &Database,
        out: W,
        pretty: bool,
    ) -> Result<Streamed> {
        let mut counter = CountingWriter {
            inner: out,
            bytes: 0,
        };
        let result = if pretty {
            let mut sink = PrettyXmlWriter::new(&mut counter);
            self.engine
                .with_run(db, |run, stats| run.stream(db, stats, &mut sink))
        } else {
            let mut sink = XmlWriter::new(&mut counter);
            self.engine
                .with_run(db, |run, stats| run.stream(db, stats, &mut sink))
        };
        let (stats, eval, peak_emit_bytes) = result?;
        let streamed = Streamed {
            stats,
            eval,
            bytes_written: counter.bytes,
            peak_emit_bytes,
        };
        self.record(&streamed.stats, &streamed.eval, false);
        Ok(streamed)
    }

    /// Publishes `v(I)` as per-root-task segments: the same walk as
    /// [`Session::publish`], with every root task kept as its own
    /// skeleton and serialized segment ([`SpliceIndex`]) and no merged
    /// document or whole-document serialization. The concatenated
    /// segments ([`SpliceIndex::xml`]) are byte-equal to
    /// `publish(db)?.document.to_xml()`, and the result seeds
    /// [`Session::republish_segments`] whatever the engine's
    /// configuration.
    pub fn publish_segments(&mut self, db: &Database) -> Result<Segmented> {
        let segmented = self
            .engine
            .with_run(db, |run, stats| run.segments(db, stats))?;
        self.record(&segmented.stats, &segmented.eval, false);
        Ok(segmented)
    }

    /// Absorbs `delta` into the per-root-task state `prev` (from
    /// [`Session::publish_segments`] or an earlier call): asks each view
    /// node's cached tag and guard plans whether they read a changed table
    /// ([`xvc_rel::PreparedPlan::reads`]) and re-executes only the
    /// *top-most* affected view nodes — under just the parent instances a
    /// changed row keys into when the node's tag plan ties the changed
    /// table to a binding attribute ([`xvc_rel::RowKey`]), else under every
    /// instance — one batch per (view node, wave) across all of them at
    /// once. Only the
    /// root tasks holding a re-run parent are rebuilt and re-serialized;
    /// every other task entry is shared (`Arc`) with `prev`. An affected
    /// root-level node replaces just its own run of root tasks.
    ///
    /// `db` must be the *post*-delta database. The concatenated segments
    /// are byte-identical to a full republish against `db` (asserted
    /// across random workloads by the delta-publish property tests), and
    /// deltas chain.
    pub fn republish_segments(
        &mut self,
        db: &Database,
        prev: &SpliceIndex,
        delta: &Delta,
    ) -> Result<Segmented> {
        let segmented = self
            .engine
            .with_run(db, |run, stats| run.delta(db, prev, delta, stats))?;
        self.record(&segmented.stats, &segmented.eval, true);
        Ok(segmented)
    }

    /// [`Session::republish_segments`] over a [`Published`] result that
    /// also assembles the merged document, so the result is a drop-in
    /// replacement for a full republish. `db` must be the *post*-delta
    /// database.
    ///
    /// `prev` must come from an `incremental` engine (so it carries a
    /// [`SpliceIndex`]); otherwise the call falls back to a full
    /// [`Session::publish`] and reports
    /// `batches_reexecuted == batches_executed`.
    ///
    /// The result is byte-identical to a full republish against `db` and
    /// carries a current splice index, so deltas chain.
    pub fn republish_delta(
        &mut self,
        db: &Database,
        prev: &Published,
        delta: &Delta,
    ) -> Result<Published> {
        match &prev.splice {
            Some(splice) => {
                let seg = self.republish_segments(db, splice, delta)?;
                Ok(Published {
                    document: seg.splice.document(),
                    stats: seg.stats,
                    eval: seg.eval,
                    trace: None,
                    splice: Some(seg.splice),
                    reexecuted: seg.reexecuted,
                })
            }
            None => {
                let mut p = self.engine.with_run(db, |run, stats| run.full(db, stats))?;
                p.stats.batches_reexecuted = p.stats.batches_executed;
                p.stats.delta_rows_in = delta.row_count();
                p.reexecuted = self.engine.shared.tree.node_ids();
                self.record(&p.stats, &p.eval, true);
                Ok(p)
            }
        }
    }

    fn record(&mut self, stats: &PublishStats, eval: &EvalStats, delta: bool) {
        self.stats.absorb(stats);
        self.eval.absorb(eval);
        self.publishes += 1;
        let mut totals = self
            .engine
            .shared
            .totals
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        totals.stats.absorb(stats);
        totals.eval.absorb(eval);
        if delta {
            totals.delta_publishes += 1;
        } else {
            totals.publishes += 1;
        }
    }
}

/// Compiles `q` into the cache under `key` unless already present.
/// The catalog is built on the first vacant entry of a cache fill. A
/// compilation failure is not fatal: the entry keeps the error, which the
/// node raises if it ever runs (a node under no parent instance publishes
/// nothing and never does). The failure is cached too — otherwise every
/// publish would retry the doomed compilation and report the retry as a
/// cache miss, deflating [`PublishStats::plan_cache_hit_rate`].
fn ensure_plan(
    cache: &mut PlanCache,
    key: PlanKey,
    q: &xvc_rel::SelectQuery,
    db: &Database,
    catalog: &mut Option<Catalog>,
    stats: &mut PublishStats,
) {
    match cache.plans.entry(key) {
        std::collections::hash_map::Entry::Occupied(_) => stats.plan_cache_hits += 1,
        std::collections::hash_map::Entry::Vacant(e) => {
            let catalog = catalog.get_or_insert_with(|| db.catalog());
            let entry = e.insert(prepare(q, catalog).map(Box::new));
            if entry.is_ok() {
                stats.plans_prepared += 1;
            } else {
                stats.plan_prepare_failures += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_and_session_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
        assert_send_sync::<Session>();
        assert_send_sync::<EngineTotals>();
    }
}
