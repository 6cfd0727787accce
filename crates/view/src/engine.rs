//! The publishing engine: an owned, `Send + Sync` handle over a schema
//! tree whose compiled state outlives any single publish.
//!
//! [`Engine`] is the long-lived half of the publishing API: it owns the
//! [`SchemaTree`], its compilation for the last catalog a publish saw, and
//! aggregate counters across every publish it has served. The compilation
//! is built once per [`xvc_rel::Database::catalog_fingerprint`]: the tree
//! is validated, every tag query and guard probe is prepared, and every
//! per-node fact a publish reads (binding variable, root-level ancestor,
//! element names, the delta's narrowing slots) is resolved. It is then
//! immutable and shared through an `Arc`: a publish holds the `Arc`, not a
//! lock, so a catalog change installs a new compilation while in-flight
//! publishes finish on the old one. Cloning an `Engine` is cheap (`Arc`
//! internally) and every clone shares the same compilation and totals, so
//! a server can hand one engine to N worker threads.
//!
//! [`Session`] is the short-lived half: a cheap per-request handle created
//! by [`Engine::session`] that carries per-publish trace state and a
//! private statistics accumulator. Concurrent sessions publish through the
//! same compilation without re-compiling — and without double-counting
//! `plans_prepared` vs `plan_cache_hits`: a compilation is built (its
//! plans counted as prepared) by exactly one session; every other session
//! counts one hit per plan, so the aggregate
//! [`PublishStats::plan_cache_hit_rate`] of warm traffic is exactly 1.0
//! at any thread count.
//!
//! ```no_run
//! # use xvc_view::{Engine, SchemaTree};
//! # use xvc_rel::Database;
//! # fn demo(tree: &SchemaTree, db: &Database) -> xvc_view::Result<()> {
//! let engine = Engine::new(tree).parallel(4);
//! let mut session = engine.session();
//! let first = session.publish(db)?; // compiles the view for db's catalog
//! let again = engine.session().publish(db)?; // every plan from that compilation
//! assert!(again.stats.plan_cache_hit_rate() > 0.99);
//! # Ok(()) }
//! ```

use std::io;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use xvc_rel::{Database, Delta, EvalStats};
use xvc_xml::{PrettyXmlWriter, XmlWriter};

use crate::error::Result;
use crate::publish::{
    Compiled, PublishConfig, PublishStats, Published, Run, Segmented, SpliceIndex,
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
    /// The tree's compilation for the last catalog fingerprint a publish
    /// saw; `None` until the first publish compiles it.
    compiled: RwLock<Option<Arc<Compiled>>>,
    totals: Mutex<EngineTotals>,
}

/// An owned, `Send + Sync` publishing engine: schema tree + its shared
/// compilation + aggregate statistics. See the module docs.
///
/// Configure with the builder methods immediately after [`Engine::new`]
/// (each returns `Self`); then create per-request [`Session`]s with
/// [`Engine::session`]. Clones share the compilation and totals.
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
                compiled: RwLock::new(None),
                totals: Mutex::new(EngineTotals::default()),
            }),
        }
    }

    /// Rebuilds the engine with `f` applied to its configuration. On an
    /// unshared engine (the builder chain right after [`Engine::new`])
    /// this is a move; on a shared one it builds a new engine, with no
    /// compilation and zero totals, and leaves the clones that share the
    /// old one as they were.
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
    ///
    /// The pool serves [`Session::publish`], [`Session::publish_segments`]
    /// (the server's start-up and `/ddl`) and the root-level re-runs of a
    /// delta ([`Session::republish_segments`]). The streamed
    /// [`Session::publish_to`] and [`Session::publish_pretty_to`], and so
    /// every `GET /publish`, write in document order and run their tasks
    /// one at a time whatever `n` is.
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

    /// Hands `f` a [`Run`] over the tree's compilation for `db`'s
    /// catalog, with the plan-cache counters the lookup counted. `f` holds
    /// the compilation's `Arc` and no lock.
    fn with_run<T>(
        &self,
        db: &Database,
        f: impl FnOnce(&Run<'_>, PublishStats) -> Result<T>,
    ) -> Result<T> {
        let mut stats = PublishStats::default();
        let compiled = self.compiled(db, &mut stats)?;
        let run = Run {
            tree: &self.shared.tree,
            compiled: &compiled,
            cfg: &self.shared.cfg,
        };
        f(&run, stats)
    }

    /// The tree's compilation for `db`'s catalog fingerprint, built on a
    /// miss ([`Compiled::build`]); an invalid tree fails the build, which
    /// is not kept, so every publish raises the validation error.
    ///
    /// Counting discipline: a lookup that finds the compilation counts
    /// one `plan_cache_hits` per plan it holds. A miss takes the write
    /// lock and looks again; the one session that still misses builds the
    /// compilation (counting `plans_prepared` / `plan_prepare_failures`)
    /// and installs it, and a session that lost the write race counts
    /// hits. No path counts the same lookup twice.
    fn compiled(&self, db: &Database, stats: &mut PublishStats) -> Result<Arc<Compiled>> {
        let slot = &self.shared.compiled;
        let fingerprint = db.catalog_fingerprint();
        let current = |c: &Option<Arc<Compiled>>, stats: &mut PublishStats| {
            let c = c.as_ref().filter(|c| c.fingerprint == fingerprint)?;
            stats.plan_cache_hits += c.plans;
            Some(Arc::clone(c))
        };
        if let Some(c) = current(&slot.read().unwrap_or_else(PoisonError::into_inner), stats) {
            return Ok(c);
        }
        let mut slot = slot.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(c) = current(&slot, stats) {
            return Ok(c);
        }
        let c = Arc::new(Compiled::build(&self.shared.tree, db, fingerprint, stats)?);
        *slot = Some(Arc::clone(&c));
        Ok(c)
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

/// A per-request publishing handle: shares its [`Engine`]'s compilation and
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
    /// The compilation an earlier publish through the same engine built
    /// is reused when the database's catalog fingerprint is unchanged — an
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
    /// write; engine state (compilation, totals) is unaffected and the
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
    /// node's compiled tag and guard plans whether they read a changed table
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
    ///
    /// `prev` holds name ids and narrowing slots of the compilation it was
    /// built under. When `db`'s catalog has changed since (another
    /// compilation), the call republishes every segment in full and
    /// reports `batches_reexecuted == batches_executed`.
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
