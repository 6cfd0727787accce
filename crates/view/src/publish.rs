//! Publishing: evaluating a schema-tree query to an XML document, `v(I)`.
//!
//! The public entry point is [`crate::Engine`] / [`crate::Session`] (see
//! the `engine` module); this module holds the execution machinery those
//! drive: the **plan-cache** types (each node's tag query compiled once
//! into an [`xvc_rel::PreparedPlan`]) and the one publish walk — a
//! breadth-first frontier walk running one
//! [`xvc_rel::PreparedPlan::execute_batch_shared`] per (view node,
//! frontier) instead of one execution per parent tuple, with each plan's
//! binding-free scan shared by all root tasks of a publish. Every root
//! task grows in a `Skeleton`, the one element store, which also records
//! each element's view node and child environment; the entry points differ
//! only in what they do with a finished skeleton: stream it into a writer,
//! emit it into a [`TreeBuilder`] for the document, keep it for delta
//! splicing, or read a trace off it. Parent tuples with equal relevant
//! binding values share one engine execution inside their batch (the
//! batch groups bindings by slot values). Around the walk sit **parallel**
//! root-task evaluation (`std::thread::scope`) that keeps document order
//! and thread-count-independent statistics, and the **delta-republish**
//! graft.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use xvc_rel::{
    eval_query_stats, BatchResult, Bindings, Database, Delta, EvalOptions, EvalStats, JoinKey,
    NamedTuple, ParamEnv, PreparedPlan, Relation, ScalarExpr, SelectItem, SelectQuery, SharedScan,
    Value,
};
use xvc_xml::{Document, TreeBuilder, XmlSink, XmlWriter};

use crate::error::Result;
use crate::schema_tree::{AttrProjection, SchemaTree, ViewNodeId};

/// Materialization statistics for one publish run.
///
/// These are the paper's efficiency currency: the composed stylesheet view
/// wins precisely because it materializes fewer elements and runs fewer
/// tag queries than publishing the full view and transforming it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishStats {
    /// XML elements created.
    pub elements: usize,
    /// Attributes attached.
    pub attributes: usize,
    /// Tag-query executions (one per parent tuple per child node).
    pub queries_run: usize,
    /// Tuples fetched across all tag-query executions.
    pub tuples_fetched: usize,
    /// Tag queries / guard probes compiled into a [`PreparedPlan`] during
    /// this publish (plan-cache misses).
    pub plans_prepared: usize,
    /// Nodes whose plan was already in the publisher's cache from an
    /// earlier publish against the same catalog (plan-cache hits).
    /// Negatively cached compilation failures count here too: the cache
    /// answered ("this query does not prepare") without recompiling.
    pub plan_cache_hits: usize,
    /// Tag queries / guard probes that failed to compile this publish.
    /// The failure is cached, so a given node fails at most once per
    /// catalog; the node falls back to the interpreter.
    pub plan_prepare_failures: usize,
    /// Set-oriented executions: one per (view node, frontier) with at
    /// least one binding and a prepared plan.
    pub batches_executed: usize,
    /// Largest number of bindings any single batch carried, duplicates
    /// included (merged with `max`, not `+`, across subtree tasks).
    pub bindings_per_batch_max: usize,
    /// Rows returned by batched executions and regrouped back to their
    /// parent bindings. Every parent binding counts its rows, including
    /// a duplicate binding that shared another binding's execution.
    pub rows_regrouped: usize,
    /// Subtree roots spliced into the previous document's root tasks by
    /// a delta republish ([`crate::Session::republish_delta`],
    /// [`crate::Session::republish_segments`]). Zero on full publishes.
    pub nodes_respliced: usize,
    /// Batches a delta republish re-executed (equals `batches_executed`
    /// when [`crate::Session::republish_delta`] had to fall back to a full
    /// republish). Zero on full publishes.
    pub batches_reexecuted: usize,
    /// Rows in the [`xvc_rel::Delta`] a delta republish consumed. Zero on
    /// full publishes.
    pub delta_rows_in: usize,
}

impl PublishStats {
    /// Adds `other`'s counters into `self` (used to merge per-subtree
    /// statistics deterministically).
    pub fn absorb(&mut self, other: &PublishStats) {
        self.elements += other.elements;
        self.attributes += other.attributes;
        self.queries_run += other.queries_run;
        self.tuples_fetched += other.tuples_fetched;
        self.plans_prepared += other.plans_prepared;
        self.plan_cache_hits += other.plan_cache_hits;
        self.plan_prepare_failures += other.plan_prepare_failures;
        self.batches_executed += other.batches_executed;
        self.bindings_per_batch_max = self
            .bindings_per_batch_max
            .max(other.bindings_per_batch_max);
        self.rows_regrouped += other.rows_regrouped;
        self.nodes_respliced += other.nodes_respliced;
        self.batches_reexecuted += other.batches_reexecuted;
        self.delta_rows_in += other.delta_rows_in;
    }

    /// Fraction of plan lookups served by the cache:
    /// `hits / (hits + prepared)`, or `0.0` when no plans were looked up.
    pub fn plan_cache_hit_rate(&self) -> f64 {
        let total = self.plan_cache_hits + self.plans_prepared;
        if total == 0 {
            0.0
        } else {
            self.plan_cache_hits as f64 / total as f64
        }
    }
}

/// One emitted element, recorded when publishing with a trace: which view
/// node produced it, at which document path, under which bindings.
///
/// This is the attribution layer the divergence reporter uses — given the
/// XML path of a wrong subtree it recovers the tag query and [`ParamEnv`]
/// that generated it. The walk itself binds through shared frames; the
/// owned `ParamEnv` is built for the trace only.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// Indexed element path, e.g. `/metro[2]/hotel[1]` (indices count
    /// same-tag siblings in document order, 1-based).
    pub path: String,
    /// The schema-tree node that emitted the element.
    pub view: ViewNodeId,
    /// The parameter environment its tag query (or guard) ran under.
    pub env: ParamEnv,
}

/// Per-element provenance of one publish run, in document order.
#[derive(Debug, Clone, Default)]
pub struct PublishTrace {
    /// One entry per emitted element, in document order.
    pub entries: Vec<TraceEntry>,
}

impl PublishTrace {
    /// Finds the entry for an exact indexed path.
    pub fn lookup(&self, path: &str) -> Option<&TraceEntry> {
        self.entries.iter().find(|e| e.path == path)
    }

    /// Finds the entry for the longest recorded prefix of `path` (the
    /// deepest emitted ancestor of a node that was never produced).
    pub fn deepest_ancestor(&self, path: &str) -> Option<&TraceEntry> {
        self.entries
            .iter()
            .filter(|e| path == e.path || path.starts_with(&format!("{}/", e.path)))
            .max_by_key(|e| e.path.len())
    }
}

/// One root task of a published document: the element subtree of one
/// root-level instance, kept as its own skeleton so a delta can rebuild,
/// re-serialize and swap it without touching any other task.
#[derive(Debug)]
pub struct SpliceTask {
    /// The root-level view node the task instantiates.
    view: ViewNodeId,
    /// The task's elements with their splice provenance (its synthetic
    /// root holds the task's element).
    skel: Skeleton,
    /// `(slot, key)` for every value a narrowing slot ([`NarrowSlot`])
    /// takes in the child environment of an element of the slot's parent
    /// view node: a delta finds the tasks holding a narrowed parent
    /// without walking their skeletons.
    keys: HashSet<(usize, JoinKey)>,
    /// The skeleton, serialized.
    xml: String,
}

impl SpliceTask {
    fn new(view: ViewNodeId, skel: Skeleton, slots: &[NarrowSlot]) -> SpliceTask {
        let mut keys = HashSet::new();
        for id in skel.elements() {
            let Some(env) = skel.child_env(id) else {
                continue;
            };
            let parent = skel.view(id);
            for (i, (_, (var, attr))) in slots.iter().enumerate().filter(|(_, (p, _))| *p == parent)
            {
                if let Some(k) = env.value(var, attr).ok().and_then(JoinKey::of) {
                    keys.insert((i, k));
                }
            }
        }
        let xml = skel.to_xml();
        SpliceTask {
            view,
            skel,
            keys,
            xml,
        }
    }
}

/// The per-root-task state of a publish, in document order — what
/// [`crate::Session::republish_delta`] patches through. A delta rebuilds
/// only the tasks holding a re-executed parent and shares every other
/// entry (`Arc`) with the previous index. Recorded by
/// [`crate::Session::publish_segments`], and by [`crate::Session::publish`]
/// when [`crate::Engine::incremental`] is on.
#[derive(Debug, Clone, Default)]
pub struct SpliceIndex {
    tasks: Vec<Arc<SpliceTask>>,
    /// The narrowing slots task keys are recorded for, sorted.
    slots: Arc<[NarrowSlot]>,
}

impl SpliceIndex {
    /// One entry per root task, in document order.
    pub fn tasks(&self) -> &[Arc<SpliceTask>] {
        &self.tasks
    }

    /// The serialized document: every task's segment, concatenated
    /// (byte-equal to the merged document's `to_xml()`).
    pub fn xml(&self) -> String {
        let mut out = String::with_capacity(self.tasks.iter().map(|t| t.xml.len()).sum());
        for t in &self.tasks {
            out.push_str(&t.xml);
        }
        out
    }

    /// The merged document: every task skeleton emitted in order.
    pub(crate) fn document(&self) -> Document {
        let mut builder = TreeBuilder::new();
        for t in &self.tasks {
            t.skel
                .emit(&mut builder)
                .expect("building a document cannot fail");
        }
        builder.finish()
    }
}

/// What a segment publish produced ([`crate::Session::publish_segments`],
/// [`crate::Session::republish_segments`]): the per-root-task state and
/// serialized bytes of `v(I)`, and no merged document.
#[derive(Debug)]
pub struct Segmented {
    /// The per-root-task state, each task carrying its serialized segment.
    pub splice: SpliceIndex,
    /// Materialization counters (delta counters on a republish).
    pub stats: PublishStats,
    /// Relational-engine work across every evaluation of the run.
    pub eval: EvalStats,
    /// View nodes whose guard / tag batches a delta republish re-executed;
    /// empty on a full segment publish.
    pub reexecuted: Vec<ViewNodeId>,
}

/// Everything one publish run produced.
#[derive(Debug)]
pub struct Published {
    /// The XML document `v(I)`.
    pub document: Document,
    /// Materialization counters (elements, queries, cache behavior).
    pub stats: PublishStats,
    /// Relational-engine work accumulated across every tag-query / guard
    /// evaluation of the run.
    pub eval: EvalStats,
    /// Per-element provenance; `Some` only when tracing was requested via
    /// [`crate::Engine::traced`].
    pub trace: Option<PublishTrace>,
    /// Splice provenance; `Some` only with [`crate::Engine::incremental`]
    /// on (delta republishes keep it current).
    pub splice: Option<SpliceIndex>,
    /// View nodes whose guard / tag batches a delta republish actually
    /// re-executed — the measured set the soundness tests compare against
    /// the static dependency map. Empty on full publishes.
    pub reexecuted: Vec<ViewNodeId>,
}

/// Distinguishes a node's tag query from its emission-guard probe in the
/// plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Role {
    Tag,
    Guard,
}

pub(crate) type PlanKey = (u32, Role);

/// Outcome of one compilation attempt, cached either way: a usable plan,
/// or a remembered failure so the publisher never retries compiling a
/// query the catalog cannot satisfy (it falls back to the interpreter).
#[derive(Debug)]
pub(crate) enum PlanEntry {
    Ready(Box<PreparedPlan>),
    Failed,
}

/// Compiled plans for one schema tree, valid for one catalog. Owned by
/// [`crate::Engine`] behind an `RwLock` and shared by every session.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    /// Fingerprint of the catalog the cached plans were compiled against
    /// ([`Database::catalog_fingerprint`]); a different fingerprint
    /// invalidates every plan without ever materializing an
    /// [`xvc_rel::Catalog`].
    pub(crate) fingerprint: Option<u64>,
    /// Whether every plan the tree needs is present for `fingerprint` —
    /// the flag concurrent sessions key their hit accounting on (a
    /// partially-filled cache is only ever observed under the write
    /// lock).
    pub(crate) complete: bool,
    pub(crate) plans: HashMap<PlanKey, PlanEntry>,
}

/// Publish-path toggles, fixed per [`crate::Engine`] (see the builder
/// methods there for what each flag does).
#[derive(Debug, Clone)]
pub(crate) struct PublishConfig {
    pub(crate) tracing: bool,
    pub(crate) parallel: usize,
    pub(crate) incremental: bool,
}

/// One publish execution: a validated schema tree plus the plan set the
/// engine ensured for the target catalog. [`crate::Session`] builds one
/// per call; each entry point's caller has already validated `tree` and
/// ensured `plans` is current for the database's catalog, and passes in
/// the plan-cache counters it accumulated doing so.
pub(crate) struct Run<'a> {
    pub(crate) tree: &'a SchemaTree,
    pub(crate) plans: &'a HashMap<PlanKey, PlanEntry>,
    pub(crate) cfg: &'a PublishConfig,
}

impl Run<'_> {
    /// Root pass (always sequential): evaluates root-level guards and tag
    /// queries of the root-level nodes `keep` admits, and cuts the document
    /// into one task per root element instance. The decomposition — and
    /// therefore every per-task counter — is independent of the thread
    /// count and of what is done with the finished tasks. Returns the root
    /// queries' counters and engine work, and the tasks in document order.
    fn root_pass(
        &self,
        shared: &Shared<'_>,
        keep: impl Fn(ViewNodeId) -> bool,
    ) -> Result<(PublishStats, EvalStats, Vec<Task>)> {
        let mut stats = PublishStats::default();
        let mut eval = EvalStats::default();
        let mut tasks: Vec<Task> = Vec::new();
        let mut root_counts: HashMap<&str, usize> = HashMap::new();
        for &child in self.tree.children(self.tree.root()) {
            if !keep(child) {
                continue;
            }
            let node = self.tree.node(child).expect("non-root id");
            if let Some(guard) = &node.guard {
                stats.queries_run += 1;
                let probe = guard_probe(guard);
                if shared
                    .run_root_query(child, Role::Guard, &probe, &mut eval)?
                    .is_empty()
                {
                    continue;
                }
            }
            let mut seed = || {
                let n = root_counts.entry(node.tag.as_str()).or_insert(0);
                *n += 1;
                *n - 1
            };
            match &node.query {
                Some(q) if node.context_tuple_of.is_none() => {
                    let rel = shared.run_root_query(child, Role::Tag, q, &mut eval)?;
                    stats.queries_run += 1;
                    stats.tuples_fetched += rel.len();
                    let columns: Arc<[String]> = rel.columns.into();
                    for row in rel.rows {
                        tasks.push(Task {
                            vid: child,
                            index: seed(),
                            tuple: Some((Arc::clone(&columns), row)),
                        });
                    }
                }
                _ => {
                    tasks.push(Task {
                        vid: child,
                        index: seed(),
                        tuple: None,
                    });
                }
            }
        }
        Ok((stats, eval, tasks))
    }

    /// The shared-scan slots of one publish, cut after the root pass: one
    /// per prepared plan below a root-level node that produced two or more
    /// root tasks. All tasks of such a root then probe one binding-free
    /// scan per plan ([`SharedScan`]) instead of each building its own,
    /// which makes a breadth publish scan each batched table once rather
    /// than once per root element. A root with a single task keeps the
    /// per-task path, including the bound-driven scalar demotion. The
    /// decomposition, and so every counter, stays independent of the
    /// thread count.
    fn shared_scans(&self, tasks: &[Task]) -> HashMap<PlanKey, SharedScan> {
        let tree = self.tree;
        let mut tasks_per_root: HashMap<ViewNodeId, usize> = HashMap::new();
        for task in tasks {
            *tasks_per_root.entry(task.vid).or_default() += 1;
        }
        let mut scans = HashMap::new();
        for vid in tree.node_ids() {
            let mut top = vid;
            while let Some(parent) = tree.parent(top).filter(|&p| !tree.is_root(p)) {
                top = parent;
            }
            if top == vid || tasks_per_root.get(&top).copied().unwrap_or(0) < 2 {
                continue;
            }
            for role in [Role::Tag, Role::Guard] {
                let key = (vid.index() as u32, role);
                if let Some(PlanEntry::Ready(_)) = self.plans.get(&key) {
                    scans.insert(key, SharedScan::default());
                }
            }
        }
        scans
    }

    /// The task driver behind every entry point: the root pass, then every
    /// root task it cut (sharing scans across root tasks), each grown in a
    /// skeleton that is handed to `each` in task (= document) order. `each`
    /// may take the skeleton or leave it to be cleared and reused. With
    /// `parallel <= 1` every task is handed over before the next one runs,
    /// so one skeleton serves the whole publish; otherwise tasks run on a
    /// scoped thread pool and are handed over once all have finished.
    /// Counters are summed into `stats`; returns the engine work and the
    /// view nodes whose guard / tag batches the tasks issued.
    fn drive(
        &self,
        db: &Database,
        keep: impl Fn(ViewNodeId) -> bool,
        parallel: usize,
        stats: &mut PublishStats,
        mut each: impl FnMut(&Task, &mut Skeleton) -> Result<()>,
    ) -> Result<(EvalStats, BTreeSet<usize>)> {
        let shared = Shared::new(self.tree, db, self.plans);
        let (root_stats, mut eval, tasks) = self.root_pass(&shared, keep)?;
        stats.absorb(&root_stats);
        let scans = self.shared_scans(&tasks);
        let shared = Shared {
            scans: Some(&scans),
            ..shared
        };

        let n = parallel.clamp(1, tasks.len().max(1));
        // `finished` holds the skeletons of tasks that ran on the pool; a
        // sequential run hands each one over as it completes instead.
        let (workers, finished) = if n == 1 {
            let mut w = BatchWorker::new(&shared);
            for task in &tasks {
                w.run_task(task)?;
                each(task, &mut w.skel)?;
            }
            (vec![w], Vec::new())
        } else {
            let slots: Vec<Mutex<Option<Result<Skeleton>>>> =
                tasks.iter().map(|_| Mutex::new(None)).collect();
            let next = AtomicUsize::new(0);
            let workers = std::thread::scope(|s| {
                let handles: Vec<_> = (0..n)
                    .map(|_| {
                        s.spawn(|| {
                            let mut w = BatchWorker::new(&shared);
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some(task) = tasks.get(i) else { break w };
                                let out = w.run_task(task).map(|()| std::mem::take(&mut w.skel));
                                *slots[i].lock().expect("a task slot is never poisoned") =
                                    Some(out);
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("publish task thread panicked"))
                    .collect()
            });
            let finished: Vec<Result<Skeleton>> = slots
                .into_iter()
                .map(|m| {
                    m.into_inner()
                        .expect("a task slot is never poisoned")
                        .expect("every task slot is filled")
                })
                .collect();
            (workers, finished)
        };
        let mut touched = BTreeSet::new();
        for w in workers {
            stats.absorb(&w.stats);
            eval.absorb(&w.eval);
            touched.extend(w.touched);
        }
        // The hand-over below reads only finished skeletons: release the
        // scans first.
        drop(scans);
        for (task, skel) in tasks.iter().zip(finished) {
            each(task, &mut skel?)?;
        }
        Ok((eval, touched))
    }

    /// The narrowing slots of this tree: for every prepared tag plan of a
    /// node below the root level, its parent view node and the binding
    /// side of each of its [`xvc_rel::RowKey`]s, deduplicated and sorted.
    fn narrow_slots(&self) -> Arc<[NarrowSlot]> {
        let mut slots = BTreeSet::new();
        for (&(vid, role), entry) in self.plans {
            let parent = self
                .tree
                .parent(ViewNodeId(vid))
                .filter(|&p| !self.tree.is_root(p));
            if let (Role::Tag, PlanEntry::Ready(plan), Some(parent)) = (role, entry, parent) {
                slots.extend(
                    plan.row_keys()
                        .iter()
                        .map(|(_, k)| (parent, k.param.clone())),
                );
            }
        }
        slots.into_iter().collect()
    }

    /// Evaluates the schema tree against `db`, producing `v(I)` plus
    /// statistics: every task skeleton is emitted into one
    /// [`TreeBuilder`], read for the trace when tracing, and kept as a
    /// [`SpliceIndex`] entry when incremental.
    pub(crate) fn full(&self, db: &Database, mut stats: PublishStats) -> Result<Published> {
        let cfg = self.cfg;
        let slots = self.narrow_slots();
        let mut builder = TreeBuilder::new();
        let mut trace = Vec::new();
        let mut spliced = Vec::new();
        let (eval, _) = self.drive(
            db,
            |_| true,
            cfg.parallel,
            &mut stats,
            |task, skel| {
                skel.emit(&mut builder)?;
                if cfg.tracing {
                    skel.trace(task, &mut trace);
                }
                if cfg.incremental {
                    let skel = std::mem::take(skel);
                    spliced.push(Arc::new(SpliceTask::new(task.vid, skel, &slots)));
                }
                Ok(())
            },
        )?;
        Ok(Published {
            document: builder.finish(),
            stats,
            eval,
            trace: cfg.tracing.then_some(PublishTrace { entries: trace }),
            splice: cfg.incremental.then_some(SpliceIndex {
                tasks: spliced,
                slots,
            }),
            reexecuted: Vec::new(),
        })
    }

    /// Every task skeleton kept as its own [`SpliceIndex`] entry and
    /// serialized segment, with no merged document or trace.
    pub(crate) fn segments(&self, db: &Database, mut stats: PublishStats) -> Result<Segmented> {
        let slots = self.narrow_slots();
        let mut tasks = Vec::new();
        let (eval, _) = self.drive(
            db,
            |_| true,
            self.cfg.parallel,
            &mut stats,
            |task, skel| {
                let skel = std::mem::take(skel);
                tasks.push(Arc::new(SpliceTask::new(task.vid, skel, &slots)));
                Ok(())
            },
        )?;
        Ok(Segmented {
            splice: SpliceIndex { tasks, slots },
            stats,
            eval,
            reexecuted: Vec::new(),
        })
    }

    /// Streams `v(I)` into `sink` with no output document: tasks run
    /// sequentially on one reused skeleton, each serialized out before the
    /// next one runs — bytes leave in document order, so there is nothing
    /// to parallelize ahead of the writer. Byte output equals
    /// `full(..).document.to_xml()` through the same [`XmlSink`], and so do
    /// the counters. Returns `(stats, eval, peak_emit_bytes)`, the peak
    /// being the skeleton's high-water mark across tasks (the emission
    /// path's whole retained footprint, bounded by the largest root-level
    /// subtree rather than the document).
    pub(crate) fn stream(
        &self,
        db: &Database,
        mut stats: PublishStats,
        sink: &mut dyn XmlSink,
    ) -> Result<(PublishStats, EvalStats, usize)> {
        let mut peak = 0usize;
        let (eval, _) = self.drive(
            db,
            |_| true,
            1,
            &mut stats,
            |_, skel| {
                peak = peak.max(skel.heap_bytes());
                Ok(skel.emit(&mut *sink)?)
            },
        )?;
        Ok((stats, eval, peak))
    }

    /// Incrementally republishes after a base-table mutation: maps `delta`
    /// through the conservative table → view-node dependency map
    /// ([`crate::TableDeps`]) and re-executes only the *top-most* affected
    /// view nodes, each under just the parent instances a changed row keys
    /// into ([`Run::narrowing`]), or under every instance when it cannot be
    /// narrowed. All re-executions share one frontier — one batch per
    /// (view node, wave) — and each root task holding a re-run parent is
    /// rebuilt from its own skeleton and re-serialized; every other task
    /// entry is shared with `prev`. An affected root-level node replaces
    /// only its own run of root tasks. See
    /// [`crate::Session::republish_delta`] for the full contract.
    pub(crate) fn delta(
        &self,
        db: &Database,
        prev: &SpliceIndex,
        delta: &Delta,
        mut stats: PublishStats,
    ) -> Result<Segmented> {
        stats.delta_rows_in = delta.row_count();
        let tree = self.tree;
        let deps = crate::table_deps::TableDeps::analyze(tree);
        let affected = deps.affected_by(&delta.tables_changed());
        if affected.is_empty() {
            return Ok(Segmented {
                splice: prev.clone(),
                stats,
                eval: EvalStats::default(),
                reexecuted: Vec::new(),
            });
        }

        // Top-most affected nodes: re-executing a node re-executes its
        // whole subtree, so an affected node with an affected proper
        // ancestor is already covered.
        let mut tops_by_parent: HashMap<ViewNodeId, Vec<Top>> = HashMap::new();
        let mut root_tops: BTreeSet<ViewNodeId> = BTreeSet::new();
        for vid in tree.node_ids() {
            if !affected.contains(&vid.index()) {
                continue;
            }
            let parent = tree.parent(vid).expect("node_ids excludes the root");
            if tree.is_root(parent) {
                root_tops.insert(vid);
                continue;
            }
            if ancestors(tree, vid).any(|a| affected.contains(&a.index())) {
                continue;
            }
            let narrow = self.narrowing(vid, &affected, &deps, delta);
            tops_by_parent
                .entry(parent)
                .or_default()
                .push(Top { vid, narrow });
        }

        // The root tasks holding a parent instance some top must re-run
        // under: with keys, only tasks whose recorded keys match a changed
        // row; without, every task of the parent's root-level ancestor.
        let mut walk: BTreeSet<usize> = BTreeSet::new();
        for (&parent, tops) in &tops_by_parent {
            let root = ancestors(tree, parent).last().unwrap_or(parent);
            for (i, task) in prev.tasks.iter().enumerate() {
                if task.view == root && tops.iter().any(|t| t.may_hold(parent, prev, task)) {
                    walk.insert(i);
                }
            }
        }

        // Seed every (selected parent instance, top node) pair into one
        // shared frontier: each pair grows under its own holder node, and
        // the wave loop batches per (view node, wave) across all holders
        // at once.
        let shared = Shared::new(tree, db, self.plans);
        let mut w = BatchWorker::new(&shared);
        w.skel.begin_task();
        let mut patches: HashMap<usize, Patches> = HashMap::new();
        let mut frontier: Vec<Pending> = Vec::new();
        for &i in &walk {
            let skel = &prev.tasks[i].skel;
            for pid in skel.elements() {
                let (Some(tops), Some(env)) =
                    (tops_by_parent.get(&skel.view(pid)), skel.child_env(pid))
                else {
                    continue;
                };
                for top in tops.iter().filter(|t| t.selects(env)) {
                    let holder = w.skel.holder();
                    patches
                        .entry(i)
                        .or_default()
                        .entry(pid)
                        .or_default()
                        .push((top.vid, holder));
                    frontier.push(Pending {
                        parent: holder,
                        vid: top.vid,
                        env: env.clone(),
                    });
                }
            }
        }
        w.expand(frontier)?;

        // Affected root-level nodes: a fresh root pass and task run for
        // just those nodes, exactly as a full publish cuts them.
        let mut fresh: HashMap<ViewNodeId, Vec<Arc<SpliceTask>>> = HashMap::new();
        let mut reexecuted = std::mem::take(&mut w.touched);
        let mut eval = w.eval;
        if !root_tops.is_empty() {
            let (root_eval, touched) = self.drive(
                db,
                |vid| root_tops.contains(&vid),
                self.cfg.parallel,
                &mut stats,
                |task, skel| {
                    let skel = std::mem::take(skel);
                    fresh
                        .entry(task.vid)
                        .or_default()
                        .push(Arc::new(SpliceTask::new(task.vid, skel, &prev.slots)));
                    Ok(())
                },
            )?;
            eval.absorb(&root_eval);
            reexecuted.extend(touched);
            reexecuted.extend(root_tops.iter().map(|v| v.index()));
        }

        // Reassemble the task list in root-level node order: replaced runs
        // for affected root-level nodes, grafted tasks where a parent was
        // re-run, and every other entry shared unchanged.
        let mut tasks = Vec::with_capacity(prev.tasks.len());
        let mut respliced = 0;
        let mut next = 0;
        for &rv in tree.children(tree.root()) {
            let start = next;
            while next < prev.tasks.len() && prev.tasks[next].view == rv {
                next += 1;
            }
            if root_tops.contains(&rv) {
                tasks.extend(fresh.remove(&rv).unwrap_or_default());
                continue;
            }
            for i in start..next {
                let old = &prev.tasks[i];
                let Some(patch) = patches.get_mut(&i) else {
                    tasks.push(Arc::clone(old));
                    continue;
                };
                for list in patch.values_mut() {
                    list.sort_by_key(|(vid, _)| vid.index());
                }
                let (skel, n) = Graft::run(&old.skel, patch, &w.skel);
                respliced += n;
                tasks.push(Arc::new(SpliceTask::new(old.view, skel, &prev.slots)));
            }
        }

        stats.absorb(&w.stats);
        stats.batches_reexecuted = stats.batches_executed;
        stats.nodes_respliced = respliced;
        Ok(Segmented {
            splice: SpliceIndex {
                tasks,
                slots: Arc::clone(&prev.slots),
            },
            stats,
            eval,
            reexecuted: reexecuted
                .into_iter()
                .map(|i| ViewNodeId(i as u32))
                .collect(),
        })
    }

    /// The parent instances top affected node `vid` must re-run under.
    /// `Some(keys)`: only parents whose binding attribute matches a key
    /// in `keys` (per attribute, the [`JoinKey`]s of the changed rows'
    /// keyed column); `None`: every parent instance.
    ///
    /// Narrowing is sound when every changed table the node reads reaches
    /// it only through its prepared tag plan's single scan of that table,
    /// tied to the bindings by a pushed-down `T.col = $v.attr`
    /// ([`xvc_rel::RowKey`]): rows of `T` under any other key never reach
    /// the plan's output, so the node's instances under other parents are
    /// unchanged. It also needs the node's subtree to be otherwise
    /// unaffected — an affected descendant could change under any parent.
    /// Key comparison may over-approximate the parent set, never
    /// under-approximate it.
    fn narrowing(
        &self,
        vid: ViewNodeId,
        affected: &BTreeSet<usize>,
        deps: &crate::table_deps::TableDeps,
        delta: &Delta,
    ) -> Option<NarrowKeys> {
        let tree = self.tree;
        let node = tree.node(vid)?;
        let Some(PlanEntry::Ready(plan)) = self.plans.get(&(vid.index() as u32, Role::Tag)) else {
            return None;
        };
        if descendants(tree, vid).any(|d| affected.contains(&d.index())) {
            return None;
        }
        let mut guard_tables = BTreeSet::new();
        if let Some(g) = &node.guard {
            crate::table_deps::collect_expr_tables(g, &mut guard_tables);
        }
        let read = deps.tables_of(vid)?;
        let mut keys: NarrowKeys = Vec::new();
        for (table, rows) in &delta.tables {
            if rows.row_count() == 0 || !read.contains(table) {
                continue;
            }
            if guard_tables.contains(table) {
                return None;
            }
            let key = plan.row_key(table)?;
            let slot = match keys.iter().position(|(p, _)| *p == key.param) {
                Some(i) => i,
                None => {
                    keys.push((key.param.clone(), HashSet::new()));
                    keys.len() - 1
                }
            };
            let changed = rows.inserted.iter().chain(&rows.deleted);
            keys[slot]
                .1
                .extend(changed.filter_map(|row| JoinKey::of(row.get(key.column)?)));
        }
        Some(keys)
    }
}

/// A binding attribute `(var, attr)` the children of a parent view node
/// can be narrowed by: the binding side of a [`xvc_rel::RowKey`] of one
/// of their tag plans.
type NarrowSlot = (ViewNodeId, (String, String));

/// Per narrowing binding attribute `(var, attr)`, the [`JoinKey`]s of the
/// changed rows' keyed column.
type NarrowKeys = Vec<((String, String), HashSet<JoinKey>)>;

/// Old skeleton parent → `(child view node, holder)` replacements of one
/// root task's graft.
type Patches = HashMap<SkelId, Vec<(ViewNodeId, SkelId)>>;

/// A top-most affected view node below the root level, with the parent
/// instances it re-runs under ([`Run::narrowing`]).
struct Top {
    vid: ViewNodeId,
    narrow: Option<NarrowKeys>,
}

impl Top {
    /// Whether the parent environment `env` is one this node re-runs
    /// under.
    fn selects(&self, env: &Env) -> bool {
        let Some(narrow) = &self.narrow else {
            return true;
        };
        narrow.iter().any(|((var, attr), keys)| {
            env.value(var, attr)
                .ok()
                .and_then(JoinKey::of)
                .is_some_and(|k| keys.contains(&k))
        })
    }

    /// Whether `task` may hold an instance of `parent` this node re-runs
    /// under, judged from the task's recorded keys alone (a binding
    /// attribute `index` records no keys for counts as a possible hit).
    fn may_hold(&self, parent: ViewNodeId, index: &SpliceIndex, task: &SpliceTask) -> bool {
        let Some(narrow) = &self.narrow else {
            return true;
        };
        narrow.iter().any(|(param, keys)| {
            match index
                .slots
                .iter()
                .position(|(p, s)| *p == parent && s == param)
            {
                Some(slot) => keys.iter().any(|k| task.keys.contains(&(slot, k.clone()))),
                None => true,
            }
        })
    }
}

/// Proper ancestors of `vid`, nearest first, stopping below the root.
fn ancestors(tree: &SchemaTree, vid: ViewNodeId) -> impl Iterator<Item = ViewNodeId> + '_ {
    std::iter::successors(tree.parent(vid), |&a| tree.parent(a)).filter(|&a| !tree.is_root(a))
}

/// Proper descendants of `vid`, depth first.
fn descendants(tree: &SchemaTree, vid: ViewNodeId) -> impl Iterator<Item = ViewNodeId> + '_ {
    let mut stack: Vec<ViewNodeId> = tree.children(vid).to_vec();
    std::iter::from_fn(move || {
        let next = stack.pop()?;
        stack.extend(tree.children(next));
        Some(next)
    })
}

/// The `SELECT 1 WHERE guard` probe the publisher evaluates for emission
/// guards.
pub(crate) fn guard_probe(guard: &ScalarExpr) -> SelectQuery {
    let mut probe = SelectQuery::new(vec![SelectItem::expr(ScalarExpr::int(1))], vec![]);
    probe.where_clause = Some(guard.clone());
    probe
}

/// Read-only state shared by every subtree task.
struct Shared<'a> {
    tree: &'a SchemaTree,
    db: &'a Database,
    plans: &'a HashMap<PlanKey, PlanEntry>,
    /// This publish's shared-scan slots ([`Run::shared_scans`]); `None` for
    /// the root pass and for delta republishes.
    scans: Option<&'a HashMap<PlanKey, SharedScan>>,
    /// Every view node's binding variable, by arena index, shared by the
    /// frames that bind it.
    vars: Vec<Arc<str>>,
}

impl<'a> Shared<'a> {
    fn new(tree: &'a SchemaTree, db: &'a Database, plans: &'a HashMap<PlanKey, PlanEntry>) -> Self {
        let vars = (0..=tree.len() as u32)
            .map(|i| {
                tree.node(ViewNodeId(i))
                    .map_or("", |n| n.bv.as_str())
                    .into()
            })
            .collect();
        Shared {
            tree,
            db,
            plans,
            scans: None,
            vars,
        }
    }

    /// Runs one root-level tag query or guard probe. Root-level queries
    /// run once each under no bindings, so they execute scalar: through
    /// the node's prepared plan, or through the interpreter when the plan
    /// failed to prepare.
    fn run_root_query(
        &self,
        vid: ViewNodeId,
        role: Role,
        q: &SelectQuery,
        eval: &mut EvalStats,
    ) -> Result<Relation> {
        let env = ParamEnv::new();
        match self.plans.get(&(vid.index() as u32, role)) {
            Some(PlanEntry::Ready(plan)) => Ok(plan.execute_stats(self.db, &env, eval)?),
            _ => Ok(eval_query_stats(
                self.db,
                q,
                &env,
                EvalOptions::default(),
                eval,
            )?),
        }
    }
}

/// One root-level element instance to publish: a query-node tuple, or a
/// literal / context-copy element.
struct Task {
    vid: ViewNodeId,
    /// 0-based occurrence index of the node's tag among root-level
    /// siblings, for indexed trace paths.
    index: usize,
    /// The root query's columns and the row this element binds; `None`
    /// for a literal / context-copy element.
    tuple: Option<(Arc<[String]>, Vec<Value>)>,
}

/// A binding environment: an `Arc`-linked chain of frames, innermost
/// first, so a child environment costs one frame and shares the rest with
/// its parent's. An inner frame shadows an outer one binding the same
/// variable, as `HashMap::insert` would. `Env(None)` binds nothing. Plans
/// read it through [`Bindings`]; a [`ParamEnv`] is built from it only for
/// a trace entry and for the interpreter fallback.
#[derive(Debug, Clone, Default)]
struct Env(Option<Arc<Frame>>);

/// One binding of an [`Env`]: `$var` bound to one row of a batch.
#[derive(Debug)]
struct Frame {
    var: Arc<str>,
    /// The batch's column list, shared by every frame it binds.
    columns: Arc<[String]>,
    row: Vec<Value>,
    outer: Env,
}

impl Env {
    /// This environment with `var` bound to `row` on top.
    fn bind(&self, var: &Arc<str>, columns: &Arc<[String]>, row: &[Value]) -> Env {
        Env(Some(Arc::new(Frame {
            var: Arc::clone(var),
            columns: Arc::clone(columns),
            row: row.to_vec(),
            outer: self.clone(),
        })))
    }

    /// The frames, innermost first.
    fn frames(&self) -> impl Iterator<Item = &Frame> {
        std::iter::successors(self.0.as_deref(), |f| f.outer.0.as_deref())
    }

    /// The frame that binds `var`.
    fn frame(&self, var: &str) -> Option<&Frame> {
        self.frames().find(|f| &*f.var == var)
    }

    /// The same bindings as an owned [`ParamEnv`].
    fn to_param_env(&self) -> ParamEnv {
        let mut env = ParamEnv::new();
        for f in self.frames() {
            env.entry(f.var.to_string()).or_insert_with(|| NamedTuple {
                columns: f.columns.to_vec(),
                values: f.row.clone(),
            });
        }
        env
    }
}

impl Bindings for Env {
    fn tuple(&self, var: &str) -> Option<(&[String], &[Value])> {
        self.frame(var).map(|f| (&f.columns[..], &f.row[..]))
    }

    fn is_empty(&self) -> bool {
        self.0.is_none()
    }
}

/// One frontier slot: a view node still to expand under `parent` with the
/// bindings accumulated on the path down to it (shared with the parent
/// element's recorded child environment).
struct Pending {
    parent: SkelId,
    vid: ViewNodeId,
    env: Env,
}

/// One batch's rows per binding: a prepared plan's batch, or one
/// interpreted relation per binding for a node whose plan failed to
/// prepare.
enum BatchRows {
    Plan(BatchResult),
    Interpreted(Vec<Relation>),
}

impl BatchRows {
    fn columns(&self) -> &[String] {
        match self {
            BatchRows::Plan(batch) => batch.columns(),
            BatchRows::Interpreted(rels) => rels.first().map_or(&[], |r| &r.columns[..]),
        }
    }

    fn rows_for(&self, binding: usize) -> &[Vec<Value>] {
        match self {
            BatchRows::Plan(batch) => batch.rows_for(binding),
            BatchRows::Interpreted(rels) => &rels[binding].rows,
        }
    }
}

/// Per-task state of the breadth-first walk: the skeleton the task grows
/// in and its counters (task-scoped, so statistics cannot depend on how
/// tasks are spread over threads).
struct BatchWorker<'a> {
    shared: &'a Shared<'a>,
    skel: Skeleton,
    stats: PublishStats,
    eval: EvalStats,
    /// View nodes whose guard / tag batches this worker issued (delta-path
    /// soundness bookkeeping; node arena indexes).
    touched: BTreeSet<usize>,
}

impl<'a> BatchWorker<'a> {
    fn new(shared: &'a Shared<'a>) -> Self {
        BatchWorker {
            shared,
            skel: Skeleton::default(),
            stats: PublishStats::default(),
            eval: EvalStats::default(),
            touched: BTreeSet::new(),
        }
    }

    /// Publishes one root task into the cleared skeleton.
    fn run_task(&mut self, task: &Task) -> Result<()> {
        self.skel.begin_task();
        let mut frontier = Vec::new();
        let root = self.skel.root();
        let tuple = task
            .tuple
            .as_ref()
            .map(|(columns, row)| (columns, &row[..]));
        self.emit_node_instance(root, task.vid, &Env::default(), tuple, &mut frontier);
        self.expand(frontier)
    }

    /// The level-at-a-time engine: expands `frontier` breadth-first to
    /// exhaustion. The frontier holds every `(parent element, view node,
    /// bindings)` still to expand at the current depth, and each (view
    /// node, frontier) pair runs **one** set-oriented tag-query / guard
    /// execution for all its parents at once, with the rows regrouped back
    /// to their parent elements afterwards. Document order is preserved
    /// because a parent's pending view nodes are expanded in schema order
    /// (ascending node id) and each batch returns per-binding rows in the
    /// order one execution per binding would.
    /// [`crate::Session::republish_delta`] seeds it with an arbitrary set
    /// of slots instead of a single task root.
    fn expand(&mut self, mut frontier: Vec<Pending>) -> Result<()> {
        let tree = self.shared.tree;
        while !frontier.is_empty() {
            let mut next: Vec<Pending> = Vec::new();
            // Group the level by view node, in schema (ascending id) order:
            // every parent sees its children appended in schema order, and
            // each group becomes at most one guard batch + one tag batch.
            let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for (i, p) in frontier.iter().enumerate() {
                groups.entry(p.vid.index()).or_default().push(i);
            }
            for (_, mut live) in groups {
                let vid = frontier[live[0]].vid;
                let node = tree.node(vid).expect("frontier holds non-root ids");

                if let Some(guard) = &node.guard {
                    self.touched.insert(vid.index());
                    let probe = guard_probe(guard);
                    let envs: Vec<&Env> = live.iter().map(|&i| &frontier[i].env).collect();
                    self.stats.queries_run += envs.len();
                    let rows = self.run_batch(vid, Role::Guard, &probe, &envs)?;
                    live = live
                        .iter()
                        .enumerate()
                        .filter(|&(b, _)| !rows.rows_for(b).is_empty())
                        .map(|(_, &i)| i)
                        .collect();
                }

                if node.context_tuple_of.is_some() || node.query.is_none() {
                    for &i in &live {
                        let p = &frontier[i];
                        self.emit_node_instance(p.parent, vid, &p.env, None, &mut next);
                    }
                    continue;
                }

                self.touched.insert(vid.index());
                let query = node.query.as_ref().expect("query node");
                let envs: Vec<&Env> = live.iter().map(|&i| &frontier[i].env).collect();
                let rows = self.run_batch(vid, Role::Tag, query, &envs)?;
                let columns: Arc<[String]> = rows.columns().into();
                for (b, &i) in live.iter().enumerate() {
                    let p = &frontier[i];
                    let group = rows.rows_for(b);
                    self.stats.queries_run += 1;
                    self.stats.tuples_fetched += group.len();
                    for row in group {
                        self.emit_node_instance(
                            p.parent,
                            vid,
                            &p.env,
                            Some((&columns, row)),
                            &mut next,
                        );
                    }
                }
            }
            frontier = next;
        }
        Ok(())
    }

    /// Creates one element instance under `parent` — tag, static and
    /// projected tuple attributes, counters, provenance — and queues a
    /// frontier slot per child view node in `next`. The children run under
    /// the element's child environment: `env` plus a frame for the
    /// element's own binding (the query row `tuple`, or the copied context
    /// tuple).
    fn emit_node_instance(
        &mut self,
        parent: SkelId,
        vid: ViewNodeId,
        env: &Env,
        tuple: Option<(&Arc<[String]>, &[Value])>,
        next: &mut Vec<Pending>,
    ) {
        let tree = self.shared.tree;
        let node = tree.node(vid).expect("non-root id");
        let children = tree.children(vid);
        // The tuple the element projects attributes from, and whether its
        // binding variable binds that tuple for the children.
        let (bound, binds) = match &node.context_tuple_of {
            Some(var) => (
                env.frame(var).map(|f| (&f.columns, &f.row[..])),
                !node.bv.is_empty(),
            ),
            None => (tuple, true),
        };
        let child_env = (!children.is_empty()).then(|| match bound {
            Some((columns, row)) if binds => env.bind(&self.shared.vars[vid.index()], columns, row),
            _ => env.clone(),
        });
        let el = self.skel.create_element(&node.tag, vid, child_env.clone());
        self.skel.append_child(parent, el);
        self.stats.elements += 1;
        for (k, v) in &node.static_attrs {
            self.skel.set_attr(el, k, |text| text.push_str(v));
            self.stats.attributes += 1;
        }
        if let Some((columns, row)) = bound {
            for (i, (c, v)) in columns.iter().zip(row).enumerate() {
                let wanted = match &node.attrs {
                    AttrProjection::All => true,
                    AttrProjection::None => false,
                    AttrProjection::Columns(cols) => cols.iter().any(|x| x == c),
                };
                // NULLs are omitted; the first of duplicate columns wins.
                let shadowed = || {
                    columns[..i]
                        .iter()
                        .zip(row)
                        .any(|(d, w)| d == c && !w.is_null())
                };
                if wanted && !v.is_null() && !shadowed() {
                    self.skel.set_attr(el, c, |text| v.render_into(text));
                    self.stats.attributes += 1;
                }
            }
        }
        if let Some(env) = child_env {
            next.extend(children.iter().map(|&c| Pending {
                parent: el,
                vid: c,
                env: env.clone(),
            }));
        }
    }

    /// Executes a node's tag query (or guard probe) for every environment
    /// at once: the rows of each environment, in order. Every environment
    /// goes to one set-oriented execution, which runs the engine once per
    /// distinct binding; duplicates share that binding's rows, read through
    /// the batch by reference. A node whose plan failed to prepare is
    /// interpreted per environment instead, with no batch counters.
    fn run_batch(
        &mut self,
        vid: ViewNodeId,
        role: Role,
        q: &SelectQuery,
        envs: &[&Env],
    ) -> Result<BatchRows> {
        if envs.is_empty() {
            return Ok(BatchRows::Interpreted(Vec::new()));
        }
        let key = (vid.index() as u32, role);
        let Some(PlanEntry::Ready(plan)) = self.shared.plans.get(&key) else {
            let mut rels = Vec::with_capacity(envs.len());
            for env in envs {
                rels.push(eval_query_stats(
                    self.shared.db,
                    q,
                    &env.to_param_env(),
                    EvalOptions::default(),
                    &mut self.eval,
                )?);
            }
            return Ok(BatchRows::Interpreted(rels));
        };
        let batch = plan.execute_batch_shared(
            self.shared.db,
            envs,
            self.shared.scans.and_then(|s| s.get(&key)),
            &mut self.eval,
        )?;
        self.stats.batches_executed += 1;
        self.stats.bindings_per_batch_max = self.stats.bindings_per_batch_max.max(envs.len());
        self.stats.rows_regrouped += batch.total_rows();
        Ok(BatchRows::Plan(batch))
    }
}

/// Rebuilds one root task's skeleton with fresh subtrees grafted in: a
/// positional merge that copies the old skeleton in document order and,
/// at each patched parent, replaces every stale child group (all
/// instances of one view node) with the matching holder's children from
/// the delta walk's skeleton, at the stale group's sibling position.
struct Graft<'g> {
    old: &'g Skeleton,
    /// Old parent → `(child view node, holder)` replacements, sorted by
    /// ascending view-node index (sibling groups appear in that order).
    patches: &'g Patches,
    fresh: &'g Skeleton,
    new: Skeleton,
    respliced: usize,
}

impl Graft<'_> {
    /// The grafted skeleton and the number of subtree roots spliced in.
    fn run(old: &Skeleton, patches: &Patches, fresh: &Skeleton) -> (Skeleton, usize) {
        let mut graft = Graft {
            old,
            patches,
            fresh,
            new: Skeleton::default(),
            respliced: 0,
        };
        graft.new.begin_task();
        graft.copy_children(old.root(), graft.new.root());
        (graft.new, graft.respliced)
    }

    /// Copies `old_parent`'s children under `new_parent`, applying this
    /// parent's patch list (if any): a fresh group replaces the first
    /// stale instance of its view node in place; a group with no stale
    /// instances is inserted before the first sibling of a higher
    /// view-node index (sibling groups are emitted in ascending index
    /// order, so this is the position a full republish would produce).
    fn copy_children(&mut self, old_parent: SkelId, new_parent: SkelId) {
        let (old, patches) = (self.old, self.patches);
        let patch = patches.get(&old_parent).map_or(&[][..], Vec::as_slice);
        let mut pi = 0;
        for c in old.children(old_parent) {
            let cv = old.view(c).index();
            while pi < patch.len() && patch[pi].0.index() <= cv {
                self.graft_holder(patch[pi].1, new_parent);
                pi += 1;
            }
            if patch.iter().any(|(vid, _)| vid.index() == cv) {
                continue;
            }
            let nc = self.new.copy_node(old, c, new_parent);
            self.copy_children(c, nc);
        }
        for &(_, holder) in &patch[pi..] {
            self.graft_holder(holder, new_parent);
        }
    }

    /// Appends a deep copy of every child of a delta-walk holder under
    /// `new_parent`.
    fn graft_holder(&mut self, holder: SkelId, new_parent: SkelId) {
        let fresh = self.fresh;
        for c in fresh.children(holder) {
            self.respliced += 1;
            self.new.copy_subtree(fresh, c, new_parent);
        }
    }
}

/// Sentinel for "no node / no view / no environment" in skeleton links.
const SKEL_NONE: u32 = u32::MAX;

/// Element handle inside a [`Skeleton`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SkelId(u32);

#[derive(Debug, Clone, Copy)]
struct SkelNode {
    /// Interned tag name.
    tag: u32,
    /// Index of the view node that emitted the element.
    view: u32,
    /// The element's child environment is `envs[env]`; `SKEL_NONE` when
    /// its view node has no children, since nothing ever runs under a
    /// leaf.
    env: u32,
    first_child: u32,
    last_child: u32,
    next_sibling: u32,
    /// This element's attributes are `attrs[attr_start..attr_start + attr_len]`
    /// (contiguous: the walk sets every attribute of an element before
    /// creating the next one).
    attr_start: u32,
    attr_len: u32,
}

#[derive(Debug, Clone, Copy)]
struct SkelAttr {
    /// Interned attribute name.
    name: u32,
    /// Value bytes are `text[val_start..val_start + val_len]`.
    val_start: u32,
    val_len: u32,
}

/// The publish walk's element store: one root-level subtree, grown
/// breadth-first and read back in document order. Tag and attribute names
/// are interned (a schema tree has a handful of distinct names, reused
/// across every task); attribute values share one text buffer; child lists
/// are intrusive `u32` links. Each element also records the view node
/// that emitted it and its child environment, a pointer-sized handle on a
/// frame chain ([`Env`]) shared with the element's frontier slots — the
/// splice provenance a delta re-runs children under, and the trace
/// provenance (an element's query ran under its parent's child
/// environment).
/// [`Skeleton::begin_task`] drains everything but keeps the capacity and
/// the name table, so steady-state streaming allocates almost nothing and
/// peak emission memory is bounded by the largest single task, not the
/// document.
#[derive(Debug, Default)]
struct Skeleton {
    /// Interned tag / attribute names (kept across tasks).
    names: Vec<String>,
    name_ids: HashMap<String, u32>,
    nodes: Vec<SkelNode>,
    attrs: Vec<SkelAttr>,
    /// Attribute values, concatenated. Replaced values leak their old
    /// bytes until the next `begin_task` — duplicate attribute names are
    /// rare and tasks are short-lived.
    text: String,
    /// Child environments, shared with the frontier slots they seeded.
    envs: Vec<Env>,
}

impl Skeleton {
    /// Clears per-task state (keeping buffer capacity and interned names)
    /// and re-creates the synthetic task root.
    fn begin_task(&mut self) {
        self.nodes.clear();
        self.attrs.clear();
        self.text.clear();
        self.envs.clear();
        self.push(SKEL_NONE, SKEL_NONE, None);
    }

    /// The synthetic task root (emission serializes its children).
    fn root(&self) -> SkelId {
        debug_assert!(!self.nodes.is_empty(), "begin_task before use");
        SkelId(0)
    }

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("name table fits u32");
        self.names.push(name.to_owned());
        self.name_ids.insert(name.to_owned(), id);
        id
    }

    /// Appends a detached node.
    fn push(&mut self, tag: u32, view: u32, env: Option<Env>) -> SkelId {
        let env = match env {
            Some(e) => {
                self.envs.push(e);
                u32::try_from(self.envs.len() - 1).expect("task fits u32 environments")
            }
            None => SKEL_NONE,
        };
        let id = u32::try_from(self.nodes.len()).expect("task fits u32 nodes");
        self.nodes.push(SkelNode {
            tag,
            view,
            env,
            first_child: SKEL_NONE,
            last_child: SKEL_NONE,
            next_sibling: SKEL_NONE,
            attr_start: u32::try_from(self.attrs.len()).expect("attrs fit u32"),
            attr_len: 0,
        });
        SkelId(id)
    }

    /// Creates a detached element named `tag`, emitted by view node `view`
    /// with child environment `child_env`.
    fn create_element(&mut self, tag: &str, view: ViewNodeId, child_env: Option<Env>) -> SkelId {
        let tag = self.intern(tag);
        self.push(tag, view.index() as u32, child_env)
    }

    /// A nameless attach point under the root for one delta re-run; never
    /// emitted (only its children are grafted elsewhere).
    fn holder(&mut self) -> SkelId {
        let holder = self.push(SKEL_NONE, SKEL_NONE, None);
        self.append_child(self.root(), holder);
        holder
    }

    /// Appends a freshly created node as `parent`'s last child.
    fn append_child(&mut self, parent: SkelId, child: SkelId) {
        let p = parent.0 as usize;
        if self.nodes[p].first_child == SKEL_NONE {
            self.nodes[p].first_child = child.0;
        } else {
            let last = self.nodes[p].last_child as usize;
            self.nodes[last].next_sibling = child.0;
        }
        self.nodes[p].last_child = child.0;
    }

    /// Sets an attribute to the text `value` appends to the value buffer;
    /// a duplicate name replaces the existing value in place (the arena's
    /// contract, load-bearing for byte parity with [`Document`]).
    fn set_attr(&mut self, el: SkelId, name: &str, value: impl FnOnce(&mut String)) {
        let name = self.intern(name);
        let text_len = self.text.len();
        value(&mut self.text);
        let val_start = u32::try_from(text_len).expect("values fit u32");
        let val_len = u32::try_from(self.text.len() - text_len).expect("value fits u32");
        let e = el.0 as usize;
        let (start, len) = (
            self.nodes[e].attr_start as usize,
            self.nodes[e].attr_len as usize,
        );
        if let Some(a) = self.attrs[start..start + len]
            .iter_mut()
            .find(|a| a.name == name)
        {
            a.val_start = val_start;
            a.val_len = val_len;
            return;
        }
        debug_assert_eq!(
            start + len,
            self.attrs.len(),
            "attributes of an element are set before the next element is created"
        );
        self.attrs.push(SkelAttr {
            name,
            val_start,
            val_len,
        });
        self.nodes[e].attr_len += 1;
    }

    fn node(&self, id: SkelId) -> SkelNode {
        self.nodes[id.0 as usize]
    }

    /// The view node that emitted element `id`.
    fn view(&self, id: SkelId) -> ViewNodeId {
        ViewNodeId(self.node(id).view)
    }

    /// The environment element `id`'s children run under (`None` for a
    /// leaf view node).
    fn child_env(&self, id: SkelId) -> Option<&Env> {
        let env = self.node(id).env;
        (env != SKEL_NONE).then(|| &self.envs[env as usize])
    }

    fn attrs_of(&self, n: SkelNode) -> &[SkelAttr] {
        &self.attrs[n.attr_start as usize..(n.attr_start + n.attr_len) as usize]
    }

    fn value(&self, a: &SkelAttr) -> &str {
        &self.text[a.val_start as usize..(a.val_start + a.val_len) as usize]
    }

    /// The children of `id`, in order.
    fn children(&self, id: SkelId) -> impl Iterator<Item = SkelId> + '_ {
        std::iter::successors(
            Some(self.node(id).first_child).filter(|&c| c != SKEL_NONE),
            |&c| Some(self.nodes[c as usize].next_sibling).filter(|&s| s != SKEL_NONE),
        )
        .map(SkelId)
    }

    /// Every element below the root, in document order.
    fn elements(&self) -> impl Iterator<Item = SkelId> + '_ {
        let mut stack = vec![self.nodes[0].first_child];
        std::iter::from_fn(move || loop {
            let id = stack.pop()?;
            if id == SKEL_NONE {
                continue;
            }
            let n = self.nodes[id as usize];
            stack.push(n.next_sibling);
            stack.push(n.first_child);
            return Some(SkelId(id));
        })
    }

    /// Heap bytes currently retained by the task buffers (capacities, not
    /// lengths — this is what the process actually holds on to).
    fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<SkelNode>()
            + self.attrs.capacity() * std::mem::size_of::<SkelAttr>()
            + self.text.capacity()
            + self.envs.capacity() * std::mem::size_of::<Env>()
            + self.names.iter().map(String::capacity).sum::<usize>()
    }

    /// Serializes the task subtree into `sink` in document order (an
    /// iterative DFS over the intrusive child links; no recursion, so
    /// recursion-heavy views cannot overflow the stack here).
    fn emit(&self, sink: &mut dyn XmlSink) -> io::Result<()> {
        let mut stack: Vec<u32> = Vec::new();
        let mut cur = self.nodes[0].first_child;
        loop {
            while cur != SKEL_NONE {
                let n = self.nodes[cur as usize];
                sink.start_element(&self.names[n.tag as usize])?;
                for a in self.attrs_of(n) {
                    sink.attr(&self.names[a.name as usize], self.value(a))?;
                }
                stack.push(cur);
                cur = n.first_child;
            }
            loop {
                let Some(top) = stack.pop() else {
                    return Ok(());
                };
                let n = self.nodes[top as usize];
                sink.end_element(&self.names[n.tag as usize])?;
                if n.next_sibling != SKEL_NONE {
                    cur = n.next_sibling;
                    break;
                }
            }
        }
    }

    /// The task subtree, serialized compactly.
    fn to_xml(&self) -> String {
        let mut w = XmlWriter::new(Vec::new());
        self.emit(&mut w).expect("Vec<u8> writes cannot fail");
        String::from_utf8(w.into_inner()).expect("serialization preserves UTF-8")
    }

    /// Appends `task`'s trace entries in document order: each element's
    /// indexed path (same-tag sibling counts per level; the task element
    /// counts among the root-level siblings), its view node, and the
    /// environment its query ran under — its parent's child environment,
    /// or no bindings for the task element.
    fn trace(&self, task: &Task, out: &mut Vec<TraceEntry>) {
        let top = self.nodes[0].first_child;
        let tag = &self.names[self.nodes[top as usize].tag as usize];
        let path = format!("/{tag}[{}]", task.index + 1);
        self.trace_from(SkelId(top), path, ParamEnv::new(), out);
    }

    fn trace_from(&self, id: SkelId, path: String, env: ParamEnv, out: &mut Vec<TraceEntry>) {
        let at = out.len();
        out.push(TraceEntry {
            path,
            view: self.view(id),
            env,
        });
        let child_env = self.child_env(id).map(Env::to_param_env);
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for c in self.children(id) {
            let tag = self.node(c).tag;
            let n = counts.entry(tag).or_insert(0);
            *n += 1;
            let path = format!("{}/{}[{n}]", out[at].path, self.names[tag as usize]);
            let child_env = child_env
                .clone()
                .expect("an element with children has a child environment");
            self.trace_from(c, path, child_env, out);
        }
    }

    /// Appends a copy of `src`'s element `id` — tag, attributes and
    /// provenance, no children — under `parent`.
    fn copy_node(&mut self, src: &Skeleton, id: SkelId, parent: SkelId) -> SkelId {
        let n = src.node(id);
        let el = self.create_element(
            &src.names[n.tag as usize],
            src.view(id),
            src.child_env(id).cloned(),
        );
        self.append_child(parent, el);
        for a in src.attrs_of(n) {
            self.set_attr(el, &src.names[a.name as usize], |text| {
                text.push_str(src.value(a));
            });
        }
        el
    }

    /// Appends a deep copy of `src`'s subtree at `id` under `parent`.
    fn copy_subtree(&mut self, src: &Skeleton, id: SkelId, parent: SkelId) {
        let el = self.copy_node(src, id, parent);
        for c in src.children(id) {
            self.copy_subtree(src, c, el);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::schema_tree::ViewNode;
    use xvc_rel::{parse_query, ColumnDef, ColumnType, TableSchema, Value};

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
        for (id, name) in [(1, "chicago"), (2, "nyc")] {
            db.insert("metroarea", vec![Value::Int(id), Value::Str(name.into())])
                .unwrap();
        }
        for (id, name, stars, metro) in [
            (10, "palmer", 5, 1),
            (11, "drake", 4, 1),
            (12, "plaza", 5, 2),
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
                3,
                "hotel",
                "h",
                parse_query("SELECT * FROM hotel WHERE metro_id=$m.metroid AND starrating > 4")
                    .unwrap(),
            ),
        )
        .unwrap();
        t
    }

    fn publish_one(tree: &SchemaTree, db: &Database) -> Result<Published> {
        Engine::new(tree).session().publish(db)
    }

    #[test]
    fn publishes_nested_elements() {
        let p = publish_one(&view(), &db()).unwrap();
        let xml = p.document.to_xml();
        assert_eq!(
            xml,
            "<metro metroid=\"1\" metroname=\"chicago\">\
             <hotel hotelid=\"10\" hotelname=\"palmer\" starrating=\"5\" metro_id=\"1\"/>\
             </metro>\
             <metro metroid=\"2\" metroname=\"nyc\">\
             <hotel hotelid=\"12\" hotelname=\"plaza\" starrating=\"5\" metro_id=\"2\"/>\
             </metro>"
        );
        assert_eq!(p.stats.elements, 4);
        // One metroarea query + one hotel query per metro tuple.
        assert_eq!(p.stats.queries_run, 3);
        assert_eq!(p.stats.tuples_fetched, 4);
        assert!(p.trace.is_none());
    }

    #[test]
    fn null_attributes_omitted() {
        let mut database = db();
        database
            .insert("metroarea", vec![Value::Int(3), Value::Null])
            .unwrap();
        let p = publish_one(&view(), &database).unwrap();
        assert!(p.document.to_xml().contains("<metro metroid=\"3\"/>"));
    }

    #[test]
    fn empty_result_publishes_nothing() {
        let mut t = SchemaTree::new();
        t.add_root_node(ViewNode::new(
            1,
            "metro",
            "m",
            parse_query("SELECT metroid FROM metroarea WHERE metroid > 99").unwrap(),
        ))
        .unwrap();
        let p = publish_one(&t, &db()).unwrap();
        assert!(p.document.is_empty());
        assert_eq!(p.stats.elements, 0);
        assert_eq!(p.stats.queries_run, 1);
    }

    #[test]
    fn publish_validates_first() {
        let mut t = SchemaTree::new();
        t.add_root_node(ViewNode::new(
            1,
            "x",
            "a",
            parse_query("SELECT * FROM hotel WHERE metro_id=$nope.metroid").unwrap(),
        ))
        .unwrap();
        assert!(matches!(
            publish_one(&t, &db()),
            Err(crate::Error::UnboundViewParameter { .. })
        ));
    }

    #[test]
    fn attr_projection_columns_filters_attributes() {
        let mut t = SchemaTree::new();
        let mut n = ViewNode::new(
            1,
            "metro",
            "m",
            parse_query("SELECT metroid, metroname FROM metroarea").unwrap(),
        );
        n.attrs = crate::AttrProjection::Columns(vec!["metroname".into()]);
        t.add_root_node(n).unwrap();
        let p = publish_one(&t, &db()).unwrap();
        let xml = p.document.to_xml();
        assert!(xml.contains("<metro metroname=\"chicago\"/>"), "{xml}");
        assert!(!xml.contains("metroid"), "{xml}");
    }

    #[test]
    fn attr_projection_none_publishes_bare_elements() {
        let mut t = SchemaTree::new();
        let mut n = ViewNode::new(
            1,
            "metro",
            "m",
            parse_query("SELECT metroid, metroname FROM metroarea").unwrap(),
        );
        n.attrs = crate::AttrProjection::None;
        t.add_root_node(n).unwrap();
        let p = publish_one(&t, &db()).unwrap();
        assert_eq!(p.document.to_xml(), "<metro/><metro/>");
    }

    #[test]
    fn literal_nodes_emit_once_with_static_attrs() {
        let mut t = SchemaTree::new();
        let metro = t
            .add_root_node(ViewNode::new(
                1,
                "metro",
                "m",
                parse_query("SELECT metroid FROM metroarea").unwrap(),
            ))
            .unwrap();
        let mut lit = ViewNode::literal(2, "badge");
        lit.static_attrs = vec![("kind".into(), "gold".into())];
        t.add_child(metro, lit).unwrap();
        let p = publish_one(&t, &db()).unwrap();
        assert_eq!(
            p.document.to_xml(),
            "<metro metroid=\"1\"><badge kind=\"gold\"/></metro>\
             <metro metroid=\"2\"><badge kind=\"gold\"/></metro>"
        );
    }

    #[test]
    fn context_copy_reuses_bound_tuple() {
        let mut t = SchemaTree::new();
        let metro = t
            .add_root_node(ViewNode::new(
                1,
                "metro",
                "m",
                parse_query("SELECT metroid, metroname FROM metroarea").unwrap(),
            ))
            .unwrap();
        let wrapper = t.add_child(metro, ViewNode::literal(2, "wrap")).unwrap();
        let mut copy = ViewNode::literal(3, "metro_copy");
        copy.context_tuple_of = Some("m".into());
        copy.attrs = crate::AttrProjection::All;
        t.add_child(wrapper, copy).unwrap();
        let p = publish_one(&t, &db()).unwrap();
        let xml = p.document.to_xml();
        assert!(
            xml.contains("<wrap><metro_copy metroid=\"1\" metroname=\"chicago\"/></wrap>"),
            "{xml}"
        );
        // One query (metroarea) — the copies run none.
        assert_eq!(p.stats.queries_run, 1);
    }

    #[test]
    fn guards_gate_subtrees() {
        use xvc_rel::BinOp;
        let mut t = SchemaTree::new();
        let metro = t
            .add_root_node(ViewNode::new(
                1,
                "metro",
                "m",
                parse_query("SELECT metroid, metroname FROM metroarea").unwrap(),
            ))
            .unwrap();
        let mut guarded = ViewNode::literal(2, "only_chicago");
        guarded.guard = Some(ScalarExpr::binary(
            BinOp::Eq,
            ScalarExpr::param("m", "metroname"),
            ScalarExpr::str("chicago"),
        ));
        t.add_child(metro, guarded).unwrap();
        let p = publish_one(&t, &db()).unwrap();
        assert_eq!(
            p.document.to_xml(),
            "<metro metroid=\"1\" metroname=\"chicago\"><only_chicago/></metro>\
             <metro metroid=\"2\" metroname=\"nyc\"/>"
        );
    }

    #[test]
    fn trace_records_indexed_paths_and_envs() {
        let p = Engine::new(&view())
            .traced(true)
            .session()
            .publish(&db())
            .unwrap();
        let trace = p.trace.expect("traced publish");
        assert_eq!(trace.entries.len(), 4); // 2 metros + 1 hotel each
        let paths: Vec<&str> = trace.entries.iter().map(|e| e.path.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "/metro[1]",
                "/metro[1]/hotel[1]",
                "/metro[2]",
                "/metro[2]/hotel[1]"
            ]
        );
        // The hotel under the second metro ran with $m bound to nyc.
        let entry = trace.lookup("/metro[2]/hotel[1]").unwrap();
        let m = entry.env.get("m").unwrap();
        assert_eq!(m.get("metroname"), Some(&Value::Str("nyc".into())));
        // deepest_ancestor finds the emitted parent of a missing child.
        let anc = trace
            .deepest_ancestor("/metro[2]/hotel[1]/room[1]")
            .unwrap();
        assert_eq!(anc.path, "/metro[2]/hotel[1]");
        assert!(!p.document.is_empty());
    }

    #[test]
    fn publish_with_stats_reports_engine_work() {
        let p = publish_one(&view(), &db()).unwrap();
        assert_eq!(p.stats.queries_run, 3);
        // metroarea scan (2 rows) + one hotel scan (3 rows) shared by both
        // metro tasks, whose hotel batches each serve one $m binding.
        assert_eq!(p.eval.queries, 2);
        assert_eq!(p.eval.param_queries, 2);
        assert_eq!(p.eval.rows_scanned, 2 + 3);
    }

    #[test]
    fn leaf_queries_not_run_for_absent_parents() {
        // Child tag queries run once per parent tuple — zero parent tuples
        // means the child query never runs.
        let mut t = view();
        let metro = t.find_by_paper_id(1).unwrap();
        t.node_mut(metro).unwrap().query = Some(
            parse_query("SELECT metroid, metroname FROM metroarea WHERE metroid > 99").unwrap(),
        );
        let p = publish_one(&t, &db()).unwrap();
        assert_eq!(p.stats.queries_run, 1);
    }

    #[test]
    fn second_publish_hits_the_plan_cache() {
        let tree = view();
        let db = db();
        let engine = Engine::new(&tree);
        let first = engine.session().publish(&db).unwrap();
        assert_eq!(first.stats.plans_prepared, 2);
        assert_eq!(first.stats.plan_cache_hits, 0);
        let second = engine.session().publish(&db).unwrap();
        assert_eq!(second.stats.plans_prepared, 0);
        assert_eq!(second.stats.plan_cache_hits, 2);
        assert!(second.stats.plan_cache_hit_rate() > 0.99);
        assert_eq!(first.document.to_xml(), second.document.to_xml());
        // Engine work is identical on the warm path.
        assert_eq!(first.eval, second.eval);
    }

    #[test]
    fn failed_plan_is_negatively_cached() {
        use xvc_rel::BinOp;
        let mut t = view();
        // A root-level node whose tag query cannot compile (unknown
        // table), gated by a guard that never fires so the interpreter
        // fallback never runs either — the view still publishes.
        let mut bad = ViewNode::new(
            9,
            "phantom",
            "p",
            parse_query("SELECT * FROM no_such_table").unwrap(),
        );
        bad.guard = Some(ScalarExpr::binary(
            BinOp::Eq,
            ScalarExpr::int(1),
            ScalarExpr::int(2),
        ));
        t.add_root_node(bad).unwrap();
        let db = db();
        let engine = Engine::new(&t);

        let first = engine.session().publish(&db).unwrap();
        // metro + hotel tag queries and the guard probe compile; the
        // phantom tag query fails, exactly once.
        assert_eq!(first.stats.plans_prepared, 3);
        assert_eq!(first.stats.plan_prepare_failures, 1);
        assert_eq!(first.stats.plan_cache_hits, 0);
        assert!(!first.document.to_xml().contains("phantom"));

        let second = engine.session().publish(&db).unwrap();
        // The failure is served from the cache — no recompilation
        // attempt, and the hit rate is undistorted.
        assert_eq!(second.stats.plans_prepared, 0);
        assert_eq!(second.stats.plan_prepare_failures, 0);
        assert_eq!(second.stats.plan_cache_hits, 4);
        assert_eq!(second.stats.plan_cache_hit_rate(), 1.0);
        assert_eq!(first.document.to_xml(), second.document.to_xml());
    }

    #[test]
    fn index_creation_invalidates_plan_cache() {
        use xvc_rel::IndexKind;
        let t = view();
        let mut db = db();
        let engine = Engine::new(&t);
        let before = engine.session().publish(&db).unwrap();
        assert_eq!(before.stats.plans_prepared, 2);

        // An index changes the catalog fingerprint even though no table
        // was added: plans recompile (and may now pick an index access
        // path) while the document stays identical.
        db.create_index("hotel", "metro_id", IndexKind::Hash)
            .unwrap();
        let after = engine.session().publish(&db).unwrap();
        assert_eq!(after.stats.plans_prepared, 2);
        assert_eq!(after.stats.plan_cache_hits, 0);
        assert_eq!(before.document.to_xml(), after.document.to_xml());

        // And the fingerprint is stable afterwards: pure cache hits.
        let warm = engine.session().publish(&db).unwrap();
        assert_eq!(warm.stats.plan_cache_hits, 2);
        assert_eq!(warm.stats.plans_prepared, 0);
        assert_eq!(warm.document.to_xml(), after.document.to_xml());
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
    fn trace_pins_every_path_view_and_binding() {
        let tree = view();
        let db = db();
        let (metro, hotel) = (
            tree.find_by_paper_id(1).unwrap(),
            tree.find_by_paper_id(3).unwrap(),
        );
        let expected = [
            ("/metro[1]", metro, ParamEnv::new()),
            ("/metro[1]/hotel[1]", hotel, metro_env(1, "chicago")),
            ("/metro[2]", metro, ParamEnv::new()),
            ("/metro[2]/hotel[1]", hotel, metro_env(2, "nyc")),
        ];
        for threads in [1, 4] {
            let p = Engine::new(&tree)
                .traced(true)
                .parallel(threads)
                .session()
                .publish(&db)
                .unwrap();
            let trace = p.trace.unwrap();
            assert_eq!(trace.entries.len(), expected.len());
            for (e, (path, view, env)) in trace.entries.iter().zip(&expected) {
                assert_eq!(e.path, *path, "parallel({threads})");
                assert_eq!(e.view, *view, "{path} at parallel({threads})");
                assert_eq!(e.env, *env, "{path} at parallel({threads})");
            }
            // One batch per metro task's hotel level.
            assert_eq!(p.stats.batches_executed, 2);
            assert_eq!(p.stats.rows_regrouped, 2);
        }
    }

    /// The same publish with and without bound-driven planning: documents,
    /// traces and [`PublishStats`] must agree; returns both engine counters.
    fn bounded_and_unbounded(tree: &SchemaTree, db: &Database) -> (EvalStats, EvalStats) {
        let bounded = Engine::new(tree)
            .traced(true)
            .session()
            .publish(db)
            .unwrap();
        let unbounded = Engine::new(tree)
            .bounded(false)
            .traced(true)
            .session()
            .publish(db)
            .unwrap();
        assert_eq!(bounded.document.to_xml(), unbounded.document.to_xml());
        let (bt, ut) = (bounded.trace.unwrap(), unbounded.trace.unwrap());
        assert_eq!(bt.entries.len(), ut.entries.len());
        for (b, u) in bt.entries.iter().zip(&ut.entries) {
            assert_eq!(b.path, u.path);
            assert_eq!(b.env, u.env);
        }
        assert_eq!(bounded.stats, unbounded.stats);
        (bounded.eval, unbounded.eval)
    }

    #[test]
    fn bounded_path_shares_one_scan_across_root_tasks() {
        // Two metro tasks: each hotel batch provably carries one binding,
        // but both tasks probe one shared binding-free hotel scan, so the
        // bound no longer demotes the batch. With or without the bound the
        // publish scans `hotel` once and builds one hash table.
        let (bounded, unbounded) = bounded_and_unbounded(&view(), &db());
        assert_eq!(bounded, unbounded);
        assert_eq!(bounded.rows_scanned, 2 + 3, "{bounded:?}");
        assert_eq!(bounded.hash_join_builds, 1, "{bounded:?}");
    }

    #[test]
    fn bounded_path_demotes_single_binding_batches_to_scalar() {
        // One metro task: its hotel batch provably carries one binding, so
        // bound-driven planning executes it scalar — one run with the slot
        // pushdown intact — instead of the binding-free shared pipeline,
        // which materializes the stripped rows and regroups them through a
        // hash build.
        let mut tree = view();
        let metro = tree.find_by_paper_id(1).unwrap();
        tree.node_mut(metro).unwrap().query = Some(
            parse_query("SELECT metroid, metroname FROM metroarea WHERE metroid = 1").unwrap(),
        );
        let (bounded, unbounded) = bounded_and_unbounded(&tree, &db());
        // Scans and query counts agree; the shared pipeline's regroup hash
        // build is what the bound saves.
        assert_eq!(bounded.queries, unbounded.queries);
        assert_eq!(bounded.rows_scanned, unbounded.rows_scanned);
        assert_eq!(bounded.hash_join_builds, 0, "{bounded:?}");
        assert_eq!(unbounded.hash_join_builds, 1, "{unbounded:?}");
    }

    #[test]
    fn delta_republish_of_leaf_change_matches_full_republish() {
        let tree = view();
        let mut database = db();
        let engine = Engine::new(&tree).incremental(true);
        let prev = engine.session().publish(&database).unwrap();
        assert!(prev.splice.is_some());
        assert!(prev.reexecuted.is_empty());

        // New 5-star hotel in chicago: only the hotel node reads `hotel`.
        let delta = database
            .execute_dml("INSERT INTO hotel VALUES (13, 'langham', 5, 1)")
            .unwrap();
        let after = engine
            .session()
            .republish_delta(&database, &prev, &delta)
            .unwrap();
        let full = Engine::new(&tree).session().publish(&database).unwrap();
        assert_eq!(after.document.to_xml(), full.document.to_xml());
        assert!(after.document.to_xml().contains("langham"));
        // One hotel batch across both surviving metros, instead of the
        // full run's one metro batch + two per-task hotel batches.
        assert_eq!(after.stats.batches_reexecuted, 1, "{:?}", after.stats);
        assert!(after.stats.batches_reexecuted < full.stats.batches_executed);
        // The new row keys into chicago only: its two 5-star hotels are
        // re-emitted, nyc's plaza is shared untouched.
        assert_eq!(after.stats.nodes_respliced, 2);
        assert_eq!(after.stats.delta_rows_in, 1);
        // Only the hotel node re-executed.
        let hotel = tree.find_by_paper_id(3).unwrap();
        assert_eq!(after.reexecuted, vec![hotel]);

        // The result carries a current splice index: deltas chain.
        let delta2 = database
            .execute_dml("DELETE FROM hotel WHERE hotelname = 'plaza'")
            .unwrap();
        let after2 = engine
            .session()
            .republish_delta(&database, &after, &delta2)
            .unwrap();
        let full2 = Engine::new(&tree).session().publish(&database).unwrap();
        assert_eq!(after2.document.to_xml(), full2.document.to_xml());
        assert!(!after2.document.to_xml().contains("plaza"));
    }

    #[test]
    fn delta_republish_of_root_table_change_matches_full_republish() {
        let tree = view();
        let mut database = db();
        let engine = Engine::new(&tree).incremental(true);
        let prev = engine.session().publish(&database).unwrap();
        // metroarea feeds the root-level metro node: the whole document is
        // rebuilt through the root-top path.
        let delta = database
            .execute_dml("INSERT INTO metroarea VALUES (3, 'boston')")
            .unwrap();
        let after = engine
            .session()
            .republish_delta(&database, &prev, &delta)
            .unwrap();
        let full = Engine::new(&tree).session().publish(&database).unwrap();
        assert_eq!(after.document.to_xml(), full.document.to_xml());
        assert!(after.document.to_xml().contains("boston"));
    }

    /// Inserts `row` into `hotel` and checks the delta republish of `tree`
    /// against a full one; returns the delta's stats.
    fn hotel_insert_matches_full(tree: &SchemaTree, row: &str) -> PublishStats {
        let mut database = db();
        let engine = Engine::new(tree).incremental(true);
        let prev = engine.session().publish(&database).unwrap();
        let delta = database
            .execute_dml(&format!("INSERT INTO hotel VALUES ({row})"))
            .unwrap();
        let after = engine
            .session()
            .republish_delta(&database, &prev, &delta)
            .unwrap();
        let full = Engine::new(tree).session().publish(&database).unwrap();
        assert_eq!(after.document.to_xml(), full.document.to_xml());
        after.stats
    }

    #[test]
    fn delta_does_not_narrow_over_an_affected_descendant() {
        // hotel keys its rows by metro, but its `peer` child also reads
        // `hotel`, keyed by star rating: a new 5-star hotel in chicago adds
        // a peer under nyc's plaza too, so hotel must re-run under every
        // metro, not only chicago.
        let mut tree = view();
        let hotel = tree.find_by_paper_id(3).unwrap();
        tree.add_child(
            hotel,
            ViewNode::new(
                4,
                "peer",
                "p",
                parse_query("SELECT hotelname FROM hotel WHERE starrating = $h.starrating")
                    .unwrap(),
            ),
        )
        .unwrap();
        let stats = hotel_insert_matches_full(&tree, "13, 'langham', 5, 1");
        // Both metros' hotel groups re-run: palmer, langham and plaza.
        assert_eq!(stats.nodes_respliced, 3, "{stats:?}");
    }

    #[test]
    fn delta_does_not_narrow_a_node_whose_guard_reads_the_table() {
        // The guard holds for every metro once any hotel id passes 12: the
        // chicago insert must republish nyc's hotels as well.
        let mut tree = view();
        let hotel = tree.find_by_paper_id(3).unwrap();
        tree.node_mut(hotel).unwrap().guard = Some(ScalarExpr::Exists(Box::new(
            parse_query("SELECT 1 FROM hotel WHERE hotelid > 12").unwrap(),
        )));
        let stats = hotel_insert_matches_full(&tree, "13, 'langham', 5, 1");
        assert_eq!(stats.nodes_respliced, 3, "{stats:?}");
    }

    #[test]
    fn root_level_change_replaces_only_its_own_root_tasks() {
        // Two root-level nodes: a new metro re-runs the metro root pass,
        // while the tasks of the hotel list are shared untouched.
        let mut tree = view();
        tree.add_root_node(ViewNode::new(
            5,
            "listing",
            "l",
            parse_query("SELECT hotelid FROM hotel").unwrap(),
        ))
        .unwrap();
        let mut database = db();
        let engine = Engine::new(&tree).incremental(true);
        let prev = engine.session().publish(&database).unwrap();
        let delta = database
            .execute_dml("INSERT INTO metroarea VALUES (3, 'boston')")
            .unwrap();
        let after = engine
            .session()
            .republish_delta(&database, &prev, &delta)
            .unwrap();
        let full = Engine::new(&tree).session().publish(&database).unwrap();
        assert_eq!(after.document.to_xml(), full.document.to_xml());
        let (old, new) = (&prev.splice.unwrap().tasks, &after.splice.unwrap().tasks);
        // metros 1, 2 then 3 hotels before; metros 1, 2, 3 then 3 hotels.
        assert_eq!((old.len(), new.len()), (5, 6));
        let metro = tree.find_by_paper_id(1).unwrap();
        assert!(new[..3].iter().all(|t| t.view == metro));
        for (o, n) in old[2..].iter().zip(&new[3..]) {
            assert!(Arc::ptr_eq(o, n), "a listing task was rebuilt");
        }
    }

    #[test]
    fn delta_republish_ignores_unread_tables() {
        let tree = view();
        let mut database = db();
        database.create_table(
            TableSchema::new("audit", vec![ColumnDef::new("id", ColumnType::Int)]).unwrap(),
        );
        let engine = Engine::new(&tree).incremental(true);
        let prev = engine.session().publish(&database).unwrap();
        let delta = database
            .execute_dml("INSERT INTO audit VALUES (1)")
            .unwrap();
        let after = engine
            .session()
            .republish_delta(&database, &prev, &delta)
            .unwrap();
        assert_eq!(after.document.to_xml(), prev.document.to_xml());
        assert_eq!(after.stats.batches_reexecuted, 0);
        assert_eq!(after.stats.nodes_respliced, 0);
        assert_eq!(after.stats.delta_rows_in, 1);
        assert!(after.reexecuted.is_empty());
        assert!(after.splice.is_some());
    }

    #[test]
    fn delta_republish_without_splice_falls_back_to_full() {
        let tree = view();
        let mut database = db();
        let engine = Engine::new(&tree); // not incremental
        let prev = engine.session().publish(&database).unwrap();
        assert!(prev.splice.is_none());
        let delta = database
            .execute_dml("INSERT INTO hotel VALUES (13, 'langham', 5, 1)")
            .unwrap();
        let after = engine
            .session()
            .republish_delta(&database, &prev, &delta)
            .unwrap();
        let full = Engine::new(&tree).session().publish(&database).unwrap();
        assert_eq!(after.document.to_xml(), full.document.to_xml());
        assert_eq!(after.stats.batches_reexecuted, after.stats.batches_executed);
        assert!(!after.reexecuted.is_empty());
    }

    #[test]
    fn delta_republish_handles_deletes_emptying_groups() {
        let tree = view();
        let mut database = db();
        let engine = Engine::new(&tree).incremental(true);
        let prev = engine.session().publish(&database).unwrap();
        let delta = database
            .execute_dml("DELETE FROM hotel WHERE starrating > 4")
            .unwrap();
        let after = engine
            .session()
            .republish_delta(&database, &prev, &delta)
            .unwrap();
        let full = Engine::new(&tree).session().publish(&database).unwrap();
        assert_eq!(after.document.to_xml(), full.document.to_xml());
        assert!(!after.document.to_xml().contains("hotel"));
        assert_eq!(after.stats.nodes_respliced, 0);
    }

    #[test]
    fn incremental_publish_splice_covers_every_element() {
        let tree = view();
        let database = db();
        let p = Engine::new(&tree)
            .incremental(true)
            .parallel(4)
            .session()
            .publish(&database)
            .unwrap();
        let splice = p.splice.expect("incremental publish records splice");
        // One entry per root task, whose skeletons hold every element with
        // its provenance; the segments concatenate to the document.
        assert_eq!(splice.tasks.len(), 2);
        let elements: usize = splice.tasks.iter().map(|t| t.skel.elements().count()).sum();
        assert_eq!(elements, p.stats.elements);
        assert_eq!(splice.xml(), p.document.to_xml());
        let (metro, hotel) = (
            tree.find_by_paper_id(1).unwrap(),
            tree.find_by_paper_id(3).unwrap(),
        );
        for task in &splice.tasks {
            assert_eq!(task.view, metro);
            let skel = &task.skel;
            assert_eq!(task.xml, skel.to_xml());
            // The task's root element carries its own binding in its child
            // environment; leaves (hotels) carry no environment at all.
            for id in skel.elements() {
                if skel.view(id) == metro {
                    assert!(skel.child_env(id).unwrap().tuple("m").is_some());
                } else {
                    assert_eq!(skel.view(id), hotel);
                    assert!(skel.child_env(id).is_none());
                }
            }
        }
    }

    #[test]
    fn inner_frame_shadows_outer_binding() {
        // A view that binds one variable at two depths: the inner frame
        // wins, as `HashMap::insert` had it, for plans and for traces.
        let columns: Arc<[String]> = vec!["a".to_owned(), "b".to_owned()].into();
        let (x, y): (Arc<str>, Arc<str>) = ("x".into(), "y".into());
        let outer = Env::default()
            .bind(&x, &columns, &[Value::Int(1), Value::Int(10)])
            .bind(&y, &columns, &[Value::Int(5), Value::Null]);
        let env = outer.bind(&x, &columns, &[Value::Int(2), Value::Int(20)]);
        assert_eq!(env.value("x", "b"), Ok(&Value::Int(20)));
        assert_eq!(env.value("y", "a"), Ok(&Value::Int(5)));
        assert_eq!(outer.value("x", "b"), Ok(&Value::Int(10)));
        assert!(env.value("z", "a").is_err());
        let owned = env.to_param_env();
        assert_eq!(owned.len(), 2);
        assert_eq!(owned["x"].values, vec![Value::Int(2), Value::Int(20)]);
        assert!(!Bindings::is_empty(&env));
        assert!(Bindings::is_empty(&Env::default()));
    }

    #[test]
    fn equal_bindings_share_one_engine_execution() {
        // metro -> hotel -> home, where `home` reads only $h.metro_id:
        // both hotels under metro 1 bind the same value, so the batch runs
        // the engine once for them and both parents read the one group.
        let mut t = SchemaTree::new();
        let metro = t
            .add_root_node(ViewNode::new(
                1,
                "metro",
                "m",
                parse_query("SELECT metroid, metroname FROM metroarea").unwrap(),
            ))
            .unwrap();
        let hotel = t
            .add_child(
                metro,
                ViewNode::new(
                    2,
                    "hotel",
                    "h",
                    parse_query("SELECT * FROM hotel WHERE metro_id=$m.metroid").unwrap(),
                ),
            )
            .unwrap();
        t.add_child(
            hotel,
            ViewNode::new(
                3,
                "home",
                "x",
                parse_query("SELECT metroname FROM metroarea WHERE metroid=$h.metro_id").unwrap(),
            ),
        )
        .unwrap();
        let database = db();
        for threads in [1, 4] {
            let p = Engine::new(&t)
                .parallel(threads)
                .session()
                .publish(&database)
                .unwrap();
            // Engine work: the root metro scan, and one shared hotel scan
            // and one shared home scan probed by both metro tasks. Each of
            // the 4 batches serves one distinct binding group: metro 1's
            // two equal home bindings form one.
            let e = &p.eval;
            assert_eq!(e.queries, 1 + 1 + 1, "{e:?}");
            assert_eq!(e.param_queries, 4, "{e:?}");
            assert_eq!(e.rows_scanned, 7, "{e:?}");
            assert_eq!(e.hash_join_builds, 2, "{e:?}");
            assert_eq!(e.hash_join_build_rows, 5, "{e:?}");
            assert_eq!(e.hash_join_probe_rows, 4, "{e:?}");
            // Every parent still counts as a query run: 1 metro + 2 hotel
            // + 3 home.
            assert_eq!(p.stats.queries_run, 1 + 2 + 3, "{:?}", p.stats);
            // One hotel batch + one home batch per metro task.
            assert_eq!(p.stats.batches_executed, 4, "{:?}", p.stats);
            // hotel rows: 2 under metro 1 + 1 under metro 2; home rows:
            // one per parent binding, the duplicate included: 2 + 1.
            assert_eq!(p.stats.rows_regrouped, 3 + 3, "{:?}", p.stats);
            // Metro 1's home batch carries both hotels' (equal) bindings.
            assert_eq!(p.stats.bindings_per_batch_max, 2, "{:?}", p.stats);
        }
    }
}
