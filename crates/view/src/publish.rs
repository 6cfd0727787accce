//! Publishing: evaluating a schema-tree query to an XML document, `v(I)`.
//!
//! The public entry point is [`crate::Engine`] / [`crate::Session`] (see
//! the `engine` module); this module holds the execution machinery those
//! drive: the **plan-cache** types (each node's tag query compiled once
//! into an [`xvc_rel::PreparedPlan`]), **set-oriented** publishing (a
//! breadth-first frontier walk running one
//! [`xvc_rel::PreparedPlan::execute_batch_shared`] per (view node,
//! frontier) instead of one execution per parent tuple, with each plan's
//! binding-free scan shared by all root tasks of a publish), a bounded
//! per-task **result memo** (repeated parent tuples with equal relevant
//! binding values reuse the child relation), **parallel** sibling-subtree
//! evaluation (`std::thread::scope`) that keeps document order and
//! thread-count-independent statistics, and the **delta-republish** graft
//! walk.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use xvc_rel::{
    eval_query_stats, Database, Delta, EvalOptions, EvalStats, JoinKey, NamedTuple, ParamEnv,
    PreparedPlan, Relation, ScalarExpr, SelectItem, SelectQuery, SharedScan,
};
use xvc_xml::{Document, TreeBuilder, XmlSink};

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
    /// Tag-query executions served from the parameterized-result memo
    /// (equal relevant binding values, relation reused without touching
    /// the engine).
    pub memo_hits: usize,
    /// Memoizable executions that had to run the engine.
    pub memo_misses: usize,
    /// Set-oriented executions: one per (view node, frontier) with at
    /// least one non-memoized binding. Zero on the scalar path.
    pub batches_executed: usize,
    /// Largest number of bindings any single batch carried (merged with
    /// `max`, not `+`, across subtree tasks).
    pub bindings_per_batch_max: usize,
    /// Rows returned by batched executions and regrouped back to their
    /// parent bindings. Memo-served parents reuse an existing relation
    /// and are **not** counted here.
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
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.batches_executed += other.batches_executed;
        self.bindings_per_batch_max = self
            .bindings_per_batch_max
            .max(other.bindings_per_batch_max);
        self.rows_regrouped += other.rows_regrouped;
        self.nodes_respliced += other.nodes_respliced;
        self.batches_reexecuted += other.batches_reexecuted;
        self.delta_rows_in += other.delta_rows_in;
    }

    /// This run's counters with the batch-only and delta-only ones zeroed —
    /// what the run would have reported on the scalar path, which is
    /// identical on every other field (the equality the batched-vs-scalar
    /// tests assert).
    pub fn without_batch_counters(&self) -> PublishStats {
        PublishStats {
            batches_executed: 0,
            bindings_per_batch_max: 0,
            rows_regrouped: 0,
            nodes_respliced: 0,
            batches_reexecuted: 0,
            delta_rows_in: 0,
            ..*self
        }
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
/// that generated it.
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

/// Splice provenance of one published element: which view node produced
/// it and, when that node has children, the parameter environment they
/// were expanded under. This is exactly what the delta path needs to
/// re-run a child node under one surviving parent instance.
#[derive(Debug, Clone)]
pub(crate) struct SpliceEntry {
    /// The schema-tree node that emitted the element.
    pub(crate) view: ViewNodeId,
    /// The environment the element's children run under (the element's
    /// own binding variable included); `None` when the view node has no
    /// children, since nothing ever runs under a leaf. Shared, so grafting
    /// a task copies entries without copying environments.
    pub(crate) child_env: Option<Arc<ParamEnv>>,
}

/// One root task of a published document: the element subtree of one
/// root-level instance, kept as its own arena fragment so a delta can
/// rebuild, re-serialize and swap it without touching any other task.
#[derive(Debug)]
pub struct SpliceTask {
    /// The root-level view node the task instantiates.
    view: ViewNodeId,
    /// The task's arena fragment (its root holds the task's element).
    fragment: Document,
    /// Splice provenance keyed by fragment-local node ids.
    entries: HashMap<xvc_xml::NodeId, SpliceEntry>,
    /// `(slot, key)` for every value a narrowing slot ([`NarrowSlot`])
    /// takes in the `child_env` of an entry of the slot's parent view
    /// node: a delta finds the tasks holding a narrowed parent without
    /// walking their fragments.
    keys: HashSet<(usize, JoinKey)>,
    /// The fragment, serialized.
    xml: String,
}

impl SpliceTask {
    fn new(
        view: ViewNodeId,
        fragment: Document,
        entries: HashMap<xvc_xml::NodeId, SpliceEntry>,
        slots: &[NarrowSlot],
    ) -> SpliceTask {
        let mut keys = HashSet::new();
        for entry in entries.values() {
            let Some(env) = entry.child_env.as_deref() else {
                continue;
            };
            for (i, (_, (var, attr))) in slots
                .iter()
                .enumerate()
                .filter(|(_, (parent, _))| *parent == entry.view)
            {
                if let Some(k) = env.get(var).and_then(|t| t.get(attr)).and_then(JoinKey::of) {
                    keys.insert((i, k));
                }
            }
        }
        let xml = fragment.to_xml();
        SpliceTask {
            view,
            fragment,
            entries,
            keys,
            xml,
        }
    }
}

/// The per-root-task state of a batched publish, in document order — what
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

    /// The merged document: every task fragment imported in order.
    pub(crate) fn document(&self) -> Document {
        let mut builder = TreeBuilder::new();
        for t in &self.tasks {
            for &kid in t.fragment.children(t.fragment.root()) {
                builder.import(&t.fragment, kid);
            }
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
    /// Splice provenance; `Some` only on batched publishes with
    /// [`crate::Engine::incremental`] on (delta republishes keep it current).
    pub splice: Option<SpliceIndex>,
    /// View nodes whose guard / tag batches a delta republish actually
    /// re-executed — the measured set the soundness tests compare against
    /// the static dependency map. Empty on full publishes.
    pub reexecuted: Vec<ViewNodeId>,
}

/// Distinguishes a node's tag query from its emission-guard probe in the
/// plan cache and result memo.
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

/// Entries per subtree-task result memo; inserts are skipped beyond this.
const MEMO_CAP: usize = 256;

/// Publish-path toggles, fixed per [`crate::Engine`] (see the builder
/// methods there for what each flag does).
#[derive(Debug, Clone)]
pub(crate) struct PublishConfig {
    pub(crate) tracing: bool,
    pub(crate) parallel: usize,
    pub(crate) prepared: bool,
    pub(crate) batched: bool,
    pub(crate) incremental: bool,
}

/// One publish execution: a validated schema tree plus the plan set the
/// engine ensured for the target catalog. [`crate::Session`] constructs
/// one per call through the wrappers below.
struct Run<'a> {
    tree: &'a SchemaTree,
    plans: &'a HashMap<PlanKey, PlanEntry>,
    cfg: &'a PublishConfig,
}

/// Full-publish orchestration behind [`crate::Session::publish`]. The
/// caller has already validated `tree` and ensured `plans` is current for
/// `db`'s catalog; `stats` carries the plan-cache counters it accumulated
/// doing so.
pub(crate) fn run_full_publish(
    tree: &SchemaTree,
    plans: &HashMap<PlanKey, PlanEntry>,
    cfg: &PublishConfig,
    db: &Database,
    stats: PublishStats,
) -> Result<Published> {
    Run { tree, plans, cfg }.full(db, stats)
}

/// Segment-publish orchestration behind
/// [`crate::Session::publish_segments`]: the batched walk, recording the
/// per-root-task state and no merged document. Same caller contract as
/// [`run_full_publish`].
pub(crate) fn run_segment_publish(
    tree: &SchemaTree,
    plans: &HashMap<PlanKey, PlanEntry>,
    cfg: &PublishConfig,
    db: &Database,
    stats: PublishStats,
) -> Result<Segmented> {
    Run { tree, plans, cfg }.segments(db, stats)
}

/// The delta republish behind [`crate::Session::republish_delta`] and
/// [`crate::Session::republish_segments`]. Same caller contract as
/// [`run_full_publish`]; `db` is the post-delta database.
pub(crate) fn run_delta_republish(
    tree: &SchemaTree,
    plans: &HashMap<PlanKey, PlanEntry>,
    cfg: &PublishConfig,
    db: &Database,
    prev: &SpliceIndex,
    delta: &Delta,
    stats: PublishStats,
) -> Result<Segmented> {
    Run { tree, plans, cfg }.delta(db, prev, delta, stats)
}

/// Streaming-publish orchestration behind [`crate::Session::publish_to`]:
/// the batched frontier walk with the arena sink swapped for the reusable
/// per-task [`Skeleton`], drained into `sink` task by task — serialized
/// XML is the only output; no document is ever materialized. Returns
/// `(stats, eval, peak_emit_bytes)` where the peak is the high-water mark
/// of the skeleton's buffers across tasks (the emission path's whole
/// retained footprint, bounded by the largest root-level subtree rather
/// than the document).
///
/// Caller contract: same as [`run_full_publish`], plus `cfg` is batched
/// and untraced (the caller handles the materializing fallback). Tasks run
/// sequentially — bytes leave in document order, so there is nothing to
/// parallelize ahead of the writer.
pub(crate) fn run_stream_publish(
    tree: &SchemaTree,
    plans: &HashMap<PlanKey, PlanEntry>,
    cfg: &PublishConfig,
    db: &Database,
    stats: PublishStats,
    sink: &mut dyn XmlSink,
) -> Result<(PublishStats, EvalStats, usize)> {
    Run { tree, plans, cfg }.stream(db, stats, sink)
}

impl Run<'_> {
    /// Root pass (always sequential): evaluates root-level guards and tag
    /// queries of the root-level nodes `keep` admits, and cuts the document
    /// into one task per root element instance. The decomposition — and
    /// therefore every per-task counter — is independent of the thread
    /// count *and* of the sink (arena vs streaming) the tasks are later
    /// drained through. Returns the worker that ran the root queries (it
    /// carries their stats/eval/trace) and the tasks, in document order.
    fn root_pass<'s>(
        &self,
        shared: &'s Shared<'s>,
        keep: impl Fn(ViewNodeId) -> bool,
    ) -> Result<(Worker<'s>, Vec<Task>)> {
        let mut main = Worker::new(shared, HashMap::new());
        let mut tasks: Vec<Task> = Vec::new();
        let mut root_counts: HashMap<String, usize> = HashMap::new();
        let env = ParamEnv::new();
        for &child in self.tree.children(self.tree.root()) {
            if !keep(child) {
                continue;
            }
            let node = self.tree.node(child).expect("non-root id");
            if let Some(guard) = &node.guard {
                main.stats.queries_run += 1;
                let probe = guard_probe(guard);
                if main
                    .run_tag_query(child, Role::Guard, &probe, &env)?
                    .is_empty()
                {
                    continue;
                }
            }
            let mut seed = |tag: &str| {
                let n = root_counts.entry(tag.to_owned()).or_insert(0);
                *n += 1;
                *n - 1
            };
            match &node.query {
                Some(q) if node.context_tuple_of.is_none() => {
                    let rel = main.run_tag_query(child, Role::Tag, q, &env)?;
                    main.stats.queries_run += 1;
                    main.stats.tuples_fetched += rel.len();
                    for i in 0..rel.len() {
                        tasks.push(Task {
                            vid: child,
                            tag: node.tag.clone(),
                            index: seed(&node.tag),
                            tuple: Some(rel.tuple(i)),
                        });
                    }
                }
                _ => {
                    tasks.push(Task {
                        vid: child,
                        tag: node.tag.clone(),
                        index: seed(&node.tag),
                        tuple: None,
                    });
                }
            }
        }
        Ok((main, tasks))
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

    /// Root pass plus every task it cut (sharing scans across root tasks,
    /// in parallel when configured), merged deterministically in task (=
    /// document) order: counters, engine work and trace are summed here,
    /// and each task's fragment and splice provenance is handed to `each`.
    fn run_merged(
        &self,
        shared: &Shared<'_>,
        keep: impl Fn(ViewNodeId) -> bool,
        stats: &mut PublishStats,
        mut each: impl FnMut(&Task, TaskOut),
    ) -> Result<(EvalStats, Vec<TraceEntry>)> {
        let (main, tasks) = self.root_pass(shared, keep)?;
        let scans = self.shared_scans(&tasks);
        let task_shared = Shared {
            scans: Some(&scans),
            ..*shared
        };
        let outs = run_tasks(&task_shared, &tasks, self.cfg.parallel);
        // The merge below reads only task outputs: release the scans first.
        drop(scans);

        stats.absorb(&main.stats);
        let mut eval = main.eval;
        let mut trace = main.trace;
        for (task, out) in tasks.iter().zip(outs) {
            let mut out = out.expect("every task slot is filled")?;
            stats.absorb(&out.stats);
            eval.absorb(&out.eval);
            trace.append(&mut out.trace);
            each(task, out);
        }
        Ok((eval, trace))
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
    /// statistics (and a trace when requested). Incremental batched
    /// publishes also keep every task's fragment as a [`SpliceIndex`].
    fn full(&self, db: &Database, mut stats: PublishStats) -> Result<Published> {
        let collect_splice = self.cfg.incremental && self.cfg.batched;
        let shared = Shared {
            tree: self.tree,
            db,
            plans: self.plans,
            scans: None,
            use_plans: self.cfg.prepared,
            tracing: self.cfg.tracing,
            batched: self.cfg.batched,
            collect_splice,
        };
        let slots = self.narrow_slots();
        let mut builder = TreeBuilder::new();
        let mut spliced = Vec::new();
        let (eval, trace) = self.run_merged(
            &shared,
            |_| true,
            &mut stats,
            |task, out| {
                for &kid in out.doc.children(out.doc.root()) {
                    builder.import(&out.doc, kid);
                }
                if collect_splice {
                    spliced.push(Arc::new(SpliceTask::new(
                        task.vid, out.doc, out.splice, &slots,
                    )));
                }
            },
        )?;
        Ok(Published {
            document: builder.finish(),
            stats,
            eval,
            trace: self.cfg.tracing.then_some(PublishTrace { entries: trace }),
            splice: collect_splice.then_some(SpliceIndex {
                tasks: spliced,
                slots,
            }),
            reexecuted: Vec::new(),
        })
    }

    /// The batched walk with every task kept as its own fragment and
    /// serialized segment: [`Run::full`]'s splice index without the merged
    /// document or a trace.
    fn segments(&self, db: &Database, mut stats: PublishStats) -> Result<Segmented> {
        let shared = Shared {
            tree: self.tree,
            db,
            plans: self.plans,
            scans: None,
            use_plans: self.cfg.prepared,
            tracing: false,
            batched: true,
            collect_splice: true,
        };
        let slots = self.narrow_slots();
        let mut tasks = Vec::new();
        let (eval, _) = self.run_merged(
            &shared,
            |_| true,
            &mut stats,
            |task, out| {
                tasks.push(Arc::new(SpliceTask::new(
                    task.vid, out.doc, out.splice, &slots,
                )));
            },
        )?;
        Ok(Segmented {
            splice: SpliceIndex { tasks, slots },
            stats,
            eval,
            reexecuted: Vec::new(),
        })
    }

    /// Streams `v(I)` into `sink` with no output DOM: the same root pass
    /// and breadth-first wave machinery as [`Run::full`], but each task's
    /// elements land in the reusable [`Skeleton`] instead of an arena
    /// document and are serialized out (document-order DFS) as soon as the
    /// task's waves are exhausted. Byte output equals
    /// `full(..).document.to_xml()` through the same [`XmlSink`]; stats
    /// and eval counters equal the batched materializing path's (the memo
    /// stays task-scoped, the decomposition is identical).
    fn stream(
        &self,
        db: &Database,
        mut stats: PublishStats,
        sink: &mut dyn XmlSink,
    ) -> Result<(PublishStats, EvalStats, usize)> {
        let shared = Shared {
            tree: self.tree,
            db,
            plans: self.plans,
            scans: None,
            use_plans: self.cfg.prepared,
            tracing: false,
            batched: true,
            collect_splice: false,
        };
        let (main, tasks) = self.root_pass(&shared, |_| true)?;
        stats.absorb(&main.stats);
        let mut eval = main.eval;

        let scans = self.shared_scans(&tasks);
        let task_shared = Shared {
            scans: Some(&scans),
            ..shared
        };
        let mut w = BatchWorker::with_store(&task_shared, Skeleton::default());
        let mut peak = 0usize;
        let env = ParamEnv::new();
        for task in &tasks {
            // Per-task state resets exactly as a fresh `BatchWorker` would:
            // the memo is task-scoped (statistics parity with
            // `run_task_batched`), the skeleton's buffers are drained but
            // keep their capacity and interned names.
            w.doc.begin_task();
            w.memo.clear();
            let root = w.doc.root();
            let (el, child_env) = w.emit_node_instance(root, task.vid, &env, task.tuple.as_ref());
            let frontier: Vec<Pending<SkelId>> = self
                .tree
                .children(task.vid)
                .iter()
                .map(|&vid| Pending {
                    parent: el,
                    vid,
                    env: child_env.clone(),
                })
                .collect();
            expand_frontier(&mut w, frontier)?;
            peak = peak.max(w.doc.heap_bytes());
            w.doc.emit(sink)?;
        }
        stats.absorb(&w.stats);
        eval.absorb(&w.eval);
        Ok((stats, eval, peak))
    }

    /// Incrementally republishes after a base-table mutation: maps `delta`
    /// through the conservative table → view-node dependency map
    /// ([`crate::TableDeps`]) and re-executes only the *top-most* affected
    /// view nodes, each under just the parent instances a changed row keys
    /// into ([`Run::narrowing`]), or under every instance when it cannot be
    /// narrowed. All re-executions share one frontier — one batch per
    /// (view node, wave) — and each root task holding a re-run parent is
    /// rebuilt from its own fragment and re-serialized; every other task
    /// entry is shared with `prev`. An affected root-level node replaces
    /// only its own run of root tasks. See
    /// [`crate::Session::republish_delta`] for the full contract.
    fn delta(
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
        // shared frontier: each pair grows under its own holder element,
        // and the wave loop batches per (view node, wave) across all
        // holders at once.
        let shared = Shared {
            tree,
            db,
            plans: self.plans,
            scans: None,
            use_plans: self.cfg.prepared,
            tracing: false,
            batched: true,
            collect_splice: true,
        };
        let mut w = BatchWorker::new(&shared);
        let wroot = w.doc.root();
        let mut patches: HashMap<usize, Patches> = HashMap::new();
        let mut frontier: Vec<Pending> = Vec::new();
        for &i in &walk {
            let task = &prev.tasks[i];
            for pid in task.fragment.descendants(task.fragment.root()) {
                let Some(entry) = task.entries.get(&pid) else {
                    continue;
                };
                let (Some(tops), Some(env)) = (tops_by_parent.get(&entry.view), &entry.child_env)
                else {
                    continue;
                };
                for top in tops.iter().filter(|t| t.selects(env)) {
                    let holder = w.doc.create_element("delta-holder");
                    w.doc.append_child(wroot, holder);
                    patches
                        .entry(i)
                        .or_default()
                        .entry(pid)
                        .or_default()
                        .push((top.vid, holder));
                    frontier.push(Pending {
                        parent: holder,
                        vid: top.vid,
                        env: ParamEnv::clone(env),
                    });
                }
            }
        }
        expand_frontier(&mut w, frontier)?;

        // Affected root-level nodes: a fresh root pass and task run for
        // just those nodes, exactly as a full publish cuts them.
        let mut fresh: HashMap<ViewNodeId, Vec<Arc<SpliceTask>>> = HashMap::new();
        let mut reexecuted = w.touched.clone();
        let mut eval = w.eval;
        if !root_tops.is_empty() {
            let (root_eval, _) = self.run_merged(
                &shared,
                |vid| root_tops.contains(&vid),
                &mut stats,
                |task, out| {
                    reexecuted.extend(&out.touched);
                    fresh
                        .entry(task.vid)
                        .or_default()
                        .push(Arc::new(SpliceTask::new(
                            task.vid,
                            out.doc,
                            out.splice,
                            &prev.slots,
                        )));
                },
            )?;
            eval.absorb(&root_eval);
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
                let mut graft = Graft {
                    old: &old.fragment,
                    old_splice: &old.entries,
                    patches: patch,
                    worker_doc: &w.doc,
                    worker_splice: &w.splice,
                    new_doc: Document::new(),
                    entries: HashMap::new(),
                    respliced: 0,
                };
                let new_root = graft.new_doc.root();
                graft.copy_children(old.fragment.root(), new_root);
                respliced += graft.respliced;
                tasks.push(Arc::new(SpliceTask::new(
                    old.view,
                    graft.new_doc,
                    graft.entries,
                    &prev.slots,
                )));
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

/// Old fragment parent → `(child view node, holder)` replacements of one
/// root task's graft.
type Patches = HashMap<xvc_xml::NodeId, Vec<(ViewNodeId, xvc_xml::NodeId)>>;

/// A top-most affected view node below the root level, with the parent
/// instances it re-runs under ([`Run::narrowing`]).
struct Top {
    vid: ViewNodeId,
    narrow: Option<NarrowKeys>,
}

impl Top {
    /// Whether the parent environment `env` is one this node re-runs
    /// under.
    fn selects(&self, env: &ParamEnv) -> bool {
        let Some(narrow) = &self.narrow else {
            return true;
        };
        narrow.iter().any(|((var, attr), keys)| {
            env.get(var)
                .and_then(|t| t.get(attr))
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
    use_plans: bool,
    tracing: bool,
    batched: bool,
    collect_splice: bool,
}

/// One root-level element instance to publish: a query-node tuple, or a
/// literal / context-copy element.
struct Task {
    vid: ViewNodeId,
    tag: String,
    /// 0-based occurrence index of `tag` among root-level siblings, for
    /// indexed trace paths.
    index: usize,
    tuple: Option<NamedTuple>,
}

/// What one task produced: a document fragment (the element subtree) plus
/// its private counters and trace entries.
struct TaskOut {
    doc: Document,
    stats: PublishStats,
    eval: EvalStats,
    trace: Vec<TraceEntry>,
    /// Splice provenance keyed by the fragment's node ids. Empty unless
    /// splice collection is on.
    splice: HashMap<xvc_xml::NodeId, SpliceEntry>,
    /// View nodes whose guard / tag batches the task issued (batched path
    /// only; node arena indexes).
    touched: BTreeSet<usize>,
}

/// Runs every task — inline when `parallel <= 1`, else on a scoped thread
/// pool — returning results in task order.
fn run_tasks(shared: &Shared<'_>, tasks: &[Task], parallel: usize) -> Vec<Option<Result<TaskOut>>> {
    let n = parallel.clamp(1, tasks.len().max(1));
    if n <= 1 {
        return tasks.iter().map(|t| Some(run_task(shared, t))).collect();
    }
    let slots: Vec<Mutex<Option<Result<TaskOut>>>> =
        tasks.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..n {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(task) = tasks.get(i) else { break };
                let out = run_task(shared, task);
                *slots[i].lock().expect("task slot") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("task slot"))
        .collect()
}

fn run_task(shared: &Shared<'_>, task: &Task) -> Result<TaskOut> {
    if shared.batched {
        return run_task_batched(shared, task);
    }
    let mut seed = HashMap::new();
    seed.insert(task.tag.clone(), task.index);
    let mut w = Worker::new(shared, seed);
    w.emit_instance(task.vid, &ParamEnv::new(), task.tuple.as_ref())?;
    Ok(TaskOut {
        doc: w.builder.finish(),
        stats: w.stats,
        eval: w.eval,
        trace: w.trace,
        splice: HashMap::new(),
        touched: BTreeSet::new(),
    })
}

/// Publishes one subtree task breadth-first: the frontier holds every
/// `(parent element, view node, bindings)` still to expand at the current
/// depth, and each (view node, frontier) pair runs **one** set-oriented
/// tag-query / guard execution for all its parents at once, with the rows
/// regrouped back to their parent elements afterwards. Document order is
/// preserved because a parent's pending view nodes are expanded in schema
/// order (ascending node id) and each batch returns per-binding rows in
/// the scalar path's row order.
fn run_task_batched(shared: &Shared<'_>, task: &Task) -> Result<TaskOut> {
    let tree = shared.tree;
    let mut w = BatchWorker::new(shared);
    let env = ParamEnv::new();
    let root = w.doc.root();
    let (el, child_env) = w.emit_node_instance(root, task.vid, &env, task.tuple.as_ref());

    let frontier: Vec<Pending> = tree
        .children(task.vid)
        .iter()
        .map(|&vid| Pending {
            parent: el,
            vid,
            env: child_env.clone(),
        })
        .collect();
    expand_frontier(&mut w, frontier)?;

    let trace = if shared.tracing {
        w.build_trace(task)
    } else {
        Vec::new()
    };
    Ok(TaskOut {
        doc: w.doc,
        stats: w.stats,
        eval: w.eval,
        trace,
        splice: w.splice,
        touched: w.touched,
    })
}

/// The level-at-a-time engine of the batched path: expands `frontier`
/// breadth-first to exhaustion inside `w`'s store. Factored out of
/// [`run_task_batched`] so [`crate::Session::republish_delta`] can seed it with
/// an arbitrary set of `(parent, view node, bindings)` slots instead of a
/// single task root, and generic over the [`WaveStore`] so the streaming
/// sink ([`Run::stream`]) runs the identical walk.
fn expand_frontier<S: WaveStore>(
    w: &mut BatchWorker<'_, S>,
    mut frontier: Vec<Pending<S::Id>>,
) -> Result<()> {
    let tree = w.shared.tree;
    while !frontier.is_empty() {
        let mut next: Vec<Pending<S::Id>> = Vec::new();
        // Group the level by view node, in schema (ascending id) order:
        // every parent sees its children appended in schema order, and
        // each group becomes at most one guard batch + one tag batch.
        let mut groups: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (i, p) in frontier.iter().enumerate() {
            groups.entry(p.vid.index()).or_default().push(i);
        }
        for (_, mut live) in groups {
            let vid = frontier[live[0]].vid;
            let node = tree.node(vid).expect("frontier holds non-root ids");

            if let Some(guard) = &node.guard {
                w.touched.insert(vid.index());
                let probe = guard_probe(guard);
                let envs: Vec<ParamEnv> = live.iter().map(|&i| frontier[i].env.clone()).collect();
                w.stats.queries_run += envs.len();
                let rels = w.run_batch(vid, Role::Guard, &probe, &envs)?;
                live = live
                    .iter()
                    .zip(&rels)
                    .filter(|(_, r)| !r.is_empty())
                    .map(|(&i, _)| i)
                    .collect();
            }

            if node.context_tuple_of.is_some() || node.query.is_none() {
                for &i in &live {
                    let p = &frontier[i];
                    let (el, child_env) = w.emit_node_instance(p.parent, vid, &p.env, None);
                    for &c in tree.children(vid) {
                        next.push(Pending {
                            parent: el,
                            vid: c,
                            env: child_env.clone(),
                        });
                    }
                }
                continue;
            }

            w.touched.insert(vid.index());
            let query = node.query.as_ref().expect("query node");
            let envs: Vec<ParamEnv> = live.iter().map(|&i| frontier[i].env.clone()).collect();
            let rels = w.run_batch(vid, Role::Tag, query, &envs)?;
            for (&i, rel) in live.iter().zip(&rels) {
                let p = &frontier[i];
                w.stats.queries_run += 1;
                w.stats.tuples_fetched += rel.len();
                for t in 0..rel.len() {
                    let tuple = rel.tuple(t);
                    let (el, child_env) = w.emit_node_instance(p.parent, vid, &p.env, Some(&tuple));
                    for &c in tree.children(vid) {
                        next.push(Pending {
                            parent: el,
                            vid: c,
                            env: child_env.clone(),
                        });
                    }
                }
            }
        }
        frontier = next;
    }
    Ok(())
}

/// Rebuilds one root task's fragment with fresh subtrees grafted in. The
/// arena [`Document`] has no node removal, so splicing is a copy walk:
/// unaffected nodes are copied verbatim from the old fragment; at a
/// patched parent, each stale child group (all instances of one view
/// node) is replaced by the matching holder's children from the delta
/// worker's document, at the stale group's sibling position.
struct Graft<'g> {
    old: &'g Document,
    old_splice: &'g HashMap<xvc_xml::NodeId, SpliceEntry>,
    /// Old parent node → `(child view node, holder)` replacements, sorted
    /// by ascending view-node index (sibling groups appear in that order).
    patches: &'g Patches,
    worker_doc: &'g Document,
    worker_splice: &'g HashMap<xvc_xml::NodeId, SpliceEntry>,
    new_doc: Document,
    /// Splice entries of the rebuilt fragment, filled during the walk.
    entries: HashMap<xvc_xml::NodeId, SpliceEntry>,
    respliced: usize,
}

impl Graft<'_> {
    /// Copies `old_parent`'s children under `new_parent`, applying this
    /// parent's patch list (if any) as a positional merge: a fresh group
    /// replaces the first stale instance of its view node in place; a
    /// group with no stale instances is inserted before the first sibling
    /// of a higher view-node index (sibling groups are emitted in
    /// ascending index order, so this is the position a full republish
    /// would produce).
    fn copy_children(&mut self, old_parent: xvc_xml::NodeId, new_parent: xvc_xml::NodeId) {
        let patch = self.patches.get(&old_parent).map_or(&[][..], Vec::as_slice);
        let replaced: std::collections::HashSet<usize> =
            patch.iter().map(|(vid, _)| vid.index()).collect();
        let mut pi = 0;
        for &c in self.old.children(old_parent) {
            let cv = self.old_splice.get(&c).map(|e| e.view.index());
            if let Some(cv) = cv {
                while pi < patch.len() && patch[pi].0.index() <= cv {
                    self.graft_holder(patch[pi].1, new_parent);
                    pi += 1;
                }
                if replaced.contains(&cv) {
                    continue;
                }
            }
            self.copy_old_subtree(c, new_parent);
        }
        while pi < patch.len() {
            self.graft_holder(patch[pi].1, new_parent);
            pi += 1;
        }
    }

    /// Appends every child of a delta-worker holder under `new_parent`.
    fn graft_holder(&mut self, holder: xvc_xml::NodeId, new_parent: xvc_xml::NodeId) {
        for &c in self.worker_doc.children(holder) {
            self.respliced += 1;
            copy_subtree(
                self.worker_doc,
                self.worker_splice,
                c,
                &mut self.new_doc,
                new_parent,
                &mut self.entries,
            );
        }
    }

    /// Copies one old subtree, descending with patch awareness (a patched
    /// parent can sit arbitrarily deep below an unaffected ancestor).
    fn copy_old_subtree(&mut self, old_id: xvc_xml::NodeId, new_parent: xvc_xml::NodeId) {
        let new_id = copy_node(
            self.old,
            self.old_splice,
            old_id,
            &mut self.new_doc,
            new_parent,
            &mut self.entries,
        );
        self.copy_children(old_id, new_id);
    }
}

/// Copies a single node (element or text) without its children, carrying
/// its splice entry over; returns the new id.
fn copy_node(
    src: &Document,
    src_splice: &HashMap<xvc_xml::NodeId, SpliceEntry>,
    src_id: xvc_xml::NodeId,
    dst: &mut Document,
    dst_parent: xvc_xml::NodeId,
    dst_splice: &mut HashMap<xvc_xml::NodeId, SpliceEntry>,
) -> xvc_xml::NodeId {
    let new_id = match src.kind(src_id) {
        xvc_xml::NodeKind::Element { name, attrs } => {
            let (name, attrs) = (name.clone(), attrs.clone());
            let el = dst.create_element(name);
            for (k, v) in attrs {
                dst.set_attr(el, k, v).expect("created as element");
            }
            el
        }
        xvc_xml::NodeKind::Text(t) => {
            let t = t.clone();
            dst.create_text(t)
        }
        xvc_xml::NodeKind::Root => unreachable!("roots are never copied"),
    };
    dst.append_child(dst_parent, new_id);
    if let Some(e) = src_splice.get(&src_id) {
        dst_splice.insert(new_id, e.clone());
    }
    new_id
}

/// Copies a whole subtree (used for grafting fresh delta subtrees).
fn copy_subtree(
    src: &Document,
    src_splice: &HashMap<xvc_xml::NodeId, SpliceEntry>,
    src_id: xvc_xml::NodeId,
    dst: &mut Document,
    dst_parent: xvc_xml::NodeId,
    dst_splice: &mut HashMap<xvc_xml::NodeId, SpliceEntry>,
) {
    let new_id = copy_node(src, src_splice, src_id, dst, dst_parent, dst_splice);
    for &c in src.children(src_id) {
        copy_subtree(src, src_splice, c, dst, new_id, dst_splice);
    }
}

/// One frontier slot: a view node still to expand under `parent` with the
/// bindings accumulated on the path down to it. Generic over the element
/// handle of the [`WaveStore`] the walk materializes into (arena
/// [`xvc_xml::NodeId`] by default).
struct Pending<Id = xvc_xml::NodeId> {
    parent: Id,
    vid: ViewNodeId,
    env: ParamEnv,
}

/// Where the batched frontier walk materializes elements: the arena
/// [`Document`] (full publishes, traces, delta splicing) or the reusable
/// per-task [`Skeleton`] drained by the streaming sink. The store only
/// sees the three structural operations the wave loop performs; the memo,
/// batching and statistics machinery is shared by both, so the two
/// emission back ends cannot drift apart.
trait WaveStore {
    /// Copyable element handle (hashable: provenance maps key on it).
    type Id: Copy + Eq + std::hash::Hash;
    /// Creates a detached element named `tag`.
    fn create_element(&mut self, tag: &str) -> Self::Id;
    /// Appends a freshly created element as `parent`'s last child.
    fn append_child(&mut self, parent: Self::Id, child: Self::Id);
    /// Sets an attribute; a duplicate name replaces the existing value
    /// **in place** (the arena contract, load-bearing for byte parity).
    fn set_attr(&mut self, el: Self::Id, name: &str, value: &str);
}

impl WaveStore for Document {
    type Id = xvc_xml::NodeId;

    fn create_element(&mut self, tag: &str) -> xvc_xml::NodeId {
        Document::create_element(self, tag)
    }

    fn append_child(&mut self, parent: xvc_xml::NodeId, child: xvc_xml::NodeId) {
        Document::append_child(self, parent, child);
    }

    fn set_attr(&mut self, el: xvc_xml::NodeId, name: &str, value: &str) {
        Document::set_attr(self, el, name, value).expect("created as element");
    }
}

/// Sentinel for "no node" in the skeleton's intrusive child lists.
const SKEL_NONE: u32 = u32::MAX;

/// Element handle inside a [`Skeleton`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SkelId(u32);

#[derive(Debug, Clone, Copy)]
struct SkelNode {
    /// Interned tag name.
    tag: u32,
    first_child: u32,
    last_child: u32,
    next_sibling: u32,
    /// This element's attributes are `attrs[attr_start..attr_start + attr_len]`
    /// (contiguous: the wave loop sets every attribute of an element
    /// before creating the next one).
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

/// The streaming path's per-task element store: just enough structure to
/// emit one root-level subtree in document order after its breadth-first
/// waves complete. Tag and attribute names are interned (a schema tree
/// has a handful of distinct names, reused across every task); attribute
/// values share one text buffer; child lists are intrusive `u32` links.
/// [`Skeleton::begin_task`] drains everything but keeps the capacity and
/// the name table, so steady-state publishing allocates almost nothing
/// and peak emission memory is bounded by the largest single task, not
/// the document.
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
}

impl Skeleton {
    /// Clears per-task state (keeping buffer capacity and interned names)
    /// and re-creates the synthetic task root.
    fn begin_task(&mut self) {
        self.nodes.clear();
        self.attrs.clear();
        self.text.clear();
        self.nodes.push(SkelNode {
            tag: SKEL_NONE,
            first_child: SKEL_NONE,
            last_child: SKEL_NONE,
            next_sibling: SKEL_NONE,
            attr_start: 0,
            attr_len: 0,
        });
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

    /// Heap bytes currently retained by the task buffers (capacities, not
    /// lengths — this is what the process actually holds on to).
    fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<SkelNode>()
            + self.attrs.capacity() * std::mem::size_of::<SkelAttr>()
            + self.text.capacity()
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
                for a in &self.attrs[n.attr_start as usize..(n.attr_start + n.attr_len) as usize] {
                    sink.attr(
                        &self.names[a.name as usize],
                        &self.text[a.val_start as usize..(a.val_start + a.val_len) as usize],
                    )?;
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
}

impl WaveStore for Skeleton {
    type Id = SkelId;

    fn create_element(&mut self, tag: &str) -> SkelId {
        let tag = self.intern(tag);
        let id = u32::try_from(self.nodes.len()).expect("task fits u32 nodes");
        self.nodes.push(SkelNode {
            tag,
            first_child: SKEL_NONE,
            last_child: SKEL_NONE,
            next_sibling: SKEL_NONE,
            attr_start: u32::try_from(self.attrs.len()).expect("attrs fit u32"),
            attr_len: 0,
        });
        SkelId(id)
    }

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

    fn set_attr(&mut self, el: SkelId, name: &str, value: &str) {
        let name = self.intern(name);
        let val_start = u32::try_from(self.text.len()).expect("values fit u32");
        self.text.push_str(value);
        let val_len = u32::try_from(value.len()).expect("value fits u32");
        let e = el.0 as usize;
        let (start, len) = (
            self.nodes[e].attr_start as usize,
            self.nodes[e].attr_len as usize,
        );
        if let Some(a) = self.attrs[start..start + len]
            .iter_mut()
            .find(|a| a.name == name)
        {
            // Mirror the arena: a duplicate name replaces the value at the
            // original attribute position.
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
}

/// Per-task state of the breadth-first walk. Unlike [`Worker`] it builds
/// its [`WaveStore`] directly (batched expansion appends to parents
/// created in earlier waves, which a forward-only builder cannot do):
/// the arena [`Document`] for full/delta publishes — with the trace
/// reconstructed afterwards in document order — or the [`Skeleton`] the
/// streaming sink drains.
struct BatchWorker<'a, S: WaveStore = Document> {
    shared: &'a Shared<'a>,
    doc: S,
    stats: PublishStats,
    eval: EvalStats,
    /// `(node, role, rendered binding values)` → relation, same scope and
    /// cap as the scalar worker's memo.
    memo: HashMap<(u32, Role, String), Relation>,
    /// Element provenance for trace reconstruction (tracing runs only).
    prov: HashMap<S::Id, (ViewNodeId, ParamEnv)>,
    /// Splice provenance (splice-collecting runs only).
    splice: HashMap<S::Id, SpliceEntry>,
    /// View nodes whose guard / tag batches this worker issued (delta-path
    /// soundness bookkeeping; node arena indexes).
    touched: BTreeSet<usize>,
}

impl<'a> BatchWorker<'a, Document> {
    fn new(shared: &'a Shared<'a>) -> Self {
        Self::with_store(shared, Document::new())
    }
}

impl<'a, S: WaveStore> BatchWorker<'a, S> {
    fn with_store(shared: &'a Shared<'a>, doc: S) -> Self {
        BatchWorker {
            shared,
            doc,
            stats: PublishStats::default(),
            eval: EvalStats::default(),
            memo: HashMap::new(),
            prov: HashMap::new(),
            splice: HashMap::new(),
            touched: BTreeSet::new(),
        }
    }

    /// Creates one element instance under `parent` — tag, static and
    /// projected tuple attributes, counters, provenance — and returns it
    /// with the environment its children run under. The per-node-kind
    /// logic mirrors [`Worker::emit_instance`] exactly.
    fn emit_node_instance(
        &mut self,
        parent: S::Id,
        vid: ViewNodeId,
        env: &ParamEnv,
        tuple: Option<&NamedTuple>,
    ) -> (S::Id, ParamEnv) {
        let node = self.shared.tree.node(vid).expect("non-root id");
        let el = self.doc.create_element(&node.tag);
        self.doc.append_child(parent, el);
        self.stats.elements += 1;
        if self.shared.tracing {
            self.prov.insert(el, (vid, env.clone()));
        }
        for (k, v) in &node.static_attrs {
            self.doc.set_attr(el, k, v);
            self.stats.attributes += 1;
        }
        let mut child_env = env.clone();
        if let Some(var) = &node.context_tuple_of {
            if let Some(t) = env.get(var) {
                let t = t.clone();
                for (k, v) in project_attrs(&node.attrs, &t.columns, &t.values) {
                    self.doc.set_attr(el, k, &v);
                    self.stats.attributes += 1;
                }
                if !node.bv.is_empty() {
                    child_env.insert(node.bv.clone(), t);
                }
            }
        } else if let Some(t) = tuple {
            for (k, v) in project_attrs(&node.attrs, &t.columns, &t.values) {
                self.doc.set_attr(el, k, &v);
                self.stats.attributes += 1;
            }
            child_env.insert(node.bv.clone(), t.clone());
        }
        if self.shared.collect_splice {
            let has_children = !self.shared.tree.children(vid).is_empty();
            self.splice.insert(
                el,
                SpliceEntry {
                    view: vid,
                    child_env: has_children.then(|| Arc::new(child_env.clone())),
                },
            );
        }
        (el, child_env)
    }

    /// Set-oriented counterpart of [`Worker::run_tag_query`]: one relation
    /// per environment, in order. Memo semantics are emulated exactly
    /// (hits, misses, cap-bounded inserts) by resolving every binding's
    /// memo key first and batching only the environments the scalar path
    /// would have sent to the engine.
    fn run_batch(
        &mut self,
        vid: ViewNodeId,
        role: Role,
        q: &SelectQuery,
        envs: &[ParamEnv],
    ) -> Result<Vec<Relation>> {
        if envs.is_empty() {
            return Ok(Vec::new());
        }
        let key_base = vid.index() as u32;
        if self.shared.use_plans {
            if let Some(PlanEntry::Ready(plan)) = self.shared.plans.get(&(key_base, role)) {
                let mut out: Vec<Option<Relation>> = vec![None; envs.len()];
                // env index → slot in `pending` whose result it shares.
                let mut share: Vec<usize> = vec![usize::MAX; envs.len()];
                let mut pending: Vec<usize> = Vec::new();
                // memo key → (pending slot of its first execution, whether
                // that execution will be inserted into the memo).
                let mut in_flight: HashMap<String, (usize, bool)> = HashMap::new();
                let mut planned_inserts = 0usize;
                for (i, env) in envs.iter().enumerate() {
                    match memo_key(plan.slots(), env) {
                        Some(key) => {
                            if let Some(hit) = self.memo.get(&(key_base, role, key.clone())) {
                                self.stats.memo_hits += 1;
                                out[i] = Some(hit.clone());
                            } else if let Some(&(slot, will_insert)) = in_flight.get(&key) {
                                // Scalar would find the first execution's
                                // insert (hit) — or, past the cap, miss and
                                // re-execute; the engine work is shared
                                // either way, only the counter differs.
                                if will_insert {
                                    self.stats.memo_hits += 1;
                                } else {
                                    self.stats.memo_misses += 1;
                                }
                                share[i] = slot;
                            } else {
                                self.stats.memo_misses += 1;
                                let will_insert = self.memo.len() + planned_inserts < MEMO_CAP;
                                if will_insert {
                                    planned_inserts += 1;
                                }
                                in_flight.insert(key, (pending.len(), will_insert));
                                share[i] = pending.len();
                                pending.push(i);
                            }
                        }
                        // Unresolvable slots bypass the memo, exactly like
                        // the scalar path (the execution itself reports the
                        // unbound parameter, if the plan reaches it).
                        None => {
                            share[i] = pending.len();
                            pending.push(i);
                        }
                    }
                }
                if !pending.is_empty() {
                    let penvs: Vec<ParamEnv> = pending.iter().map(|&i| envs[i].clone()).collect();
                    let batch = plan.execute_batch_shared(
                        self.shared.db,
                        &penvs,
                        self.shared.scans.and_then(|s| s.get(&(key_base, role))),
                        &mut self.eval,
                    )?;
                    self.stats.batches_executed += 1;
                    self.stats.bindings_per_batch_max =
                        self.stats.bindings_per_batch_max.max(penvs.len());
                    self.stats.rows_regrouped += batch.total_rows();
                    let rels = batch.into_relations();
                    for (key, (slot, will_insert)) in in_flight {
                        if will_insert {
                            self.memo.insert((key_base, role, key), rels[slot].clone());
                        }
                    }
                    for (i, slot) in out.iter_mut().zip(&share) {
                        if i.is_none() {
                            *i = Some(rels[*slot].clone());
                        }
                    }
                }
                return Ok(out
                    .into_iter()
                    .map(|r| r.expect("every env is memo-served or batched"))
                    .collect());
            }
        }
        // Interpreter fallback: per environment, identical to the scalar
        // path (no batch counters — nothing was batched).
        let mut rels = Vec::with_capacity(envs.len());
        for env in envs {
            rels.push(eval_query_stats(
                self.shared.db,
                q,
                env,
                EvalOptions::default(),
                &mut self.eval,
            )?);
        }
        Ok(rels)
    }
}

/// Trace reconstruction is arena-only: the streaming sink never traces
/// (the materializing fallback handles traced publishes).
impl BatchWorker<'_, Document> {
    /// Reconstructs the scalar path's pre-order trace from the finished
    /// fragment: indexed paths from per-level same-tag sibling counts,
    /// provenance from the map filled at element creation.
    fn build_trace(&self, task: &Task) -> Vec<TraceEntry> {
        let mut entries = Vec::new();
        let mut path: Vec<String> = Vec::new();
        let mut seed = HashMap::new();
        seed.insert(task.tag.clone(), task.index);
        let mut counts: Vec<HashMap<String, usize>> = vec![seed];
        self.walk_trace(self.doc.root(), &mut path, &mut counts, &mut entries);
        entries
    }

    fn walk_trace(
        &self,
        node: xvc_xml::NodeId,
        path: &mut Vec<String>,
        counts: &mut Vec<HashMap<String, usize>>,
        entries: &mut Vec<TraceEntry>,
    ) {
        for &child in self.doc.children(node) {
            let Some(tag) = self.doc.name(child) else {
                continue;
            };
            let level = counts.last_mut().expect("counts is never empty");
            let n = level.entry(tag.to_owned()).or_insert(0);
            *n += 1;
            path.push(format!("{tag}[{n}]"));
            counts.push(HashMap::new());
            if let Some((vid, env)) = self.prov.get(&child) {
                entries.push(TraceEntry {
                    path: format!("/{}", path.join("/")),
                    view: *vid,
                    env: env.clone(),
                });
            }
            self.walk_trace(child, path, counts, entries);
            path.pop();
            counts.pop();
        }
    }
}

/// Per-task publishing state: its own builder, counters, trace slice and
/// result memo (memoization is task-scoped so statistics cannot depend on
/// how tasks are spread over threads).
struct Worker<'a> {
    shared: &'a Shared<'a>,
    builder: TreeBuilder,
    stats: PublishStats,
    eval: EvalStats,
    trace: Vec<TraceEntry>,
    /// Indexed path segments of currently open elements.
    path: Vec<String>,
    /// Per open level: same-tag sibling counts emitted so far (the task's
    /// base level is the first entry).
    sibling_counts: Vec<HashMap<String, usize>>,
    /// `(node, role, rendered binding values)` → relation.
    memo: HashMap<(u32, Role, String), Relation>,
}

impl<'a> Worker<'a> {
    fn new(shared: &'a Shared<'a>, seed_counts: HashMap<String, usize>) -> Self {
        Worker {
            shared,
            builder: TreeBuilder::new(),
            stats: PublishStats::default(),
            eval: EvalStats::default(),
            trace: Vec::new(),
            path: Vec::new(),
            sibling_counts: vec![seed_counts],
            memo: HashMap::new(),
        }
    }

    /// Executes a node's tag query (or guard probe): through its cached
    /// prepared plan and the result memo when available, else through the
    /// interpreter.
    fn run_tag_query(
        &mut self,
        vid: ViewNodeId,
        role: Role,
        q: &SelectQuery,
        env: &ParamEnv,
    ) -> Result<Relation> {
        if self.shared.use_plans {
            if let Some(PlanEntry::Ready(plan)) = self.shared.plans.get(&(vid.index() as u32, role))
            {
                if let Some(key) = memo_key(plan.slots(), env) {
                    let mk = (vid.index() as u32, role, key);
                    if let Some(hit) = self.memo.get(&mk) {
                        self.stats.memo_hits += 1;
                        return Ok(hit.clone());
                    }
                    let rel = plan.execute_stats(self.shared.db, env, &mut self.eval)?;
                    self.stats.memo_misses += 1;
                    if self.memo.len() < MEMO_CAP {
                        self.memo.insert(mk, rel.clone());
                    }
                    return Ok(rel);
                }
                return Ok(plan.execute_stats(self.shared.db, env, &mut self.eval)?);
            }
        }
        Ok(eval_query_stats(
            self.shared.db,
            q,
            env,
            EvalOptions::default(),
            &mut self.eval,
        )?)
    }

    /// Opens an element, maintaining the indexed path and trace.
    fn open(&mut self, tag: &str, vid: ViewNodeId, env: &ParamEnv) {
        self.builder.open(tag);
        self.stats.elements += 1;
        let level = self
            .sibling_counts
            .last_mut()
            .expect("sibling_counts is never empty");
        let n = level.entry(tag.to_owned()).or_insert(0);
        *n += 1;
        self.path.push(format!("{tag}[{n}]"));
        self.sibling_counts.push(HashMap::new());
        if self.shared.tracing {
            self.trace.push(TraceEntry {
                path: format!("/{}", self.path.join("/")),
                view: vid,
                env: env.clone(),
            });
        }
    }

    fn close(&mut self) {
        self.builder.close();
        self.path.pop();
        self.sibling_counts.pop();
    }

    fn emit_attr(&mut self, name: &str, value: String) {
        self.builder.attr(name, value);
        self.stats.attributes += 1;
    }

    fn emit_static_attrs(&mut self, vid: ViewNodeId) {
        let node = self.shared.tree.node(vid).expect("caller validated vid");
        for (k, v) in node.static_attrs.clone() {
            self.emit_attr(&k, v);
        }
    }

    /// Emits projected tuple columns as attributes (see [`project_attrs`]).
    fn emit_tuple_attrs(
        &mut self,
        attrs: &AttrProjection,
        columns: &[String],
        values: &[xvc_rel::Value],
    ) {
        for (c, v) in project_attrs(attrs, columns, values) {
            self.emit_attr(c, v);
        }
    }

    /// Publishes one already-guarded element instance: the entry point of a
    /// root-level task (guards of root children run in the main pass).
    fn emit_instance(
        &mut self,
        vid: ViewNodeId,
        env: &ParamEnv,
        tuple: Option<&NamedTuple>,
    ) -> Result<()> {
        let tree = self.shared.tree;
        let node = tree.node(vid).expect("non-root id");

        if let Some(var) = &node.context_tuple_of {
            self.open(&node.tag, vid, env);
            self.emit_static_attrs(vid);
            let mut child_env = env.clone();
            if let Some(t) = env.get(var) {
                let t = t.clone();
                self.emit_tuple_attrs(&node.attrs.clone(), &t.columns, &t.values);
                if !node.bv.is_empty() {
                    child_env.insert(node.bv.clone(), t);
                }
            }
            for &child in tree.children(vid) {
                self.publish_node(child, &child_env)?;
            }
            self.close();
            return Ok(());
        }

        match (&node.query, tuple) {
            (Some(_), Some(t)) => {
                self.open(&node.tag, vid, env);
                self.emit_static_attrs(vid);
                self.emit_tuple_attrs(&node.attrs.clone(), &t.columns, &t.values);
                if !tree.children(vid).is_empty() {
                    let mut child_env = env.clone();
                    child_env.insert(node.bv.clone(), t.clone());
                    for &child in tree.children(vid) {
                        self.publish_node(child, &child_env)?;
                    }
                }
                self.close();
            }
            (None, _) => {
                self.open(&node.tag, vid, env);
                self.emit_static_attrs(vid);
                for &child in tree.children(vid) {
                    self.publish_node(child, env)?;
                }
                self.close();
            }
            (Some(_), None) => unreachable!("query-node tasks always carry a tuple"),
        }
        Ok(())
    }

    /// Full per-node logic (guard, context copy, literal, query) for
    /// non-root-level descendants.
    fn publish_node(&mut self, vid: ViewNodeId, env: &ParamEnv) -> Result<()> {
        let tree = self.shared.tree;
        let node = tree
            .node(vid)
            .expect("publish_node is never called on root");

        // Emission guard: `SELECT 1 WHERE guard` over the current bindings.
        if let Some(guard) = &node.guard {
            let probe = guard_probe(guard);
            self.stats.queries_run += 1;
            if self
                .run_tag_query(vid, Role::Guard, &probe, env)?
                .is_empty()
            {
                return Ok(());
            }
        }

        if node.context_tuple_of.is_some() || node.query.is_none() {
            return self.emit_instance(vid, env, None);
        }

        let query = node.query.as_ref().expect("query node");
        let rel: Relation = self.run_tag_query(vid, Role::Tag, query, env)?;
        self.stats.queries_run += 1;
        self.stats.tuples_fetched += rel.len();
        for i in 0..rel.len() {
            self.emit_instance(vid, env, Some(&rel.tuple(i)))?;
        }
        Ok(())
    }
}

/// The memo key for one execution: the rendered values of every binding
/// slot the plan actually reads. `None` (memo bypass) when a slot cannot be
/// resolved — the execution then reports the unbound parameter itself.
fn memo_key(slots: &[(String, String)], env: &ParamEnv) -> Option<String> {
    let mut key = String::new();
    for (var, column) in slots {
        let v = env.get(var)?.get(column)?;
        key.push_str(&format!("{v:?}"));
        key.push('\u{1f}');
    }
    Some(key)
}

/// Projects tuple columns into attribute `(name, value)` pairs: NULLs
/// omitted, first occurrence wins on duplicate column names. Both the
/// scalar and the batched worker emit through this, so their attribute
/// output cannot drift apart.
fn project_attrs<'c>(
    attrs: &AttrProjection,
    columns: &'c [String],
    values: &[xvc_rel::Value],
) -> Vec<(&'c str, String)> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for (c, val) in columns.iter().zip(values) {
        let wanted = match attrs {
            AttrProjection::All => true,
            AttrProjection::None => false,
            AttrProjection::Columns(cols) => cols.iter().any(|x| x == c),
        };
        if !wanted || val.is_null() || !seen.insert(c.as_str()) {
            continue;
        }
        out.push((c.as_str(), val.render()));
    }
    out
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

    #[test]
    fn interpreter_and_prepared_paths_agree() {
        let tree = view();
        let db = db();
        // Scalar prepared execution mirrors the interpreter exactly, down
        // to the engine counters; the batched path shares the document but
        // reports its own (smaller) engine work, so it is compared
        // separately in `batched_and_scalar_paths_agree`.
        let prepared = Engine::new(&tree)
            .batched(false)
            .session()
            .publish(&db)
            .unwrap();
        let interpreted = Engine::new(&tree)
            .prepared(false)
            .session()
            .publish(&db)
            .unwrap();
        assert_eq!(prepared.document.to_xml(), interpreted.document.to_xml());
        assert_eq!(prepared.eval, interpreted.eval);
        assert_eq!(interpreted.stats.plans_prepared, 0);
    }

    #[test]
    fn batched_and_scalar_paths_agree() {
        let tree = view();
        let db = db();
        let scalar = Engine::new(&tree)
            .batched(false)
            .traced(true)
            .session()
            .publish(&db)
            .unwrap();
        let batched = Engine::new(&tree)
            .traced(true)
            .session()
            .publish(&db)
            .unwrap();
        assert_eq!(batched.document.to_xml(), scalar.document.to_xml());
        let (bt, st) = (batched.trace.unwrap(), scalar.trace.unwrap());
        assert_eq!(bt.entries.len(), st.entries.len());
        for (b, s) in bt.entries.iter().zip(&st.entries) {
            assert_eq!(b.path, s.path);
            assert_eq!(b.view, s.view);
            assert_eq!(b.env, s.env);
        }
        assert_eq!(batched.stats.without_batch_counters(), scalar.stats);
        assert_eq!(scalar.stats.batches_executed, 0);
        // One batch per metro task's hotel level.
        assert_eq!(batched.stats.batches_executed, 2);
        assert_eq!(batched.stats.rows_regrouped, 2);
    }

    #[test]
    fn batched_interpreter_matches_scalar_interpreter_exactly() {
        // Without prepared plans there is nothing to batch: the frontier
        // walk degenerates to per-parent interpretation and even the
        // engine counters must be identical.
        let tree = view();
        let db = db();
        let scalar = Engine::new(&tree)
            .prepared(false)
            .batched(false)
            .session()
            .publish(&db)
            .unwrap();
        let batched = Engine::new(&tree)
            .prepared(false)
            .session()
            .publish(&db)
            .unwrap();
        assert_eq!(batched.document.to_xml(), scalar.document.to_xml());
        assert_eq!(batched.eval, scalar.eval);
        assert_eq!(batched.stats, scalar.stats);
        assert_eq!(batched.stats.batches_executed, 0);
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
    fn memo_reuses_equal_bindings() {
        // metro -> hotel -> home: the `home` plan reads only $h.metro_id,
        // which is equal for both hotels under metro 1, so the second
        // sibling is a memo hit inside that subtree task (the memo is
        // task-scoped, so reuse never crosses root-level siblings).
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
        let p = publish_one(&t, &database).unwrap();
        // metro 1 has two hotels with the same metro_id: one hit.
        assert_eq!(p.stats.memo_hits, 1, "{:?}", p.stats);
        // The memoized relation still counts as a query run.
        assert_eq!(p.stats.queries_run, 1 + 2 + 3);
        // ... but skips the engine entirely. Both metro tasks share one
        // hotel scan and one home scan.
        assert_eq!(p.eval.queries, 1 + 1 + 1);
        // Document content identical to the interpreter's.
        let i = Engine::new(&t)
            .prepared(false)
            .session()
            .publish(&database)
            .unwrap();
        assert_eq!(p.document.to_xml(), i.document.to_xml());
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
        // One entry per root task, whose fragment-local entries cover every
        // element; the segments concatenate to the document.
        assert_eq!(splice.tasks.len(), 2);
        let entries: usize = splice.tasks.iter().map(|t| t.entries.len()).sum();
        assert_eq!(entries, p.stats.elements);
        assert_eq!(splice.xml(), p.document.to_xml());
        let (metro, hotel) = (
            tree.find_by_paper_id(1).unwrap(),
            tree.find_by_paper_id(3).unwrap(),
        );
        for task in &splice.tasks {
            assert_eq!(task.view, metro);
            let doc = &task.fragment;
            assert_eq!(task.xml, doc.to_xml());
            // The task's root element carries its own binding in child_env;
            // leaves (hotels) carry no environment at all.
            for node in doc.descendants(doc.root()) {
                let e = &task.entries[&node];
                if e.view == metro {
                    assert!(e.child_env.as_ref().unwrap().contains_key("m"));
                } else {
                    assert_eq!(e.view, hotel);
                    assert!(e.child_env.is_none());
                }
            }
        }
    }

    #[test]
    fn memo_hits_do_not_count_rows_regrouped() {
        // metro -> hotel -> home, where `home` reads only $h.metro_id:
        // under metro 1 the second hotel is a memo hit, so its parent is
        // served without entering the batch — rows_regrouped must count
        // the engine-executed bindings' rows only.
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
            assert_eq!(p.stats.memo_hits, 1, "{:?}", p.stats);
            // hotel rows: 2 under metro 1 + 1 under metro 2; home rows:
            // one per *executed* home batch binding (metro 1's second
            // hotel is memo-served): 1 + 1. Counting memo hits too would
            // give 6.
            assert_eq!(p.stats.rows_regrouped, 3 + 2, "{:?}", p.stats);
            // One hotel batch + one home batch per metro task.
            assert_eq!(p.stats.batches_executed, 4);
            assert_eq!(p.stats.bindings_per_batch_max, 1);
            // Scalar parity on everything that is not batch-only.
            let s = Engine::new(&t)
                .batched(false)
                .parallel(threads)
                .session()
                .publish(&database)
                .unwrap();
            assert_eq!(p.stats.without_batch_counters(), s.stats);
            assert_eq!(p.document.to_xml(), s.document.to_xml());
        }
    }
}
