//! Prepared query plans: compile once, execute per parameter binding.
//!
//! The publisher evaluates each schema-tree tag query once *per parent
//! tuple* (Definition 1), so the interpreter re-classifies predicates,
//! re-derives the join order and re-resolves `$var.column` parameters on
//! every call — an N+1 planning pattern. [`prepare`] hoists all of that
//! to compile time:
//!
//! * **predicate classification** — WHERE conjuncts are split and assigned
//!   to scans (pushdown), hash-join keys, joined-prefix filters or
//!   residuals using the *same* `pub(crate)` helpers the interpreter
//!   uses (`split_and`, `resolvable_within`, `equi_pair_layouts`), so the
//!   plan and interpreted execution can never disagree, and
//!   [`PreparedPlan::describe`] — the one plan printer `xvc explain`
//!   uses — renders the plan that runs;
//! * **join order and strategy** — fixed at compile time from
//!   catalog-derived layouts (which always equal the runtime layouts);
//! * **parameter slots** — every `$var.column` becomes a numbered slot,
//!   resolved lazily against the environment ([`Bindings`], such as a
//!   [`ParamEnv`]) at most once per execution (the interpreter does a hash
//!   lookup per reference per row);
//! * **fused scan + pushdown** — base-table rows are filtered while
//!   scanning, so rows rejected by a pushdown predicate are never cloned
//!   (the interpreter copies the whole table first, then filters).
//!
//! [`PreparedPlan::execute`] produces the same [`Relation`] — and
//! [`PreparedPlan::execute_stats`] the same [`EvalStats`] counters — as
//! `eval_query` / `eval_query_stats` on the same input; a property test
//! in `tests/prop_plan.rs` enforces the equivalence. Queries the
//! interpreter rejects at evaluation time (duplicate aliases, ambiguous
//! unqualified columns, aggregates in WHERE) are rejected by [`prepare`]
//! instead, which is the point: a cached plan fails at publish *setup*,
//! not on the thousandth tuple.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

use crate::ast::{AggFunc, BinOp, ScalarExpr, SelectItem, SelectQuery, TableRef};
use crate::domain::{Card, CardBound};
use crate::error::{Error, Result};
use crate::eval::{
    ambiguity_from_sets, cols_set, contains_exists, equi_pair_layouts, eval_binop, item_names,
    key_of, output_columns, resolvable_within, split_and, AggAcc, EvalOptions, EvalStats, Key,
    Layout, ParamEnv, Relation, Scope,
};
use crate::facts::{query_cardinality, FactSet};
use crate::schema::{Catalog, TableSchema};
use crate::table::Database;
use crate::value::{Identity, Value};

// ---------------------------------------------------------------------------
// Plan representation
// ---------------------------------------------------------------------------

/// A compiled scalar expression: parameters interned to slots, EXISTS
/// subqueries compiled to nested blocks. Column references keep their
/// written form and resolve through the runtime [`Scope`] chain, which
/// preserves the interpreter's correlation and ambiguity semantics.
#[derive(Debug, Clone)]
enum PExpr {
    Column {
        qualifier: Option<String>,
        name: String,
    },
    Slot(usize),
    Literal(Value),
    Binary {
        op: BinOp,
        lhs: Box<PExpr>,
        rhs: Box<PExpr>,
    },
    Not(Box<PExpr>),
    IsNull(Box<PExpr>),
    Exists(Box<PlanBlock>),
    Aggregate {
        func: AggFunc,
        arg: Option<Box<PExpr>>,
    },
}

#[derive(Debug, Clone)]
enum PlanSource {
    /// Base-table scan.
    Scan(String),
    /// Derived table: a nested compiled block.
    Derived(Box<PlanBlock>),
}

/// How a base table's rows reach the fused pushdown filter.
#[derive(Debug, Clone)]
enum Access {
    /// Read every stored row.
    FullScan,
    /// Probe the declared secondary index on `column` with the value of
    /// `key` (a literal or parameter slot), fetching candidate rows only.
    /// The originating equality stays in the pushdown list as the exact
    /// recheck, so NULL/NaN/zero-sign semantics match the scan path.
    IndexEq { column: usize, key: Box<PExpr> },
}

/// One FROM item with its compile-time classification results.
#[derive(Debug, Clone)]
struct PlanFrom {
    source: PlanSource,
    /// This item's alias-qualified column layout.
    layout: Layout,
    /// Joined layout of all items before this one (hash-probe side).
    prev_layout: Layout,
    /// Joined layout including this item (prefix-filter scope).
    joined_layout: Layout,
    /// Conjuncts resolvable within this item alone — applied during the
    /// scan (fused) or right after a derived block evaluates.
    pushdown: Vec<PExpr>,
    /// Selected access path for a base-table source (always
    /// [`Access::FullScan`] for derived tables).
    access: Access,
    /// Equi-join keys against the joined prefix, as (prev-side, this-side)
    /// expression pairs. Empty means cross product.
    join_keys: Vec<(PExpr, PExpr)>,
    /// Conjuncts that became resolvable over the joined prefix.
    prefix_filters: Vec<PExpr>,
    /// Preserved-side derived table (left-outer padding semantics).
    preserved: bool,
    /// Cardinality-driven join strategy: the joined prefix is statically
    /// bounded to at most one row, so the hash build over this item is
    /// skipped and the (at most one) prefix row filters this item's rows
    /// directly. Same rows, same order, same counters as the hash path —
    /// but no hash table is materialized.
    filter_probe: bool,
}

#[derive(Debug, Clone)]
enum PlanItem {
    Star,
    QualifiedStar(String),
    Expr(PExpr),
}

/// One compiled query block (top level, derived table or EXISTS subquery).
#[derive(Debug, Clone)]
struct PlanBlock {
    from: Vec<PlanFrom>,
    /// Conjuncts left after classification: EXISTS and outer references.
    residuals: Vec<PExpr>,
    select: Vec<PlanItem>,
    group_by: Vec<PExpr>,
    having: Option<PExpr>,
    distinct: bool,
    aggregating: bool,
    /// Full joined FROM layout (projection scope).
    layout: Layout,
    /// Output column names, precomputed.
    columns: Vec<String>,
}

/// A query compiled once against a [`Catalog`], executable any number of
/// times against databases of that catalog with varying parameter
/// bindings. Owns all of its data, so it is `Send + Sync` and can be
/// shared across publisher worker threads.
#[derive(Debug, Clone)]
pub struct PreparedPlan {
    root: PlanBlock,
    /// Interned `$var.column` parameter slots in first-reference order.
    slots: Vec<(String, String)>,
    options: EvalOptions,
    /// Set-oriented strategy for [`PreparedPlan::execute_batch`],
    /// precomputed when every slot reference is a separable top-level
    /// equality (`None` falls back to per-distinct-binding execution).
    batch: Option<BatchPlan>,
    /// A parameterized equality in the root block rides a secondary index:
    /// [`PreparedPlan::execute_batch`] then runs index-nested-loop — one
    /// indexed execution per distinct binding — instead of the shared
    /// full scan + binding hash-join, since per-binding lookups touch only
    /// matching rows while the shared pipeline reads the whole table.
    index_loop: bool,
    /// Static row-count bound for one parameter valuation, derived at
    /// prepare time from `PRIMARY KEY` constraints and equality pushdowns
    /// ([`query_cardinality`]), with its justifying fact chain.
    bound: CardBound,
    /// Caller-supplied bound on the *number of bindings* a batch will
    /// carry (the publisher's per-parent fan-out bound for the view node
    /// that owns this plan). When it proves at most one binding per
    /// batch, the shared-pipeline batch strategy is demoted to scalar
    /// execution: scanning the whole table to serve one binding does
    /// strictly more work than one filtered (or indexed) execution. A
    /// batch handed a [`SharedScan`] is never demoted — its one scan
    /// serves every batch that shares the slot.
    binding_bound: Card,
    /// Per base table the plan can narrow a delta by: see
    /// [`PreparedPlan::row_key`].
    row_keys: Vec<(String, RowKey)>,
}

/// A top-level `T.col = $var.attr` conjunct pushed into the plan's only
/// scan of base table `T` ([`PreparedPlan::row_key`]). Every row the plan
/// returns for a binding derives from rows of `T` whose `col` equals that
/// binding's `$var.attr`, since rows failing a pushdown never leave the
/// scan. So inserting or deleting rows of `T` can change the result only
/// for bindings whose `$var.attr` matches a changed row's `col`, compared
/// as [`JoinKey`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowKey {
    /// Position of `col` in `T`'s schema.
    pub column: usize,
    /// The binding side, `(var, attr)`.
    pub param: (String, String),
}

/// A non-NULL value under the batch hash join's key normalisation. Values
/// that are SQL-equal always have equal keys, so matching keys may
/// over-approximate `=` (NaN, integers past 2^53) but never misses an
/// equal pair. NULL has no key: it equals nothing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JoinKey(Key);

impl JoinKey {
    /// The key of `v`, or `None` for NULL.
    pub fn of(v: &Value) -> Option<JoinKey> {
        (!v.is_null()).then(|| JoinKey(batch_key_of(v)))
    }
}

/// What `$var.column` parameters resolve against: the tuple each binding
/// variable is bound to. [`ParamEnv`] implements it; so can a caller's own
/// environment type, which [`PreparedPlan::execute_batch_shared`] then
/// reads by reference instead of through a copied `ParamEnv`.
pub trait Bindings {
    /// The column names and the values `var` is bound to, if it is bound.
    fn tuple(&self, var: &str) -> Option<(&[String], &[Value])>;

    /// True when no variable is bound. Executions under a non-empty
    /// environment are the ones `param_queries` counts.
    fn is_empty(&self) -> bool;

    /// The value of `$var.column`: the first column of that name in
    /// `var`'s tuple.
    ///
    /// # Errors
    ///
    /// [`Error::UnboundParameter`] when `var` is not bound, and
    /// [`Error::ParameterColumn`] when its tuple has no `column`.
    fn value(&self, var: &str, column: &str) -> Result<&Value> {
        let (columns, values) = self.tuple(var).ok_or_else(|| Error::UnboundParameter {
            var: var.to_owned(),
        })?;
        columns
            .iter()
            .position(|c| c == column)
            .map(|i| &values[i])
            .ok_or_else(|| Error::ParameterColumn {
                var: var.to_owned(),
                column: column.to_owned(),
            })
    }
}

impl Bindings for ParamEnv {
    fn tuple(&self, var: &str) -> Option<(&[String], &[Value])> {
        self.get(var).map(|t| (&t.columns[..], &t.values[..]))
    }

    fn is_empty(&self) -> bool {
        HashMap::is_empty(self)
    }
}

impl<B: Bindings + ?Sized> Bindings for &B {
    fn tuple(&self, var: &str) -> Option<(&[String], &[Value])> {
        (**self).tuple(var)
    }

    fn is_empty(&self) -> bool {
        (**self).is_empty()
    }
}

/// A per-caller slot holding one plan's binding-free batch pipeline, so
/// that many [`PreparedPlan::execute_batch_shared`] calls scan and hash the
/// base tables once between them instead of once each.
///
/// The first batch that reaches the shared pipeline builds it: it runs the
/// stripped scan/join pipeline, indexes the rows by the deferred binding
/// keys, and counts that work (`queries`, `rows_scanned`,
/// `hash_join_builds`, `hash_join_build_rows`, …) in its own statistics.
/// Every later batch only probes the index. If the pipeline raised an
/// error, the slot remembers that, and every batch runs per binding, like
/// an unshared batch whose pipeline failed.
///
/// A slot caches rows, so it is valid for one plan over one unchanged
/// [`Database`]: the caller creates it for a single pass (a publish) and
/// drops it afterwards. It never belongs in a plan cache, since DML changes
/// rows without changing the catalog the plans were compiled against.
#[derive(Debug, Default)]
pub struct SharedScan {
    pipeline: OnceLock<Pipeline>,
}

/// What running a plan's binding-free pipeline produced.
#[derive(Debug)]
enum Pipeline {
    /// The stripped pipeline's rows, indexed by their deferred key values.
    /// Rows with a NULL key are left out of the index, since NULL never
    /// equi-joins.
    Built {
        rows: Vec<Vec<Value>>,
        index: HashMap<BatchKey, Vec<usize>>,
    },
    /// The pipeline raised an error on rows the per-binding filters would
    /// have dropped first, so batches execute per binding instead.
    Failed,
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

/// Compiles `q` against `catalog` under default [`EvalOptions`].
pub fn prepare(q: &SelectQuery, catalog: &Catalog) -> Result<PreparedPlan> {
    prepare_with(q, catalog, EvalOptions::default())
}

/// [`prepare`] with explicit [`EvalOptions`]. The options are baked into
/// the plan (e.g. with `hash_joins` off no equi-keys are selected), so
/// executing it always behaves like `eval_query_with` under the same
/// options.
pub fn prepare_with(
    q: &SelectQuery,
    catalog: &Catalog,
    options: EvalOptions,
) -> Result<PreparedPlan> {
    let mut compiler = Compiler {
        catalog,
        options,
        slots: Vec::new(),
    };
    let mut root = compiler.compile_block(q)?;

    // Cardinality pass: per-item bounds drive the join strategy (a
    // provably <= 1 row joined prefix probes by filtering instead of
    // building a hash table), the total bound is kept on the plan for
    // `describe()`/`xvc explain` and the publisher's batch sizing.
    let card = query_cardinality(q, catalog, &FactSet::new());
    let mut prefix = Card::AtMostOne;
    for (i, item) in root.from.iter_mut().enumerate() {
        if i > 0 && options.hash_joins && prefix.at_most_one() && !item.join_keys.is_empty() {
            item.filter_probe = true;
        }
        prefix = prefix.times(
            card.per_item_prefix
                .get(i)
                .copied()
                .unwrap_or(Card::Unbounded),
        );
    }

    let batch = analyze_batch(&root, compiler.slots.len());
    let index_loop = batch.is_some()
        && root
            .from
            .iter()
            .any(|f| matches!(&f.access, Access::IndexEq { key, .. } if count_slots_expr(key) > 0));
    let row_keys = row_keys(&root, &compiler.slots);
    Ok(PreparedPlan {
        root,
        slots: compiler.slots,
        options,
        batch,
        index_loop,
        bound: card.total,
        binding_bound: Card::Unbounded,
        row_keys,
    })
}

struct Compiler<'a> {
    catalog: &'a Catalog,
    options: EvalOptions,
    slots: Vec<(String, String)>,
}

impl Compiler<'_> {
    fn slot(&mut self, var: &str, column: &str) -> usize {
        if let Some(i) = self.slots.iter().position(|(v, c)| v == var && c == column) {
            return i;
        }
        self.slots.push((var.to_owned(), column.to_owned()));
        self.slots.len() - 1
    }

    fn compile_expr(&mut self, e: &ScalarExpr) -> Result<PExpr> {
        Ok(match e {
            ScalarExpr::Column { qualifier, name } => PExpr::Column {
                qualifier: qualifier.clone(),
                name: name.clone(),
            },
            ScalarExpr::Param { var, column } => PExpr::Slot(self.slot(var, column)),
            ScalarExpr::Literal(v) => PExpr::Literal(v.clone()),
            ScalarExpr::Binary { op, lhs, rhs } => PExpr::Binary {
                op: *op,
                lhs: Box::new(self.compile_expr(lhs)?),
                rhs: Box::new(self.compile_expr(rhs)?),
            },
            ScalarExpr::Not(i) => PExpr::Not(Box::new(self.compile_expr(i)?)),
            ScalarExpr::IsNull(i) => PExpr::IsNull(Box::new(self.compile_expr(i)?)),
            ScalarExpr::Exists(q) => PExpr::Exists(Box::new(self.compile_block(q)?)),
            ScalarExpr::Aggregate { func, arg } => PExpr::Aggregate {
                func: *func,
                arg: match arg {
                    Some(a) => Some(Box::new(self.compile_expr(a)?)),
                    None => None,
                },
            },
        })
    }

    /// Mirrors `eval::eval_scoped_opt`'s per-evaluation classification,
    /// against catalog-derived layouts (which the runtime layouts always
    /// equal). The check order matches the interpreter so the same invalid
    /// query surfaces the same class of error.
    fn compile_block(&mut self, q: &SelectQuery) -> Result<PlanBlock> {
        // Alias uniqueness.
        {
            let mut seen = HashSet::new();
            for t in &q.from {
                if !seen.insert(t.binding_name().to_owned()) {
                    return Err(Error::DuplicateAlias {
                        alias: t.binding_name().to_owned(),
                    });
                }
            }
        }

        // Static per-item column layouts. Unknown tables and malformed
        // derived select lists error here, like the interpreter's
        // `from_item_columns` pass inside its ambiguity check.
        let mut item_layouts: Vec<Layout> = Vec::new();
        let mut sets: Vec<HashSet<String>> = Vec::new();
        for t in &q.from {
            let alias = t.binding_name().to_owned();
            let cols = match t {
                TableRef::Named { name, .. } => self.catalog.get(name)?.column_names(),
                TableRef::Derived { query, .. } => output_columns(query, self.catalog)?,
            };
            sets.push(cols.iter().cloned().collect());
            item_layouts.push(cols.into_iter().map(|c| (alias.clone(), c)).collect());
        }
        ambiguity_from_sets(q, &sets)?;

        let mut conjuncts: Vec<&ScalarExpr> = Vec::new();
        if let Some(w) = &q.where_clause {
            split_and(w, &mut conjuncts);
        }
        let mut applied = vec![false; conjuncts.len()];

        let mut from = Vec::new();
        let mut full: Layout = Layout::new();
        let mut seen_aliases: Vec<String> = Vec::new();
        for (idx, t) in q.from.iter().enumerate() {
            let alias = t.binding_name().to_owned();
            let layout = item_layouts[idx].clone();
            let this_cols = cols_set(&layout);

            let source = match t {
                TableRef::Named { name, .. } => PlanSource::Scan(name.clone()),
                TableRef::Derived { query, .. } => {
                    PlanSource::Derived(Box::new(self.compile_block(query)?))
                }
            };

            let mut pushdown = Vec::new();
            for (i, c) in conjuncts.iter().enumerate() {
                if applied[i] || contains_exists(c) || c.contains_aggregate() {
                    continue;
                }
                if resolvable_within(c, std::slice::from_ref(&alias), &this_cols) {
                    pushdown.push(self.compile_expr(c)?);
                    applied[i] = true;
                }
            }

            // Access-path selection: a pushed-down `col = literal/slot`
            // equality on an indexed column turns the scan into an index
            // lookup. The equality stays in `pushdown` as the recheck.
            let mut access = Access::FullScan;
            if self.options.use_indexes {
                if let TableRef::Named { name, .. } = t {
                    access = select_index_access(self.catalog.get(name)?, &pushdown);
                }
            }

            let mut join_keys = Vec::new();
            if idx > 0 && self.options.hash_joins {
                for (i, c) in conjuncts.iter().enumerate() {
                    if applied[i] {
                        continue;
                    }
                    if let Some((l, r)) = equi_pair_layouts(c, &full, &layout) {
                        join_keys.push((self.compile_expr(&l)?, self.compile_expr(&r)?));
                        applied[i] = true;
                    }
                }
            }

            let prev_layout = full.clone();
            full.extend(layout.iter().cloned());
            seen_aliases.push(alias);
            let full_cols = cols_set(&full);

            let mut prefix_filters = Vec::new();
            for (i, c) in conjuncts.iter().enumerate() {
                if applied[i] || contains_exists(c) || c.contains_aggregate() {
                    continue;
                }
                if resolvable_within(c, &seen_aliases, &full_cols) {
                    prefix_filters.push(self.compile_expr(c)?);
                    applied[i] = true;
                }
            }

            from.push(PlanFrom {
                source,
                layout,
                prev_layout,
                joined_layout: full.clone(),
                pushdown,
                access,
                join_keys,
                prefix_filters,
                preserved: matches!(
                    t,
                    TableRef::Derived {
                        preserved: true,
                        ..
                    }
                ),
                filter_probe: false,
            });
        }

        let mut residuals = Vec::new();
        for (i, c) in conjuncts.iter().enumerate() {
            if applied[i] {
                continue;
            }
            if c.contains_aggregate() {
                return Err(Error::MisplacedAggregate);
            }
            residuals.push(self.compile_expr(c)?);
        }

        let mut columns = Vec::new();
        let mut select = Vec::new();
        for (i, item) in q.select.iter().enumerate() {
            columns.extend(item_names(item, &full, i)?);
            select.push(match item {
                SelectItem::Star => PlanItem::Star,
                SelectItem::QualifiedStar(qual) => PlanItem::QualifiedStar(qual.clone()),
                SelectItem::Expr { expr, .. } => PlanItem::Expr(self.compile_expr(expr)?),
            });
        }
        let group_by = q
            .group_by
            .iter()
            .map(|g| self.compile_expr(g))
            .collect::<Result<Vec<_>>>()?;
        let having = q
            .having
            .as_ref()
            .map(|h| self.compile_expr(h))
            .transpose()?;

        Ok(PlanBlock {
            from,
            residuals,
            select,
            group_by,
            having,
            distinct: q.distinct,
            aggregating: q.is_aggregating(),
            layout: full,
            columns,
        })
    }
}

/// Picks an index access path from the compiled pushdowns: a
/// `col = literal` / `col = $slot` equality (either operand order) whose
/// column carries a declared index. Among candidates, an equality on a
/// single-column `PRIMARY KEY` wins (the cardinality domain proves such a
/// lookup fetches at most one row); otherwise the first candidate in
/// pushdown order is kept. Table column names are unique, so the column
/// resolves uniquely within the item; richer key expressions are skipped
/// because the key must evaluate without a row in scope.
fn select_index_access(schema: &TableSchema, pushdown: &[PExpr]) -> Access {
    let pk = schema.primary_key();
    let single_pk = (pk.len() == 1).then(|| pk[0].to_owned());
    let mut first: Option<Access> = None;
    for p in pushdown {
        let PExpr::Binary {
            op: BinOp::Eq,
            lhs,
            rhs,
        } = p
        else {
            continue;
        };
        for (col, key) in [(lhs, rhs), (rhs, lhs)] {
            let PExpr::Column { name, .. } = col.as_ref() else {
                continue;
            };
            if schema.index_on(name).is_none()
                || !matches!(key.as_ref(), PExpr::Literal(_) | PExpr::Slot(_))
            {
                continue;
            }
            if let Some(column) = schema.column_index(name) {
                let access = Access::IndexEq {
                    column,
                    key: key.clone(),
                };
                if single_pk.as_deref() == Some(name.as_str()) {
                    return access; // unique: at most one row fetched
                }
                if first.is_none() {
                    first = Some(access);
                }
            }
        }
    }
    first.unwrap_or(Access::FullScan)
}

// ---------------------------------------------------------------------------
// Batch (set-oriented) analysis
// ---------------------------------------------------------------------------

/// How one deferred equality's row side is computed.
#[derive(Debug, Clone)]
enum BatchSide {
    /// Index into the root block's joined layout.
    Col(usize),
    /// A constant.
    Lit(Value),
}

impl BatchSide {
    fn value<'r>(&'r self, row: &'r [Value]) -> &'r Value {
        match self {
            BatchSide::Col(c) => &row[*c],
            BatchSide::Lit(v) => v,
        }
    }
}

/// The deferred key values of a pipeline row or of a binding, normalized
/// by `batch_key_of`. One key column, the common case, needs no vector.
#[derive(Debug, PartialEq, Eq, Hash)]
enum BatchKey {
    One(Key),
    Many(Vec<Key>),
}

impl BatchKey {
    /// The key of `values`, or `None` if one is NULL (NULL never
    /// equi-joins).
    fn of<'v>(mut values: impl ExactSizeIterator<Item = &'v Value>) -> Option<BatchKey> {
        let key = |v: &Value| (!v.is_null()).then(|| batch_key_of(v));
        if values.len() == 1 {
            return values.next().and_then(key).map(BatchKey::One);
        }
        values.map(key).collect::<Option<_>>().map(BatchKey::Many)
    }
}

/// One `row-expr = $var.column` equality lifted out of the shared pipeline
/// and into the binding hash-join.
#[derive(Debug, Clone)]
struct BatchKeySpec {
    row: BatchSide,
    slot: usize,
    /// The slot was written on the left (`$m.x = col`); preserved so the
    /// post-hash recheck evaluates operands in the scalar order.
    slot_first: bool,
}

/// Precomputed set-oriented strategy: the root block with every slot
/// equality removed (so it runs once, binding-free), plus the deferred
/// keys that hash-join its rows back to the binding relation.
#[derive(Debug, Clone)]
struct BatchPlan {
    stripped: PlanBlock,
    keys: Vec<BatchKeySpec>,
}

/// Decides whether the plan is eligible for the shared-pipeline batch
/// strategy: every `$var.column` reference in the *entire* plan must be a
/// top-level `column = $slot` (or `literal = $slot`) conjunct assigned to
/// a root-block scan pushdown or prefix filter. Preserved (left-outer)
/// derived tables capture their baseline *after* pushdown, so their
/// presence disables the rewrite.
fn analyze_batch(root: &PlanBlock, n_slots: usize) -> Option<BatchPlan> {
    if n_slots == 0 || root.from.iter().any(|f| f.preserved) {
        return None;
    }
    // (from idx, in-pushdown?, conjunct idx) of every separable equality.
    let mut take: Vec<(usize, bool, usize)> = Vec::new();
    let mut keys = Vec::new();
    for (fi, item) in root.from.iter().enumerate() {
        let offset = item.prev_layout.len();
        for (ci, c) in item.pushdown.iter().enumerate() {
            if let Some(k) = slot_equality(c, &item.layout, offset) {
                keys.push(k);
                take.push((fi, true, ci));
            }
        }
        for (ci, c) in item.prefix_filters.iter().enumerate() {
            if let Some(k) = slot_equality(c, &item.joined_layout, 0) {
                keys.push(k);
                take.push((fi, false, ci));
            }
        }
    }
    // Sound only if those equalities are the plan's ONLY slot references
    // (each carries exactly one): a slot surviving anywhere else —
    // residuals, nested blocks, projections — still needs per-binding
    // evaluation.
    if keys.is_empty() || count_slots_block(root) != keys.len() {
        return None;
    }
    let mut stripped = root.clone();
    for (fi, item) in stripped.from.iter_mut().enumerate() {
        let mut i = 0;
        item.pushdown.retain(|_| {
            let hit = take.contains(&(fi, true, i));
            i += 1;
            !hit
        });
        let mut i = 0;
        item.prefix_filters.retain(|_| {
            let hit = take.contains(&(fi, false, i));
            i += 1;
            !hit
        });
        // The stripped pipeline runs binding-free; an access path keyed on
        // a slot would hit UnboundParameter, so it reverts to a full scan.
        if matches!(&item.access, Access::IndexEq { key, .. } if count_slots_expr(key) > 0) {
            item.access = Access::FullScan;
        }
        // The <= 1 row prefix bound was justified by the (now removed)
        // slot pins; the shared pipeline's prefix carries every binding's
        // rows, so it joins by hash like any unbounded prefix.
        item.filter_probe = false;
    }
    Some(BatchPlan { stripped, keys })
}

fn slot_equality(c: &PExpr, layout: &Layout, offset: usize) -> Option<BatchKeySpec> {
    let PExpr::Binary {
        op: BinOp::Eq,
        lhs,
        rhs,
    } = c
    else {
        return None;
    };
    match (lhs.as_ref(), rhs.as_ref()) {
        (PExpr::Slot(s), other) => row_side(other, layout, offset).map(|row| BatchKeySpec {
            row,
            slot: *s,
            slot_first: true,
        }),
        (other, PExpr::Slot(s)) => row_side(other, layout, offset).map(|row| BatchKeySpec {
            row,
            slot: *s,
            slot_first: false,
        }),
        _ => None,
    }
}

/// Statically resolves the non-slot side of a candidate equality. A column
/// must resolve uniquely in the scope layout the conjunct executes under;
/// ambiguity (which the scalar path reports at runtime) disables batching
/// so the scalar path stays the one reporting it.
fn row_side(e: &PExpr, layout: &Layout, offset: usize) -> Option<BatchSide> {
    match e {
        PExpr::Literal(v) => Some(BatchSide::Lit(v.clone())),
        PExpr::Column { qualifier, name } => {
            let mut found = None;
            for (i, (q, n)) in layout.iter().enumerate() {
                let qual_ok = match qualifier {
                    Some(qq) => qq == q,
                    None => true,
                };
                if n == name && qual_ok {
                    if found.is_some() {
                        return None;
                    }
                    found = Some(i);
                }
            }
            found.map(|i| BatchSide::Col(offset + i))
        }
        _ => None,
    }
}

fn count_slots_block(b: &PlanBlock) -> usize {
    let mut n = 0;
    for item in &b.from {
        if let PlanSource::Derived(child) = &item.source {
            n += count_slots_block(child);
        }
        for e in &item.pushdown {
            n += count_slots_expr(e);
        }
        for (l, r) in &item.join_keys {
            n += count_slots_expr(l) + count_slots_expr(r);
        }
        for e in &item.prefix_filters {
            n += count_slots_expr(e);
        }
    }
    for e in &b.residuals {
        n += count_slots_expr(e);
    }
    for item in &b.select {
        if let PlanItem::Expr(e) = item {
            n += count_slots_expr(e);
        }
    }
    for e in &b.group_by {
        n += count_slots_expr(e);
    }
    if let Some(h) = &b.having {
        n += count_slots_expr(h);
    }
    n
}

fn count_slots_expr(e: &PExpr) -> usize {
    match e {
        PExpr::Slot(_) => 1,
        PExpr::Column { .. } | PExpr::Literal(_) => 0,
        PExpr::Binary { lhs, rhs, .. } => count_slots_expr(lhs) + count_slots_expr(rhs),
        PExpr::Not(i) | PExpr::IsNull(i) => count_slots_expr(i),
        PExpr::Exists(b) => count_slots_block(b),
        PExpr::Aggregate { arg, .. } => arg.as_ref().map_or(0, |a| count_slots_expr(a)),
    }
}

/// The [`RowKey`] of every base table the root block scans exactly once in
/// the whole plan (no second scan in a self-join, derived table or
/// `EXISTS`), taken from the first `col = $slot` pushdown on that scan.
fn row_keys(root: &PlanBlock, slots: &[(String, String)]) -> Vec<(String, RowKey)> {
    let mut out = Vec::new();
    for item in &root.from {
        let PlanSource::Scan(table) = &item.source else {
            continue;
        };
        if count_table_scans(root, table) != 1 {
            continue;
        }
        let key = item
            .pushdown
            .iter()
            .find_map(|c| match slot_equality(c, &item.layout, 0)? {
                BatchKeySpec {
                    row: BatchSide::Col(column),
                    slot,
                    ..
                } => Some(RowKey {
                    column,
                    param: slots[slot].clone(),
                }),
                BatchKeySpec { .. } => None,
            });
        if let Some(key) = key {
            out.push((table.clone(), key));
        }
    }
    out
}

/// Scans of base table `table` anywhere in `b`: FROM items, derived
/// tables and `EXISTS` subqueries in every clause.
fn count_table_scans(b: &PlanBlock, table: &str) -> usize {
    let in_expr = |e: &PExpr| expr_table_scans(e, table);
    let mut n = 0;
    for item in &b.from {
        n += match &item.source {
            PlanSource::Scan(t) => usize::from(t == table),
            PlanSource::Derived(child) => count_table_scans(child, table),
        };
        n += item.pushdown.iter().map(in_expr).sum::<usize>();
        n += item.prefix_filters.iter().map(in_expr).sum::<usize>();
        n += item
            .join_keys
            .iter()
            .map(|(l, r)| in_expr(l) + in_expr(r))
            .sum::<usize>();
    }
    n += b.residuals.iter().map(in_expr).sum::<usize>();
    for item in &b.select {
        if let PlanItem::Expr(e) = item {
            n += in_expr(e);
        }
    }
    n += b.group_by.iter().map(in_expr).sum::<usize>();
    n + b.having.as_ref().map_or(0, in_expr)
}

fn expr_table_scans(e: &PExpr, table: &str) -> usize {
    match e {
        PExpr::Exists(b) => count_table_scans(b, table),
        PExpr::Column { .. } | PExpr::Slot(_) | PExpr::Literal(_) => 0,
        PExpr::Binary { lhs, rhs, .. } => {
            expr_table_scans(lhs, table) + expr_table_scans(rhs, table)
        }
        PExpr::Not(i) | PExpr::IsNull(i) => expr_table_scans(i, table),
        PExpr::Aggregate { arg, .. } => arg.as_ref().map_or(0, |a| expr_table_scans(a, table)),
    }
}

/// `key_of` with negative zero folded onto positive zero: `sql_cmp` treats
/// `-0.0` and `0.0` as equal, so the binding hash-join must too. (`Int`
/// and `Float` already unify — both hash through `f64` bits.)
fn batch_key_of(v: &Value) -> Key {
    match v {
        Value::Float(f) if *f == 0.0 => Key::Num(0f64.to_bits()),
        _ => key_of(v),
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

impl PreparedPlan {
    /// Output column names (known without executing).
    pub fn columns(&self) -> &[String] {
        &self.root.columns
    }

    /// The `$var.column` parameter slots this plan reads, in
    /// first-reference order. Two environments agreeing on every slot
    /// produce identical results, which is what lets a batch execute
    /// duplicate bindings once.
    pub fn slots(&self) -> &[(String, String)] {
        &self.slots
    }

    /// The [`EvalOptions`] the plan was compiled under.
    pub fn options(&self) -> EvalOptions {
        self.options
    }

    /// Static bound on the rows one execution can produce (per parameter
    /// valuation), with the fact chain that justifies it. Derived at
    /// prepare time; an over-approximation, never an undercount.
    pub fn bound(&self) -> &CardBound {
        &self.bound
    }

    /// The caller-declared bound on bindings per batch
    /// (see [`PreparedPlan::with_binding_bound`]).
    pub fn binding_bound(&self) -> Card {
        self.binding_bound
    }

    /// Every `(table, key)` pair [`PreparedPlan::row_key`] answers, in
    /// FROM order.
    pub fn row_keys(&self) -> &[(String, RowKey)] {
        &self.row_keys
    }

    /// The conjunct that ties this plan's rows of base table `table` to
    /// its bindings, when a change to `table` can be narrowed by it: the
    /// plan scans `table` exactly once, in its top-level FROM list, and a
    /// top-level `table.col = $var.attr` conjunct is pushed into that scan
    /// (see [`RowKey`]). `None` when the plan does not read `table`, reads
    /// it more than once, or binds no column of it.
    pub fn row_key(&self, table: &str) -> Option<&RowKey> {
        self.row_keys
            .iter()
            .find_map(|(t, k)| (t == table).then_some(k))
    }

    /// Declares a static bound on how many parameter environments any
    /// [`PreparedPlan::execute_batch`] call will carry — the publisher's
    /// per-parent fan-out bound for the view node that owns this plan.
    /// When the bound proves at most one binding, the shared-pipeline
    /// batch strategy is skipped in favour of per-binding execution
    /// (which keeps pushdowns and index access paths keyed on the
    /// binding's slots); rows and row order are unaffected. The bound is
    /// ignored by batches that share one pipeline through a
    /// [`SharedScan`] ([`PreparedPlan::execute_batch_shared`]): there one
    /// scan serves many single-binding batches. Defaults to
    /// [`Card::Unbounded`], which preserves the heuristic behaviour.
    #[must_use]
    pub fn with_binding_bound(mut self, bound: Card) -> Self {
        self.binding_bound = bound;
        self
    }

    /// Executes the plan, producing the same [`Relation`] as
    /// `eval_query_with` on the source query under the plan's options.
    pub fn execute(&self, db: &Database, env: &ParamEnv) -> Result<Relation> {
        let stats = Cell::new(EvalStats::default());
        self.run(db, env, &stats)
    }

    /// [`PreparedPlan::execute`] that also accumulates [`EvalStats`]
    /// counters into `stats` on success, mirroring `eval_query_stats`
    /// (including the `param_queries` bump for non-empty environments).
    pub fn execute_stats(
        &self,
        db: &Database,
        env: &ParamEnv,
        stats: &mut EvalStats,
    ) -> Result<Relation> {
        let cell = Cell::new(EvalStats::default());
        let rel = self.run(db, env, &cell)?;
        let mut run = cell.get();
        if !env.is_empty() {
            run.param_queries += 1;
        }
        stats.absorb(&run);
        Ok(rel)
    }

    fn run(&self, db: &Database, env: &dyn Bindings, stats: &Cell<EvalStats>) -> Result<Relation> {
        let ctx = ExecCtx {
            db,
            env,
            slots: &self.slots,
            cache: RefCell::new(vec![None; self.slots.len()]),
            options: self.options,
            stats,
        };
        exec_block(&ctx, &self.root, None)
    }

    /// Whether [`PreparedPlan::execute_batch`] can use the shared-pipeline
    /// strategy (scan once, hash-join the binding relation) rather than
    /// one execution per distinct binding.
    pub fn batchable(&self) -> bool {
        self.batch.is_some()
    }

    /// [`PreparedPlan::execute_batch_stats`] without counter reporting.
    pub fn execute_batch(&self, db: &Database, envs: &[ParamEnv]) -> Result<BatchResult> {
        let mut stats = EvalStats::default();
        self.execute_batch_stats(db, envs, &mut stats)
    }

    /// Set-oriented execution: evaluates the plan for *every* environment
    /// in `envs` at once, returning each binding's rows tagged by its
    /// index in `envs` ([`BatchResult`]). Rows, row order and errors agree
    /// with the scalar loop `envs.iter().map(|e| plan.execute(db, e))`;
    /// the first error of that loop (if any) is the error returned.
    ///
    /// Strategy: the distinct binding tuples (resolved slot values) are
    /// materialized as an in-memory binding relation. When the plan is
    /// [`batchable`](PreparedPlan::batchable), the already-fused scan
    /// pipeline runs **once** with the slot equalities removed and its
    /// rows are hash-joined against the binding relation on the interned
    /// slot columns (with an exact `=` recheck after the hash match, so
    /// NULL/NaN semantics match the scalar filters). Otherwise the plan
    /// executes once per *distinct* binding. Either way a duplicate binding
    /// shares its first occurrence's rows, which the result stores once.
    /// Environments whose slots cannot be resolved are executed scalarly
    /// one by one, preserving the scalar path's lazy unbound-parameter
    /// behaviour.
    ///
    /// `EvalStats` counters are defined **relative to the scalar path** —
    /// they report physical work actually done, which is the point of
    /// batching:
    ///
    /// * `queries` / `rows_scanned` etc. count one shared pipeline run
    ///   (plus nested blocks per evaluation) instead of one per binding;
    /// * the binding hash-join itself counts as one `hash_join_builds`
    ///   with `hash_join_build_rows` = pipeline rows and
    ///   `hash_join_probe_rows` = distinct resolved bindings;
    /// * `param_queries` counts distinct binding groups served (scalar
    ///   counts every non-empty-env execution, including duplicates);
    /// * `group_buckets` is bumped per binding group, like the scalar
    ///   loop, because grouping happens after regrouping.
    ///
    /// On the per-distinct fallback, counters equal the scalar loop's
    /// minus the duplicate executions. Counters are absorbed into `stats`
    /// only when the whole batch succeeds.
    pub fn execute_batch_stats(
        &self,
        db: &Database,
        envs: &[ParamEnv],
        stats: &mut EvalStats,
    ) -> Result<BatchResult> {
        self.execute_batch_shared(db, envs, None, stats)
    }

    /// [`PreparedPlan::execute_batch_stats`] over any [`Bindings`], whose
    /// binding-free pipeline may be shared with other batches of this plan
    /// over the same `db` through `scan` (see [`SharedScan`]). Rows, row
    /// order and errors are those of `execute_batch_stats`. Slot values are
    /// read from `envs` by reference: nothing is copied out of an
    /// environment but the values a scalar execution resolves.
    ///
    /// With a slot, the batch that builds the pipeline counts the scan and
    /// the hash build; every other batch counts only its probes
    /// (`hash_join_probe_rows`) and per-binding projection work. Summed
    /// over all batches sharing the slot, the counters do not depend on
    /// which batch came first. A slot also overrides the demotion of
    /// [`PreparedPlan::with_binding_bound`], because the one scan is
    /// shared by every batch. Index-nested-loop plans ignore the slot:
    /// they probe the index per binding either way.
    pub fn execute_batch_shared<B: Bindings>(
        &self,
        db: &Database,
        envs: &[B],
        scan: Option<&SharedScan>,
        stats: &mut EvalStats,
    ) -> Result<BatchResult> {
        /// One distinct binding: the first environment carrying it and its
        /// slot values (`None` when a slot does not resolve).
        struct Group<'v> {
            first: usize,
            values: Option<&'v [&'v Value]>,
        }

        // 1. The binding relation: every environment's slot values, read by
        // reference, grouped into distinct bindings in first-occurrence
        // order. Distinctness is strict value identity (`Value::identity`),
        // which is sound per the `slots()` contract.
        let n = self.slots.len();
        let mut values: Vec<&Value> = Vec::with_capacity(envs.len() * n);
        let resolved: Vec<bool> = envs
            .iter()
            .map(|env| {
                let start = values.len();
                values.extend((self.slots.iter()).map_while(|(var, col)| env.value(var, col).ok()));
                let ok = values.len() == start + n;
                if !ok {
                    values.truncate(start);
                }
                ok
            })
            .collect();
        let idents: Vec<Identity<'_>> = values.iter().map(|v| v.identity()).collect();
        let mut order: Vec<Group<'_>> = Vec::new();
        let mut group_of = Vec::with_capacity(envs.len());
        let mut by_key: HashMap<&[Identity<'_>], usize> = HashMap::new();
        let mut at = 0;
        for (i, &ok) in resolved.iter().enumerate() {
            let g = if ok {
                let (key, slot_values) = (&idents[at..at + n], &values[at..at + n]);
                at += n;
                *by_key.entry(key).or_insert_with(|| {
                    order.push(Group {
                        first: i,
                        values: Some(slot_values),
                    });
                    order.len() - 1
                })
            } else {
                // Unresolvable bindings stay scalar: slot resolution is
                // lazy there, so a plan that never reaches the slot still
                // succeeds, exactly like `execute` on that env.
                order.push(Group {
                    first: i,
                    values: None,
                });
                order.len() - 1
            };
            group_of.push(g);
        }

        let cell = Cell::new(EvalStats::default());

        // 2. Shared pipeline: one binding-free run of the stripped plan,
        // indexed by the deferred key columns — built here, or once per
        // `scan` slot and probed by every batch that shares it.
        let local;
        let fast = match &self.batch {
            // Index-nested-loop plans skip the shared pipeline: scalar
            // executions below each probe the index per distinct binding.
            // So do unshared plans whose declared binding bound proves at
            // most one binding per batch: scanning the whole table to serve
            // a single binding does strictly more work than one execution
            // with the slot pushdowns (and any index path) intact.
            Some(bp)
                if !self.index_loop
                    && (scan.is_some() || !self.binding_bound.at_most_one())
                    && order.iter().any(|g| g.values.is_some()) =>
            {
                let build = || self.build_pipeline(db, bp, &cell);
                let pipeline = match scan {
                    Some(s) => s.pipeline.get_or_init(build),
                    None => {
                        local = build();
                        &local
                    }
                };
                match pipeline {
                    Pipeline::Built { rows, index } => {
                        let mut s = cell.get();
                        s.hash_join_probe_rows +=
                            order.iter().filter(|g| g.values.is_some()).count() as u64;
                        cell.set(s);
                        Some((bp, rows, index))
                    }
                    // The stripped pipeline evaluated predicates on rows
                    // the per-binding filters would have dropped first;
                    // re-run scalar per group so the error (if still one)
                    // is the scalar loop's first error.
                    Pipeline::Failed => None,
                }
            }
            _ => None,
        };

        // 3. Per distinct binding, in first-occurrence order (which makes
        // the first failing group the scalar loop's first failing env).
        // The stripped plan binds no slot, so one context serves every
        // group's projection.
        let empty = ParamEnv::new();
        let probe_ctx = ExecCtx {
            db,
            env: &empty,
            slots: &self.slots,
            cache: RefCell::new(vec![None; n]),
            options: self.options,
            stats: &cell,
        };
        let mut groups = Vec::with_capacity(order.len());
        for group in &order {
            let rows = match (fast, group.values) {
                (Some((bp, rows, index)), Some(values)) => {
                    let hits = BatchKey::of(bp.keys.iter().map(|k| values[k.slot]))
                        .and_then(|key| index.get(&key));
                    let mut matched: Vec<&Vec<Value>> = Vec::new();
                    'cand: for &ri in hits.into_iter().flatten() {
                        let row = &rows[ri];
                        for k in &bp.keys {
                            let (rv, sv) = (k.row.value(row), values[k.slot]);
                            let (l, r) = if k.slot_first { (sv, rv) } else { (rv, sv) };
                            if !eval_binop(BinOp::Eq, l, r)?.is_truthy() {
                                continue 'cand;
                            }
                        }
                        matched.push(row);
                    }
                    let rows = finish_block(&probe_ctx, &bp.stripped, &matched, None)?;
                    let mut s = cell.get();
                    s.param_queries += 1; // slots resolved ⇒ env non-empty
                    cell.set(s);
                    rows
                }
                _ => {
                    let env = &envs[group.first];
                    let attempt = Cell::new(EvalStats::default());
                    let rel = self.run(db, env, &attempt)?;
                    let mut s = attempt.get();
                    if !env.is_empty() {
                        s.param_queries += 1;
                    }
                    let mut c = cell.get();
                    c.absorb(&s);
                    cell.set(c);
                    rel.rows
                }
            };
            groups.push(rows);
        }

        stats.absorb(&cell.get());
        Ok(BatchResult {
            columns: self.root.columns.clone(),
            groups,
            group_of,
        })
    }

    /// Runs `bp`'s stripped pipeline once, binding-free, and indexes its
    /// rows by the deferred key columns. On success the run and the hash
    /// build are counted into `stats`; a failed run counts nothing.
    fn build_pipeline(&self, db: &Database, bp: &BatchPlan, stats: &Cell<EvalStats>) -> Pipeline {
        let attempt = Cell::new(EvalStats::default());
        let empty = ParamEnv::new();
        let ctx = ExecCtx {
            db,
            env: &empty,
            slots: &self.slots,
            cache: RefCell::new(vec![None; self.slots.len()]),
            options: self.options,
            stats: &attempt,
        };
        let Ok(rows) = exec_source_rows(&ctx, &bp.stripped, None) else {
            return Pipeline::Failed;
        };
        let mut index: HashMap<BatchKey, Vec<usize>> = HashMap::new();
        for (ri, row) in rows.iter().enumerate() {
            if let Some(key) = BatchKey::of(bp.keys.iter().map(|k| k.row.value(row))) {
                index.entry(key).or_default().push(ri);
            }
        }
        let mut s = stats.get();
        s.absorb(&attempt.get());
        s.hash_join_builds += 1;
        s.hash_join_build_rows += rows.len() as u64;
        stats.set(s);
        Pipeline::Built { rows, index }
    }

    /// Renders the compiled pipeline — slot table, per-item scan fusion
    /// and join strategy, residual filters with their `EXISTS` subplans,
    /// grouping keys, `HAVING`, projection, and the batch (set-oriented)
    /// operator — as indented text. This is the plan that *executes*, and
    /// the only plan `xvc explain` prints.
    pub fn describe(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "prepared plan: {} column(s)", self.root.columns.len());
        if self.slots.is_empty() {
            let _ = writeln!(out, "  slots: (none)");
        } else {
            let rendered: Vec<String> = self
                .slots
                .iter()
                .enumerate()
                .map(|(i, (v, c))| format!("s{i}=${v}.{c}"))
                .collect();
            let _ = writeln!(out, "  slots: {}", rendered.join(", "));
        }
        let _ = writeln!(out, "  cardinality: {}", self.bound);
        if self.binding_bound != Card::Unbounded {
            let _ = writeln!(out, "  binding bound: {} per batch", self.binding_bound);
        }
        let cache_exists = self.options.cache_uncorrelated_exists;
        describe_block(&self.root, &self.slots, cache_exists, 1, &mut out);
        match &self.batch {
            Some(_) if !self.index_loop && self.binding_bound.at_most_one() => {
                let _ = writeln!(
                    out,
                    "  batch: per-binding scalar execution — binding bound \
                     {} justifies skipping the shared pipeline (a publish \
                     with several root tasks scans once and shares it instead)",
                    self.binding_bound
                );
            }
            Some(bp) => {
                let keys: Vec<String> = bp
                    .keys
                    .iter()
                    .map(|k| {
                        let row = match &k.row {
                            BatchSide::Col(i) => {
                                let (q, n) = &self.root.layout[*i];
                                format!("{q}.{n}")
                            }
                            BatchSide::Lit(v) => fmt_literal(v),
                        };
                        let (var, col) = &self.slots[k.slot];
                        format!("{row} = ${var}.{col}")
                    })
                    .collect();
                if self.index_loop {
                    let _ = writeln!(
                        out,
                        "  batch: index-nested-loop — per-binding index \
                         lookups on ({})",
                        keys.join(", ")
                    );
                } else {
                    let _ = writeln!(
                        out,
                        "  batch: set-oriented — shared pipeline once, \
                         hash-join binding relation on ({})",
                        keys.join(", ")
                    );
                }
            }
            None if self.slots.is_empty() => {
                let _ = writeln!(out, "  batch: single shared execution (no binding slots)");
            }
            None => {
                let _ = writeln!(
                    out,
                    "  batch: per-distinct-binding execution \
                     (slot predicates not separable)"
                );
            }
        }
        out
    }
}

/// Rows for a whole batch of parameter environments, tagged by the index
/// of the binding that produced them. Produced by
/// [`PreparedPlan::execute_batch`]. Bindings with equal slot values share
/// one group of rows, stored once.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResult {
    columns: Vec<String>,
    /// Each distinct binding's rows in the scalar path's row order, the
    /// bindings in first-occurrence order.
    groups: Vec<Vec<Vec<Value>>>,
    /// `group_of[i]` is the group binding `i` reads its rows from.
    group_of: Vec<usize>,
}

impl BatchResult {
    /// Output column names (shared by every binding's rows).
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of bindings the batch was executed for.
    pub fn bindings(&self) -> usize {
        self.group_of.len()
    }

    /// True when the batch was executed over zero bindings.
    pub fn is_empty(&self) -> bool {
        self.group_of.is_empty()
    }

    /// The rows binding `binding` produced, in scalar row order.
    pub fn rows_for(&self, binding: usize) -> &[Vec<Value>] {
        &self.groups[self.group_of[binding]]
    }

    /// Total rows across all bindings (a duplicate binding counts its
    /// shared rows again).
    pub fn total_rows(&self) -> usize {
        self.group_of.iter().map(|&g| self.groups[g].len()).sum()
    }

    /// All rows as `(binding index, row)` pairs, grouped by binding.
    pub fn tagged_rows(&self) -> impl Iterator<Item = (usize, &Vec<Value>)> + '_ {
        (0..self.bindings()).flat_map(move |i| self.rows_for(i).iter().map(move |r| (i, r)))
    }

    /// One binding's rows as a standalone [`Relation`] (clones).
    pub fn relation_for(&self, binding: usize) -> Relation {
        Relation {
            columns: self.columns.clone(),
            rows: self.rows_for(binding).to_vec(),
        }
    }

    /// Consumes the batch into one [`Relation`] per binding.
    pub fn into_relations(self) -> Vec<Relation> {
        (0..self.bindings()).map(|i| self.relation_for(i)).collect()
    }
}

fn fmt_literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_owned(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => f.to_string(),
        Value::Str(s) => format!("'{s}'"),
        Value::Bool(b) => b.to_string().to_uppercase(),
    }
}

fn fmt_pexpr(e: &PExpr, slots: &[(String, String)]) -> String {
    match e {
        PExpr::Column {
            qualifier: Some(q),
            name,
        } => format!("{q}.{name}"),
        PExpr::Column {
            qualifier: None,
            name,
        } => name.clone(),
        PExpr::Slot(i) => {
            let (v, c) = &slots[*i];
            format!("${v}.{c}")
        }
        PExpr::Literal(v) => fmt_literal(v),
        PExpr::Binary { op, lhs, rhs } => format!(
            "{} {} {}",
            fmt_pexpr(lhs, slots),
            op.symbol(),
            fmt_pexpr(rhs, slots)
        ),
        PExpr::Not(i) => format!("NOT ({})", fmt_pexpr(i, slots)),
        PExpr::IsNull(i) => format!("{} IS NULL", fmt_pexpr(i, slots)),
        PExpr::Exists(_) => "EXISTS (...)".to_owned(),
        PExpr::Aggregate { func, arg } => {
            let inner = match arg {
                Some(a) => fmt_pexpr(a, slots),
                None => "*".to_owned(),
            };
            let name = format!("{func:?}").to_uppercase();
            format!("{name}({inner})")
        }
    }
}

/// The `EXISTS` subplans inside `e`, in rendering order.
fn exists_blocks<'p>(e: &'p PExpr, out: &mut Vec<&'p PlanBlock>) {
    match e {
        PExpr::Exists(b) => out.push(b),
        PExpr::Binary { lhs, rhs, .. } => {
            exists_blocks(lhs, out);
            exists_blocks(rhs, out);
        }
        PExpr::Not(i) | PExpr::IsNull(i) => exists_blocks(i, out),
        PExpr::Aggregate { arg: Some(a), .. } => exists_blocks(a, out),
        PExpr::Aggregate { arg: None, .. }
        | PExpr::Column { .. }
        | PExpr::Slot(_)
        | PExpr::Literal(_) => {}
    }
}

/// Renders one compiled block, two spaces of indent per `depth`. A
/// residual's `EXISTS` subplans follow its line, under the rule
/// `p_apply_residual` runs them by: the first row evaluates the residual,
/// and later rows reuse that result when the evaluation read no column of
/// the row (with `cache_exists`, i.e. `cache_uncorrelated_exists`).
fn describe_block(
    block: &PlanBlock,
    slots: &[(String, String)],
    cache_exists: bool,
    depth: usize,
    out: &mut String,
) {
    use std::fmt::Write;
    let pad = "  ".repeat(depth);
    for (i, item) in block.from.iter().enumerate() {
        let source = match (&item.source, &item.access) {
            (PlanSource::Scan(t), Access::FullScan) => format!("scan {t}"),
            (PlanSource::Scan(t), Access::IndexEq { column, key }) => {
                // The item layout mirrors the schema's column order, so
                // the schema position doubles as a layout position.
                format!(
                    "index lookup {t} on {} = {}",
                    item.layout[*column].1,
                    fmt_pexpr(key, slots)
                )
            }
            (PlanSource::Derived(_), _) => "derived subplan".to_owned(),
        };
        let join = if i == 0 {
            String::new()
        } else if item.join_keys.is_empty() {
            " | nested-loop (cross) join".to_owned()
        } else {
            let ks: Vec<String> = item
                .join_keys
                .iter()
                .map(|(l, r)| format!("{} = {}", fmt_pexpr(l, slots), fmt_pexpr(r, slots)))
                .collect();
            if item.filter_probe {
                format!(
                    " | filter-probe join on ({}) — joined prefix bounded \
                     to <= 1 row, hash build skipped",
                    ks.join(", ")
                )
            } else {
                format!(" | hash join on ({})", ks.join(", "))
            }
        };
        let preserved = if item.preserved {
            " | preserved (left-outer)"
        } else {
            ""
        };
        let _ = writeln!(out, "{pad}from[{i}]: {source}{join}{preserved}");
        if !item.pushdown.is_empty() {
            let ps: Vec<String> = item.pushdown.iter().map(|p| fmt_pexpr(p, slots)).collect();
            let _ = writeln!(out, "{pad}  fused pushdown: {}", ps.join(" AND "));
        }
        if !item.prefix_filters.is_empty() {
            let ps: Vec<String> = item
                .prefix_filters
                .iter()
                .map(|p| fmt_pexpr(p, slots))
                .collect();
            let _ = writeln!(out, "{pad}  prefix filter: {}", ps.join(" AND "));
        }
        if let PlanSource::Derived(child) = &item.source {
            describe_block(child, slots, cache_exists, depth + 1, out);
        }
    }
    if !block.residuals.is_empty() {
        let ps: Vec<String> = block
            .residuals
            .iter()
            .map(|p| fmt_pexpr(p, slots))
            .collect();
        let _ = writeln!(out, "{pad}residual: {}", ps.join(" AND "));
        let mut subplans = Vec::new();
        for r in &block.residuals {
            exists_blocks(r, &mut subplans);
        }
        let rule = if cache_exists {
            "runs for the first row; later rows reuse its result unless that \
             run read a column of the row"
        } else {
            "runs per row"
        };
        for sub in subplans {
            let _ = writeln!(out, "{pad}  exists subplan — {rule}:");
            describe_block(sub, slots, cache_exists, depth + 2, out);
        }
    }
    let mut proj = format!("{pad}project: {}", block.columns.join(", "));
    if block.aggregating {
        let keys: Vec<String> = block.group_by.iter().map(|g| fmt_pexpr(g, slots)).collect();
        proj.push_str(&format!(" | group by {}", keys.len()));
        if keys.is_empty() {
            proj.push_str(" (one implicit group)");
        } else {
            proj.push_str(&format!(" ({})", keys.join(", ")));
        }
    }
    if let Some(h) = &block.having {
        proj.push_str(&format!(" | having {}", fmt_pexpr(h, slots)));
    }
    if block.distinct {
        proj.push_str(" | distinct");
    }
    let _ = writeln!(out, "{proj}");
}

struct ExecCtx<'a> {
    db: &'a Database,
    env: &'a dyn Bindings,
    slots: &'a [(String, String)],
    /// Per-execution slot memo. Lazy, so a parameter the evaluation never
    /// reaches (short-circuits, empty inputs) is never resolved — matching
    /// the interpreter's unbound-parameter error behaviour.
    cache: RefCell<Vec<Option<Result<Value>>>>,
    options: EvalOptions,
    stats: &'a Cell<EvalStats>,
}

impl ExecCtx<'_> {
    fn bump(&self, f: impl FnOnce(&mut EvalStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    fn slot(&self, i: usize) -> Result<Value> {
        if let Some(r) = &self.cache.borrow()[i] {
            return r.clone();
        }
        let (var, column) = &self.slots[i];
        let r = self.env.value(var, column).cloned();
        self.cache.borrow_mut()[i] = Some(r.clone());
        r
    }
}

fn p_eval_scalar(ctx: &ExecCtx<'_>, e: &PExpr, scope: &Scope<'_>) -> Result<Value> {
    match e {
        PExpr::Column { qualifier, name } => scope.resolve(qualifier.as_deref(), name),
        PExpr::Slot(i) => ctx.slot(*i),
        PExpr::Literal(v) => Ok(v.clone()),
        PExpr::Binary { op, lhs, rhs } => {
            let l = p_eval_scalar(ctx, lhs, scope)?;
            match op {
                BinOp::And => {
                    if !l.is_truthy() {
                        return Ok(Value::Bool(false));
                    }
                    let r = p_eval_scalar(ctx, rhs, scope)?;
                    Ok(Value::Bool(r.is_truthy()))
                }
                BinOp::Or => {
                    if l.is_truthy() {
                        return Ok(Value::Bool(true));
                    }
                    let r = p_eval_scalar(ctx, rhs, scope)?;
                    Ok(Value::Bool(r.is_truthy()))
                }
                _ => {
                    let r = p_eval_scalar(ctx, rhs, scope)?;
                    eval_binop(*op, &l, &r)
                }
            }
        }
        PExpr::Not(inner) => {
            let v = p_eval_scalar(ctx, inner, scope)?;
            if v.is_null() {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(!v.is_truthy()))
            }
        }
        PExpr::IsNull(inner) => {
            let v = p_eval_scalar(ctx, inner, scope)?;
            Ok(Value::Bool(v.is_null()))
        }
        PExpr::Exists(block) => {
            ctx.bump(|s| s.exists_evals += 1);
            let rel = exec_block(ctx, block, Some(scope))?;
            Ok(Value::Bool(!rel.is_empty()))
        }
        PExpr::Aggregate { .. } => Err(Error::MisplacedAggregate),
    }
}

/// Mirrors `eval::eval_agg_expr`: aggregates accumulate over the group,
/// boolean connectives do *not* short-circuit, other subexpressions
/// evaluate on the group's first row (NULL columns for an empty group).
fn p_agg_expr(
    ctx: &ExecCtx<'_>,
    e: &PExpr,
    layout: &Layout,
    group: &[&[Value]],
    parent: Option<&Scope<'_>>,
) -> Result<Value> {
    match e {
        PExpr::Aggregate { func, arg } => {
            let mut acc = AggAcc::new(*func);
            for row in group {
                let scope = Scope {
                    layout,
                    row,
                    parent,
                    probe: None,
                };
                let v = match arg {
                    Some(a) => p_eval_scalar(ctx, a, &scope)?,
                    None => Value::Int(1), // COUNT(*)
                };
                acc.feed(&v)?;
            }
            Ok(acc.finish())
        }
        PExpr::Binary { op, lhs, rhs } => {
            let l = p_agg_expr(ctx, lhs, layout, group, parent)?;
            let r = p_agg_expr(ctx, rhs, layout, group, parent)?;
            match op {
                BinOp::And => Ok(Value::Bool(l.is_truthy() && r.is_truthy())),
                BinOp::Or => Ok(Value::Bool(l.is_truthy() || r.is_truthy())),
                _ => eval_binop(*op, &l, &r),
            }
        }
        PExpr::Not(inner) => {
            let v = p_agg_expr(ctx, inner, layout, group, parent)?;
            if v.is_null() {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(!v.is_truthy()))
            }
        }
        PExpr::IsNull(inner) => {
            let v = p_agg_expr(ctx, inner, layout, group, parent)?;
            Ok(Value::Bool(v.is_null()))
        }
        other => match group.first() {
            Some(row) => {
                let scope = Scope {
                    layout,
                    row,
                    parent,
                    probe: None,
                };
                p_eval_scalar(ctx, other, &scope)
            }
            None => match other {
                PExpr::Column { .. } => Ok(Value::Null),
                _ => {
                    let empty_layout = Layout::new();
                    let empty_row: Vec<Value> = Vec::new();
                    let scope = Scope {
                        layout: &empty_layout,
                        row: &empty_row,
                        parent,
                        probe: None,
                    };
                    p_eval_scalar(ctx, other, &scope)
                }
            },
        },
    }
}

fn exec_block(
    ctx: &ExecCtx<'_>,
    block: &PlanBlock,
    parent: Option<&Scope<'_>>,
) -> Result<Relation> {
    let rows = exec_source_rows(ctx, block, parent)?;
    Ok(Relation {
        columns: block.columns.clone(),
        rows: finish_block(ctx, block, &rows, parent)?,
    })
}

/// FROM + WHERE: scans (with fused pushdown), joins, prefix filters,
/// residuals and preserved-side padding — everything up to (but excluding)
/// projection. The batch executor runs this once and projects per binding.
fn exec_source_rows(
    ctx: &ExecCtx<'_>,
    block: &PlanBlock,
    parent: Option<&Scope<'_>>,
) -> Result<Vec<Vec<Value>>> {
    ctx.bump(|s| s.queries += 1);

    let mut work: Option<Vec<Vec<Value>>> = None;
    // Preserved-side baselines: (offset, width, rows after pushdown).
    let mut baselines: Vec<(usize, usize, Vec<Vec<Value>>)> = Vec::new();

    for item in &block.from {
        let rows = match &item.source {
            PlanSource::Scan(name) => {
                let table = ctx.db.table(name)?;
                let mut out = Vec::new();
                // Index access path: fetch candidates by key, recheck
                // through the (still-present) pushdown equality. Falls
                // back to the scan when the runtime table lacks the index
                // the catalog promised (e.g. a stale plan).
                let mut via_index = false;
                if ctx.options.use_indexes {
                    if let Access::IndexEq { column, key } = &item.access {
                        if let Some(idx) = table.index_for(*column) {
                            via_index = true;
                            ctx.bump(|s| s.index_lookups += 1);
                            if !table.is_empty() {
                                // The key is a literal or slot — it needs
                                // no row in scope (parent stays reachable
                                // for correlated layouts' sake only).
                                let empty_layout = Layout::new();
                                let empty_row: Vec<Value> = Vec::new();
                                let scope = Scope {
                                    layout: &empty_layout,
                                    row: &empty_row,
                                    parent,
                                    probe: None,
                                };
                                let kv = p_eval_scalar(ctx, key, &scope)?;
                                let rids = idx.lookup(&kv);
                                ctx.bump(|s| s.rows_scanned += rids.len() as u64);
                                'rid: for &rid in rids {
                                    let row = table.fetch_row(rid);
                                    for p in &item.pushdown {
                                        let scope = Scope {
                                            layout: &item.layout,
                                            row: &row,
                                            parent,
                                            probe: None,
                                        };
                                        if !p_eval_scalar(ctx, p, &scope)?.is_truthy() {
                                            continue 'rid;
                                        }
                                    }
                                    out.push(row);
                                }
                            }
                        }
                    }
                }
                if !via_index {
                    ctx.bump(|s| s.rows_scanned += table.len() as u64);
                    // Fused scan + pushdown: evaluate the pushed-down
                    // conjuncts while streaming the stored rows, keeping
                    // survivors only.
                    'row: for row in table.scan() {
                        for p in &item.pushdown {
                            let scope = Scope {
                                layout: &item.layout,
                                row: row.as_ref(),
                                parent,
                                probe: None,
                            };
                            if !p_eval_scalar(ctx, p, &scope)?.is_truthy() {
                                continue 'row;
                            }
                        }
                        out.push(row.into_owned());
                    }
                }
                out
            }
            PlanSource::Derived(child) => {
                let rel = exec_block(ctx, child, parent)?;
                let mut rows = rel.rows;
                for p in &item.pushdown {
                    p_filter_rows(ctx, &mut rows, &item.layout, p, parent)?;
                }
                rows
            }
        };

        if item.preserved {
            baselines.push((item.prev_layout.len(), item.layout.len(), rows.clone()));
        }

        let mut joined = match work.take() {
            None => rows,
            Some(prev) => p_join(ctx, &prev, &rows, item, parent)?,
        };
        for p in &item.prefix_filters {
            p_filter_rows(ctx, &mut joined, &item.joined_layout, p, parent)?;
        }
        work = Some(joined);
    }

    // An empty FROM list yields one empty row (the rebind-guard probe
    // shape), exactly like the interpreter.
    let mut rows = work.unwrap_or_else(|| vec![Vec::new()]);

    for pred in &block.residuals {
        p_apply_residual(ctx, &mut rows, &block.layout, pred, parent)?;
    }

    // Left-outer padding for preserved derived tables.
    for (offset, width, baseline) in &baselines {
        let present: HashSet<Vec<Key>> = rows
            .iter()
            .map(|r| r[*offset..offset + width].iter().map(key_of).collect())
            .collect();
        for b in baseline {
            let key: Vec<Key> = b.iter().map(key_of).collect();
            if !present.contains(&key) {
                let mut row = vec![Value::Null; block.layout.len()];
                row[*offset..offset + width].clone_from_slice(b);
                rows.push(row);
            }
        }
    }
    Ok(rows)
}

/// Projection (plain or grouped), HAVING and DISTINCT over the joined and
/// filtered source rows, owned or borrowed; returns the output rows (the
/// columns are `block.columns`).
fn finish_block<R: AsRef<[Value]>>(
    ctx: &ExecCtx<'_>,
    block: &PlanBlock,
    rows: &[R],
    parent: Option<&Scope<'_>>,
) -> Result<Vec<Vec<Value>>> {
    let mut out = if block.aggregating {
        p_project_grouped(ctx, block, rows, parent)?
    } else {
        p_project_plain(ctx, block, rows, parent)?
    };

    if block.distinct {
        let mut seen = HashSet::new();
        out.retain(|row| seen.insert(row.iter().map(key_of).collect::<Vec<Key>>()));
    }
    Ok(out)
}

fn p_filter_rows(
    ctx: &ExecCtx<'_>,
    rows: &mut Vec<Vec<Value>>,
    layout: &Layout,
    pred: &PExpr,
    parent: Option<&Scope<'_>>,
) -> Result<()> {
    let mut kept = Vec::with_capacity(rows.len());
    for row in rows.drain(..) {
        let scope = Scope {
            layout,
            row: &row,
            parent,
            probe: None,
        };
        if p_eval_scalar(ctx, pred, &scope)?.is_truthy() {
            kept.push(row);
        }
    }
    *rows = kept;
    Ok(())
}

/// Mirrors `eval::apply_residual_filter`: a probe cell detects whether the
/// first row's evaluation ever read the row scope; if not, the predicate is
/// row-independent and its result is reused (counted as cache hits).
fn p_apply_residual(
    ctx: &ExecCtx<'_>,
    rows: &mut Vec<Vec<Value>>,
    layout: &Layout,
    pred: &PExpr,
    parent: Option<&Scope<'_>>,
) -> Result<()> {
    let mut kept = Vec::with_capacity(rows.len());
    let mut cached: Option<bool> = None;
    let probe = Cell::new(false);
    for (i, row) in rows.drain(..).enumerate() {
        let keep = match cached {
            Some(b) => {
                ctx.bump(|s| s.exists_cache_hits += 1);
                b
            }
            None => {
                let scope = Scope {
                    layout,
                    row: &row,
                    parent,
                    probe: Some(&probe),
                };
                let b = p_eval_scalar(ctx, pred, &scope)?.is_truthy();
                if i == 0 && !probe.get() && ctx.options.cache_uncorrelated_exists {
                    cached = Some(b);
                }
                b
            }
        };
        if keep {
            kept.push(row);
        }
    }
    *rows = kept;
    Ok(())
}

fn p_join(
    ctx: &ExecCtx<'_>,
    prev_rows: &[Vec<Value>],
    next_rows: &[Vec<Value>],
    item: &PlanFrom,
    parent: Option<&Scope<'_>>,
) -> Result<Vec<Vec<Value>>> {
    if item.join_keys.is_empty() {
        // Cross product.
        let mut rows = Vec::with_capacity(prev_rows.len() * next_rows.len());
        for a in prev_rows {
            for b in next_rows {
                let mut row = a.clone();
                row.extend(b.iter().cloned());
                rows.push(row);
            }
        }
        ctx.bump(|s| {
            s.nested_loop_joins += 1;
            s.nested_loop_rows += rows.len() as u64;
        });
        return Ok(rows);
    }

    ctx.bump(|s| {
        s.hash_join_builds += 1;
        s.hash_join_build_rows += next_rows.len() as u64;
        s.hash_join_probe_rows += prev_rows.len() as u64;
    });

    // Cardinality-driven strategy: the joined prefix is statically <= 1
    // row, so instead of materializing a hash table over the next side,
    // its (precomputed, once per row — same evaluation counts as the
    // build) keys filter directly against the probe key. Same rows, same
    // order, same counters; no HashMap allocation.
    if item.filter_probe {
        let mut next_keys: Vec<Option<Vec<Key>>> = Vec::with_capacity(next_rows.len());
        'keys: for row in next_rows {
            let mut key = Vec::with_capacity(item.join_keys.len());
            for (_, nexpr) in &item.join_keys {
                let scope = Scope {
                    layout: &item.layout,
                    row,
                    parent,
                    probe: None,
                };
                let v = p_eval_scalar(ctx, nexpr, &scope)?;
                if v.is_null() {
                    next_keys.push(None); // NULL never equi-joins
                    continue 'keys;
                }
                key.push(key_of(&v));
            }
            next_keys.push(Some(key));
        }
        let mut rows = Vec::new();
        'fprobe: for a in prev_rows {
            let mut key = Vec::with_capacity(item.join_keys.len());
            for (pexpr, _) in &item.join_keys {
                let scope = Scope {
                    layout: &item.prev_layout,
                    row: a,
                    parent,
                    probe: None,
                };
                let v = p_eval_scalar(ctx, pexpr, &scope)?;
                if v.is_null() {
                    continue 'fprobe;
                }
                key.push(key_of(&v));
            }
            for (i, nk) in next_keys.iter().enumerate() {
                if nk.as_ref() == Some(&key) {
                    let mut row = a.clone();
                    row.extend(next_rows[i].iter().cloned());
                    rows.push(row);
                }
            }
        }
        return Ok(rows);
    }

    // Build on the next side.
    let mut index: HashMap<Vec<Key>, Vec<usize>> = HashMap::new();
    'build: for (i, row) in next_rows.iter().enumerate() {
        let mut key = Vec::with_capacity(item.join_keys.len());
        for (_, nexpr) in &item.join_keys {
            let scope = Scope {
                layout: &item.layout,
                row,
                parent,
                probe: None,
            };
            let v = p_eval_scalar(ctx, nexpr, &scope)?;
            if v.is_null() {
                continue 'build; // NULL never equi-joins
            }
            key.push(key_of(&v));
        }
        index.entry(key).or_default().push(i);
    }

    // Probe with the prev side.
    let mut rows = Vec::new();
    'probe: for a in prev_rows {
        let mut key = Vec::with_capacity(item.join_keys.len());
        for (pexpr, _) in &item.join_keys {
            let scope = Scope {
                layout: &item.prev_layout,
                row: a,
                parent,
                probe: None,
            };
            let v = p_eval_scalar(ctx, pexpr, &scope)?;
            if v.is_null() {
                continue 'probe;
            }
            key.push(key_of(&v));
        }
        if let Some(matches) = index.get(&key) {
            for &i in matches {
                let mut row = a.clone();
                row.extend(next_rows[i].iter().cloned());
                rows.push(row);
            }
        }
    }
    Ok(rows)
}

fn p_project_plain<R: AsRef<[Value]>>(
    ctx: &ExecCtx<'_>,
    block: &PlanBlock,
    rows: &[R],
    parent: Option<&Scope<'_>>,
) -> Result<Vec<Vec<Value>>> {
    let mut out_rows = Vec::with_capacity(rows.len());
    for row in rows {
        let row = row.as_ref();
        let scope = Scope {
            layout: &block.layout,
            row,
            parent,
            probe: None,
        };
        let mut out = Vec::with_capacity(block.columns.len());
        for item in &block.select {
            match item {
                PlanItem::Star => out.extend(row.iter().cloned()),
                PlanItem::QualifiedStar(qal) => {
                    for (i, (cq, _)) in block.layout.iter().enumerate() {
                        if cq == qal {
                            out.push(row[i].clone());
                        }
                    }
                }
                PlanItem::Expr(e) => out.push(p_eval_scalar(ctx, e, &scope)?),
            }
        }
        out_rows.push(out);
    }
    Ok(out_rows)
}

fn p_project_grouped<R: AsRef<[Value]>>(
    ctx: &ExecCtx<'_>,
    block: &PlanBlock,
    rows: &[R],
    parent: Option<&Scope<'_>>,
) -> Result<Vec<Vec<Value>>> {
    // Build groups in first-occurrence order.
    let mut group_order: Vec<Vec<Key>> = Vec::new();
    let mut groups: HashMap<Vec<Key>, Vec<&[Value]>> = HashMap::new();
    if block.group_by.is_empty() {
        // Implicit single group, present even over empty input.
        groups.insert(Vec::new(), rows.iter().map(AsRef::as_ref).collect());
        group_order.push(Vec::new());
    } else {
        for row in rows {
            let row = row.as_ref();
            let scope = Scope {
                layout: &block.layout,
                row,
                parent,
                probe: None,
            };
            let mut key = Vec::with_capacity(block.group_by.len());
            for g in &block.group_by {
                key.push(key_of(&p_eval_scalar(ctx, g, &scope)?));
            }
            if !groups.contains_key(&key) {
                group_order.push(key.clone());
            }
            groups.entry(key).or_default().push(row);
        }
    }

    ctx.bump(|s| s.group_buckets += groups.len() as u64);

    let mut out_rows = Vec::with_capacity(groups.len());
    for key in &group_order {
        let group = &groups[key];
        if let Some(h) = &block.having {
            let v = p_agg_expr(ctx, h, &block.layout, group, parent)?;
            if !v.is_truthy() {
                continue;
            }
        }
        let mut out = Vec::with_capacity(block.columns.len());
        for item in &block.select {
            match item {
                PlanItem::Star => match group.first() {
                    Some(r) => out.extend(r.iter().cloned()),
                    None => out.extend(block.layout.iter().map(|_| Value::Null)),
                },
                PlanItem::QualifiedStar(qal) => {
                    for (i, (cq, _)) in block.layout.iter().enumerate() {
                        if cq == qal {
                            match group.first() {
                                Some(r) => out.push(r[i].clone()),
                                None => out.push(Value::Null),
                            }
                        }
                    }
                }
                PlanItem::Expr(e) => out.push(p_agg_expr(ctx, e, &block.layout, group, parent)?),
            }
        }
        out_rows.push(out);
    }
    Ok(out_rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_query, eval_query_stats, NamedTuple};
    use crate::parse::parse_query;
    use crate::schema::{ColumnDef, ColumnType, TableSchema};

    fn hotel_db() -> Database {
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
        db.create_table(
            TableSchema::new(
                "confroom",
                vec![
                    ColumnDef::new("c_id", ColumnType::Int),
                    ColumnDef::new("chotel_id", ColumnType::Int),
                    ColumnDef::new("capacity", ColumnType::Int),
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
        for (id, hotel, cap) in [(100, 10, 300), (101, 10, 150), (102, 12, 500)] {
            db.insert(
                "confroom",
                vec![Value::Int(id), Value::Int(hotel), Value::Int(cap)],
            )
            .unwrap();
        }
        db
    }

    /// Asserts rows AND stats parity with the interpreter on `sql`.
    fn check(db: &Database, sql: &str, env: &ParamEnv) -> Relation {
        let q = parse_query(sql).unwrap();
        let mut interp_stats = EvalStats::default();
        let interp =
            eval_query_stats(db, &q, env, EvalOptions::default(), &mut interp_stats).unwrap();
        let plan = prepare(&q, &db.catalog()).unwrap();
        let mut plan_stats = EvalStats::default();
        let prepared = plan.execute_stats(db, env, &mut plan_stats).unwrap();
        assert_eq!(prepared, interp, "relation mismatch for {sql}");
        assert_eq!(plan_stats, interp_stats, "stats mismatch for {sql}");
        prepared
    }

    fn metro_param(id: i64, name: &str) -> ParamEnv {
        let mut env = ParamEnv::new();
        env.insert(
            "m".into(),
            NamedTuple {
                columns: vec!["metroid".into(), "metroname".into()],
                values: vec![Value::Int(id), Value::Str(name.into())],
            },
        );
        env
    }

    #[test]
    fn scan_filter_join_parity() {
        let db = hotel_db();
        for sql in [
            "SELECT metroid, metroname FROM metroarea",
            "SELECT hotelname FROM hotel WHERE starrating > 4",
            "SELECT hotelname, metroname FROM hotel, metroarea WHERE metro_id = metroid",
            "SELECT hotelname, metroname FROM hotel, metroarea",
            "SELECT metroname, hotelname, capacity FROM metroarea, hotel, confroom \
             WHERE metro_id = metroid AND chotel_id = hotelid",
            "SELECT DISTINCT starrating FROM hotel",
        ] {
            check(&db, sql, &ParamEnv::new());
        }
    }

    #[test]
    fn aggregate_parity() {
        let db = hotel_db();
        for sql in [
            "SELECT chotel_id, SUM(capacity), COUNT(*) FROM confroom GROUP BY chotel_id",
            "SELECT SUM(capacity) FROM confroom",
            "SELECT SUM(capacity), COUNT(*) FROM confroom WHERE capacity > 9999",
            "SELECT chotel_id FROM confroom GROUP BY chotel_id HAVING SUM(capacity) > 400",
            "SELECT MIN(capacity), MAX(capacity), AVG(capacity) FROM confroom",
        ] {
            check(&db, sql, &ParamEnv::new());
        }
    }

    #[test]
    fn exists_parity_including_cache_counters() {
        let db = hotel_db();
        for sql in [
            "SELECT * FROM hotel WHERE EXISTS (SELECT * FROM metroarea WHERE metroid = 1)",
            "SELECT * FROM hotel WHERE EXISTS (SELECT * FROM metroarea WHERE metroid = 99)",
            "SELECT hotelname FROM hotel \
             WHERE EXISTS (SELECT * FROM confroom WHERE chotel_id = hotelid)",
        ] {
            check(&db, sql, &ParamEnv::new());
        }
    }

    #[test]
    fn parameterized_parity_and_slots() {
        let db = hotel_db();
        let env = metro_param(1, "chicago");
        let sql = "SELECT * FROM hotel WHERE metro_id=$m.metroid AND starrating > 4";
        let r = check(&db, sql, &env);
        assert_eq!(r.len(), 1);
        let plan = prepare(&parse_query(sql).unwrap(), &db.catalog()).unwrap();
        assert_eq!(plan.slots(), &[("m".to_owned(), "metroid".to_owned())]);
    }

    #[test]
    fn derived_table_with_params_parity() {
        let db = hotel_db();
        let env = metro_param(1, "chicago");
        let r = check(
            &db,
            "SELECT SUM(capacity), TEMP.* \
             FROM confroom, (SELECT * FROM hotel \
                             WHERE metro_id=$m.metroid AND starrating > 4) AS TEMP \
             WHERE chotel_id=TEMP.hotelid \
             GROUP BY TEMP.hotelid, TEMP.hotelname, TEMP.starrating, TEMP.metro_id",
            &env,
        );
        assert_eq!(r.rows[0][0], Value::Int(450));
    }

    #[test]
    fn preserved_derived_table_parity() {
        let db = hotel_db();
        check(
            &db,
            "SELECT COUNT(c_id), TEMP.hotelid \
             FROM confroom, OUTER (SELECT * FROM hotel) AS TEMP \
             WHERE chotel_id = TEMP.hotelid GROUP BY TEMP.hotelid",
            &ParamEnv::new(),
        );
    }

    #[test]
    fn one_plan_many_environments() {
        let db = hotel_db();
        let q = parse_query("SELECT hotelname FROM hotel WHERE metro_id=$m.metroid").unwrap();
        let plan = prepare(&q, &db.catalog()).unwrap();
        let r1 = plan.execute(&db, &metro_param(1, "chicago")).unwrap();
        let r2 = plan.execute(&db, &metro_param(2, "nyc")).unwrap();
        assert_eq!(r1.len(), 2);
        assert_eq!(r2.len(), 1);
        assert_eq!(r2.rows[0][0], Value::Str("plaza".into()));
    }

    #[test]
    fn invalid_queries_rejected_at_prepare() {
        let db = hotel_db();
        let dup = parse_query("SELECT * FROM hotel, hotel").unwrap();
        assert!(matches!(
            prepare(&dup, &db.catalog()),
            Err(Error::DuplicateAlias { .. })
        ));
        let agg = parse_query("SELECT * FROM confroom WHERE SUM(capacity) > 1").unwrap();
        assert!(matches!(
            prepare(&agg, &db.catalog()),
            Err(Error::MisplacedAggregate)
        ));
        let missing = parse_query("SELECT * FROM nonexistent").unwrap();
        assert!(matches!(
            prepare(&missing, &db.catalog()),
            Err(Error::UnknownTable { .. })
        ));
    }

    #[test]
    fn unbound_parameter_errors_at_execute() {
        let db = hotel_db();
        let q = parse_query("SELECT * FROM hotel WHERE metro_id=$m.metroid").unwrap();
        let plan = prepare(&q, &db.catalog()).unwrap();
        assert!(matches!(
            plan.execute(&db, &ParamEnv::new()),
            Err(Error::UnboundParameter { .. })
        ));
    }

    /// Scalar reference loop for batch parity: `execute_stats` per env,
    /// stopping at the first error, summing stats only over successes.
    fn scalar_loop(
        plan: &PreparedPlan,
        db: &Database,
        envs: &[ParamEnv],
    ) -> Result<(Vec<Relation>, EvalStats)> {
        let mut stats = EvalStats::default();
        let mut out = Vec::new();
        for env in envs {
            out.push(plan.execute_stats(db, env, &mut stats)?);
        }
        Ok((out, stats))
    }

    #[test]
    fn batch_fast_path_matches_scalar_loop() {
        let db = hotel_db();
        let q = parse_query("SELECT hotelname FROM hotel WHERE metro_id=$m.metroid").unwrap();
        let plan = prepare(&q, &db.catalog()).unwrap();
        assert!(plan.batchable());
        let envs = vec![
            metro_param(1, "chicago"),
            metro_param(2, "nyc"),
            metro_param(1, "chicago"), // duplicate binding
            metro_param(99, "nowhere"),
        ];
        let (scalar, _) = scalar_loop(&plan, &db, &envs).unwrap();
        let mut stats = EvalStats::default();
        let batch = plan.execute_batch_stats(&db, &envs, &mut stats).unwrap();
        assert_eq!(batch.bindings(), envs.len());
        assert_eq!(batch.columns(), &["hotelname".to_owned()]);
        for (i, rel) in scalar.iter().enumerate() {
            assert_eq!(batch.rows_for(i), &rel.rows[..], "binding {i}");
        }
        // One shared pipeline run, one binding hash-join, one
        // param_query per *distinct* binding (3, not 4).
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.rows_scanned, 3);
        assert_eq!(stats.param_queries, 3);
        assert_eq!(stats.hash_join_builds, 1);
        assert_eq!(stats.hash_join_build_rows, 3);
        assert_eq!(stats.hash_join_probe_rows, 3);
        assert_eq!(batch.total_rows(), 2 + 1 + 2);
        assert_eq!(batch.tagged_rows().count(), 5);
    }

    #[test]
    fn batch_fallback_still_matches_scalar_loop() {
        let db = hotel_db();
        // Non-equality slot predicate: not separable, so execute_batch
        // runs once per distinct binding instead of joining.
        let q = parse_query("SELECT hotelname FROM hotel WHERE starrating > $m.metroid").unwrap();
        let plan = prepare(&q, &db.catalog()).unwrap();
        assert!(!plan.batchable());
        let envs = vec![
            metro_param(4, "x"),
            metro_param(4, "x"),
            metro_param(0, "y"),
        ];
        let (scalar, _) = scalar_loop(&plan, &db, &envs).unwrap();
        let mut stats = EvalStats::default();
        let batch = plan.execute_batch_stats(&db, &envs, &mut stats).unwrap();
        for (i, rel) in scalar.iter().enumerate() {
            assert_eq!(batch.rows_for(i), &rel.rows[..], "binding {i}");
        }
        // Two distinct bindings: two executions, two param_queries.
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.param_queries, 2);
    }

    /// A batch binding `$v.a` to each of `values` runs `sql` over a
    /// database of one `table` holding `rows`. Each binding's rows must be
    /// its scalar execution's; returns the batch's `(param_queries,
    /// total_rows)`.
    fn strict_identity_batch(
        table: TableSchema,
        rows: Vec<Vec<Value>>,
        sql: &str,
        values: &[Value],
    ) -> (u64, usize) {
        let mut db = Database::new();
        let name = table.name.clone();
        db.create_table(table);
        for row in rows {
            db.insert(&name, row).unwrap();
        }
        let envs: Vec<ParamEnv> = values
            .iter()
            .map(|v| {
                ParamEnv::from([(
                    "v".to_owned(),
                    NamedTuple {
                        columns: vec!["a".into()],
                        values: vec![v.clone()],
                    },
                )])
            })
            .collect();
        let plan = prepare(&parse_query(sql).unwrap(), &db.catalog()).unwrap();
        assert!(plan.batchable());
        let mut stats = EvalStats::default();
        let batch = plan.execute_batch_stats(&db, &envs, &mut stats).unwrap();
        assert_eq!(batch.bindings(), envs.len());
        for (i, env) in envs.iter().enumerate() {
            let scalar = plan.execute(&db, env).unwrap();
            assert_eq!(batch.rows_for(i), &scalar.rows[..], "binding {i}: {env:?}");
        }
        (stats.param_queries, batch.total_rows())
    }

    #[test]
    fn batch_dedup_keeps_strict_identity_and_shares_groups() {
        // Int(2), Float(2.0) and Str("2") are three bindings, and so are the
        // two float zeros; each value appears twice, and each duplicate
        // shares its first occurrence's group.
        let distinct = [
            Value::Int(2),
            Value::Float(2.0),
            Value::Str("2".into()),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Null,
        ];
        let values: Vec<Value> = distinct.iter().chain(&distinct).cloned().collect();
        let t = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("name", ColumnType::Str),
            ],
        )
        .unwrap();
        let rows = [2, 0, 3]
            .map(|id| vec![Value::Int(id), Value::Str(format!("n{id}"))])
            .to_vec();
        let sql = "SELECT id, name FROM t WHERE id = $v.a";
        assert_eq!(strict_identity_batch(t, rows, sql, &values), (6, 8));

        // Each zero binding matches both stored zeros.
        let u = TableSchema::new(
            "u",
            vec![
                ColumnDef::new("k", ColumnType::Float),
                ColumnDef::new("tag", ColumnType::Str),
            ],
        )
        .unwrap();
        let rows = [0.0, -0.0, 2.0]
            .map(|k| vec![Value::Float(k), Value::Str(format!("{k:?}"))])
            .to_vec();
        let sql = "SELECT k, tag FROM u WHERE k = $v.a";
        assert_eq!(strict_identity_batch(u, rows, sql, &values), (6, 12));
    }

    #[test]
    fn batch_error_agreement_with_scalar_loop() {
        let db = hotel_db();
        let q = parse_query("SELECT hotelname FROM hotel WHERE metro_id=$m.metroid").unwrap();
        let plan = prepare(&q, &db.catalog()).unwrap();
        let envs = vec![metro_param(1, "chicago"), ParamEnv::new()];
        let scalar_err = scalar_loop(&plan, &db, &envs).unwrap_err();
        let mut stats = EvalStats::default();
        let batch_err = plan
            .execute_batch_stats(&db, &envs, &mut stats)
            .unwrap_err();
        assert_eq!(format!("{scalar_err:?}"), format!("{batch_err:?}"));
        // Failed batch absorbs nothing.
        assert_eq!(stats, EvalStats::default());
    }

    #[test]
    fn shared_scan_builds_once_across_batches() {
        let db = hotel_db();
        let q = parse_query("SELECT hotelname FROM hotel WHERE metro_id=$m.metroid").unwrap();
        // The bound would demote an unshared single-binding batch to
        // scalar; a shared slot overrides it.
        let plan = prepare(&q, &db.catalog())
            .unwrap()
            .with_binding_bound(Card::AtMostOne);
        let envs = [
            metro_param(1, "chicago"),
            metro_param(2, "nyc"),
            metro_param(1, "chicago"),
            metro_param(99, "nowhere"),
        ];
        let (scalar, _) = scalar_loop(&plan, &db, &envs).unwrap();
        let scan = SharedScan::default();
        let mut total = EvalStats::default();
        for (i, env) in envs.iter().enumerate() {
            let mut stats = EvalStats::default();
            let batch = plan
                .execute_batch_shared(&db, std::slice::from_ref(env), Some(&scan), &mut stats)
                .unwrap();
            assert_eq!(batch.rows_for(0), &scalar[i].rows[..], "binding {i}");
            // The first batch scans and builds; the others only probe.
            let (rows, builds) = if i == 0 { (3, 1) } else { (0, 0) };
            assert_eq!(stats.rows_scanned, rows, "batch {i}: {stats:?}");
            assert_eq!(stats.hash_join_builds, builds, "batch {i}: {stats:?}");
            assert_eq!(stats.hash_join_probe_rows, 1, "batch {i}: {stats:?}");
            total.absorb(&stats);
        }
        assert_eq!(total.queries, 1);
        assert_eq!(total.param_queries, 4);
        assert_eq!(total.hash_join_build_rows, 3);
    }

    #[test]
    fn shared_scan_remembers_a_failed_pipeline() {
        let db = hotel_db();
        // The binding-free pipeline adds 1 to every hotel name and fails;
        // per binding, the slot equality drops every row first.
        let q = parse_query(
            "SELECT hotelname FROM hotel WHERE metro_id=$m.metroid AND hotelname + 1 > 0",
        )
        .unwrap();
        let plan = prepare(&q, &db.catalog()).unwrap();
        assert!(plan.batchable());
        let envs = [metro_param(99, "nowhere")];
        let (_, scalar_stats) = scalar_loop(&plan, &db, &envs).unwrap();
        let scan = SharedScan::default();
        for _ in 0..2 {
            let mut stats = EvalStats::default();
            let batch = plan
                .execute_batch_shared(&db, &envs, Some(&scan), &mut stats)
                .unwrap();
            assert!(batch.rows_for(0).is_empty());
            // Each batch runs per binding; the failed attempt counts
            // nothing, and the slot keeps the failure so it is not retried.
            assert_eq!(stats, scalar_stats);
            assert!(matches!(scan.pipeline.get(), Some(Pipeline::Failed)));
        }
    }

    #[test]
    fn shared_scan_leaves_index_nested_loop_alone() {
        let indexed = indexed_hotel_db();
        let q = parse_query("SELECT hotelname FROM hotel WHERE metro_id = $m.metroid").unwrap();
        let plan = prepare(&q, &indexed.catalog()).unwrap();
        let envs = [metro_param(1, "chicago"), metro_param(2, "nyc")];
        let scan = SharedScan::default();
        let mut shared = EvalStats::default();
        let mut unshared = EvalStats::default();
        for env in &envs {
            let env = std::slice::from_ref(env);
            let a = plan
                .execute_batch_shared(&indexed, env, Some(&scan), &mut shared)
                .unwrap();
            let b = plan
                .execute_batch_stats(&indexed, env, &mut unshared)
                .unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(shared, unshared);
        assert_eq!(shared.index_lookups, 2);
        assert_eq!(shared.hash_join_builds, 0);
    }

    #[test]
    fn batch_of_nothing_is_empty() {
        let db = hotel_db();
        let q = parse_query("SELECT hotelname FROM hotel WHERE metro_id=$m.metroid").unwrap();
        let plan = prepare(&q, &db.catalog()).unwrap();
        let mut stats = EvalStats::default();
        let batch = plan.execute_batch_stats(&db, &[], &mut stats).unwrap();
        assert!(batch.is_empty());
        assert_eq!(batch.columns(), &["hotelname".to_owned()]);
        assert_eq!(stats, EvalStats::default());
    }

    #[test]
    fn batch_relation_accessors_round_trip() {
        let db = hotel_db();
        let q = parse_query("SELECT hotelname FROM hotel WHERE metro_id=$m.metroid").unwrap();
        let plan = prepare(&q, &db.catalog()).unwrap();
        let envs = vec![metro_param(2, "nyc")];
        let batch = plan.execute_batch(&db, &envs).unwrap();
        let direct = plan.execute(&db, &envs[0]).unwrap();
        assert_eq!(batch.relation_for(0), direct);
        assert_eq!(batch.into_relations(), vec![direct]);
    }

    #[test]
    fn describe_renders_pipeline_and_batch_operator() {
        let db = hotel_db();
        let q = parse_query(
            "SELECT hotelname, capacity FROM hotel, confroom \
             WHERE chotel_id = hotelid AND metro_id = $m.metroid AND starrating > 3",
        )
        .unwrap();
        let plan = prepare(&q, &db.catalog()).unwrap();
        let text = plan.describe();
        assert!(text.contains("slots: s0=$m.metroid"), "{text}");
        assert!(text.contains("from[0]: scan hotel"), "{text}");
        assert!(text.contains("fused pushdown"), "{text}");
        assert!(text.contains("hash join on"), "{text}");
        assert!(
            text.contains("batch: set-oriented") && text.contains("= $m.metroid"),
            "{text}"
        );

        let unbatched = prepare(
            &parse_query("SELECT hotelname FROM hotel WHERE starrating > $m.metroid").unwrap(),
            &db.catalog(),
        )
        .unwrap();
        assert!(
            unbatched.describe().contains("per-distinct-binding"),
            "{}",
            unbatched.describe()
        );

        let slotless = prepare(
            &parse_query("SELECT hotelname FROM hotel").unwrap(),
            &db.catalog(),
        )
        .unwrap();
        assert!(
            slotless.describe().contains("single shared execution"),
            "{}",
            slotless.describe()
        );
    }

    #[test]
    fn describe_states_every_plan_decision() {
        // (catalog, options, query, rendered facts, absent phrases)
        type Case<'a> = (
            &'a Catalog,
            EvalOptions,
            &'a str,
            &'a [&'a str],
            &'a [&'a str],
        );
        let plain = hotel_db().catalog();
        let indexed = indexed_hotel_db().catalog();
        let mut keyed = pk_db();
        for column in ["starrating", "hotelid"] {
            keyed
                .create_index("hotel", column, crate::schema::IndexKind::Hash)
                .unwrap();
        }
        let keyed = keyed.catalog();
        let default = EvalOptions::default();
        let no_index = EvalOptions {
            use_indexes: false,
            ..default
        };
        let no_hash = EvalOptions {
            hash_joins: false,
            ..default
        };
        let no_cache = EvalOptions {
            cache_uncorrelated_exists: false,
            ..default
        };
        let cases: &[Case<'_>] = &[
            // Pushdown into the scan.
            (
                &plain,
                default,
                "SELECT hotelname FROM hotel WHERE starrating > 4",
                &[
                    "from[0]: scan hotel",
                    "fused pushdown: starrating > 4",
                    "project: hotelname",
                ],
                &["index lookup"],
            ),
            // An indexed slot equality is an index lookup...
            (
                &indexed,
                default,
                "SELECT hotelname FROM hotel WHERE metro_id = $m.metroid",
                &["from[0]: index lookup hotel on metro_id = $m.metroid"],
                &["from[0]: scan hotel"],
            ),
            // ...but not with indexes off...
            (
                &indexed,
                no_index,
                "SELECT hotelname FROM hotel WHERE metro_id = $m.metroid",
                &["from[0]: scan hotel", "fused pushdown: metro_id = $m.metroid"],
                &["index lookup"],
            ),
            // ...nor without an index.
            (
                &plain,
                default,
                "SELECT hotelname FROM hotel WHERE metro_id = 3",
                &["fused pushdown: metro_id = 3"],
                &["index lookup"],
            ),
            // A primary-key equality wins over an earlier indexed one.
            (
                &keyed,
                default,
                "SELECT hotelname FROM hotel WHERE starrating = 5 AND hotelid = 12",
                &["index lookup hotel on hotelid = 12"],
                &["index lookup hotel on starrating"],
            ),
            // Hash-join keys.
            (
                &plain,
                default,
                "SELECT hotelname, metroname FROM hotel, metroarea WHERE metro_id = metroid",
                &["from[1]: scan metroarea | hash join on (metro_id = metroid)"],
                &["nested-loop"],
            ),
            // No equality key: a cross product.
            (
                &plain,
                default,
                "SELECT hotelname, metroname FROM hotel, metroarea",
                &["from[1]: scan metroarea | nested-loop (cross) join"],
                &["hash join"],
            ),
            // Hash joins off: a nested loop, the key becomes a filter.
            (
                &plain,
                no_hash,
                "SELECT hotelname, metroname FROM hotel, metroarea WHERE metro_id = metroid",
                &[
                    "from[1]: scan metroarea | nested-loop (cross) join",
                    "prefix filter: metro_id = metroid",
                ],
                &["hash join"],
            ),
            // A derived table with its own pushdown, joined and grouped.
            (
                &plain,
                default,
                "SELECT SUM(capacity), TEMP.hotelid \
                 FROM confroom, (SELECT * FROM hotel WHERE starrating > 4) AS TEMP \
                 WHERE chotel_id = TEMP.hotelid GROUP BY TEMP.hotelid",
                &[
                    "from[1]: derived subplan | hash join on (chotel_id = TEMP.hotelid)",
                    "\n    from[0]: scan hotel\n      fused pushdown: starrating > 4",
                    "| group by 1 (TEMP.hotelid)",
                ],
                &["preserved"],
            ),
            // A preserved (left-outer) derived table.
            (
                &plain,
                default,
                "SELECT COUNT(c_id), TEMP.hotelid \
                 FROM confroom, OUTER (SELECT * FROM hotel) AS TEMP \
                 WHERE chotel_id = TEMP.hotelid GROUP BY TEMP.hotelid",
                &["derived subplan | hash join on (chotel_id = TEMP.hotelid) | preserved (left-outer)"],
                &[],
            ),
            // A residual EXISTS shows its compiled subplan and the rule it
            // runs under; the correlated reference stays a residual there.
            (
                &plain,
                default,
                "SELECT hotelname FROM hotel \
                 WHERE EXISTS (SELECT * FROM confroom WHERE chotel_id = hotelid)",
                &[
                    "  residual: EXISTS (...)\n    exists subplan — runs for the first row; \
                     later rows reuse its result unless that run read a column of the row:\n",
                    "\n      from[0]: scan confroom\n      residual: chotel_id = hotelid\n",
                ],
                &["runs per row"],
            ),
            (
                &plain,
                no_cache,
                "SELECT hotelname FROM hotel WHERE EXISTS (SELECT * FROM metroarea WHERE metroid = 1)",
                &[
                    "exists subplan — runs per row:",
                    "      from[0]: scan metroarea\n        fused pushdown: metroid = 1",
                ],
                &["reuse"],
            ),
            // Group-by keys, HAVING and DISTINCT.
            (
                &plain,
                default,
                "SELECT DISTINCT chotel_id FROM confroom \
                 GROUP BY chotel_id HAVING SUM(capacity) > 400",
                &["project: chotel_id | group by 1 (chotel_id) | having SUM(capacity) > 400 | distinct"],
                &[],
            ),
            (
                &plain,
                default,
                "SELECT COUNT(*) FROM confroom",
                &["| group by 0 (one implicit group)"],
                &["having"],
            ),
        ];
        for (catalog, options, sql, present, absent) in cases {
            let q = parse_query(sql).unwrap();
            let text = prepare_with(&q, catalog, *options).unwrap().describe();
            for p in *present {
                assert!(text.contains(p), "{sql}: missing {p:?} in\n{text}");
            }
            for a in *absent {
                assert!(!text.contains(a), "{sql}: unexpected {a:?} in\n{text}");
            }
        }
    }

    /// `hotel_db` with a hash index on `hotel.metro_id`.
    fn indexed_hotel_db() -> Database {
        let mut db = hotel_db();
        db.create_index("hotel", "metro_id", crate::schema::IndexKind::Hash)
            .unwrap();
        db
    }

    #[test]
    fn index_lookup_matches_scan_rows_and_order() {
        let plain = hotel_db();
        let indexed = indexed_hotel_db();
        let q = parse_query("SELECT hotelname FROM hotel WHERE metro_id = $m.metroid").unwrap();
        let scan_plan = prepare(&q, &plain.catalog()).unwrap();
        let idx_plan = prepare(&q, &indexed.catalog()).unwrap();
        for id in [1, 2, 99] {
            let env = metro_param(id, "x");
            let mut scan_stats = EvalStats::default();
            let mut idx_stats = EvalStats::default();
            let scanned = scan_plan
                .execute_stats(&plain, &env, &mut scan_stats)
                .unwrap();
            let looked_up = idx_plan
                .execute_stats(&indexed, &env, &mut idx_stats)
                .unwrap();
            assert_eq!(scanned, looked_up, "metroid {id}");
            assert_eq!(idx_stats.index_lookups, 1);
            assert_eq!(scan_stats.index_lookups, 0);
            // The lookup touches only candidate rows.
            assert_eq!(idx_stats.rows_scanned, looked_up.len() as u64);
            assert!(idx_stats.rows_scanned <= scan_stats.rows_scanned);
        }
        // Literal keys take the index path too.
        let q = parse_query("SELECT hotelname FROM hotel WHERE 2 = metro_id").unwrap();
        let plan = prepare(&q, &indexed.catalog()).unwrap();
        let mut stats = EvalStats::default();
        let rel = plan
            .execute_stats(&indexed, &ParamEnv::new(), &mut stats)
            .unwrap();
        assert_eq!(rel, eval_query(&plain, &q, &ParamEnv::new()).unwrap());
        assert_eq!(stats.index_lookups, 1);
    }

    #[test]
    fn index_lookup_respects_use_indexes_and_missing_runtime_index() {
        let indexed = indexed_hotel_db();
        let q = parse_query("SELECT hotelname FROM hotel WHERE metro_id = 1").unwrap();
        let off = prepare_with(
            &q,
            &indexed.catalog(),
            EvalOptions {
                use_indexes: false,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        let mut stats = EvalStats::default();
        off.execute_stats(&indexed, &ParamEnv::new(), &mut stats)
            .unwrap();
        assert_eq!(stats.index_lookups, 0);
        assert!(
            !off.describe().contains("index lookup"),
            "{}",
            off.describe()
        );

        // Plan compiled against the indexed catalog, executed against a
        // database without the runtime index: falls back to the scan.
        let plan = prepare(&q, &indexed.catalog()).unwrap();
        let plain = hotel_db();
        let mut stats = EvalStats::default();
        let rel = plan
            .execute_stats(&plain, &ParamEnv::new(), &mut stats)
            .unwrap();
        assert_eq!(stats.index_lookups, 0);
        assert_eq!(rel, plan.execute(&indexed, &ParamEnv::new()).unwrap());
    }

    #[test]
    fn index_nested_loop_batch_matches_scalar_loop() {
        let indexed = indexed_hotel_db();
        let q = parse_query("SELECT hotelname FROM hotel WHERE metro_id = $m.metroid").unwrap();
        let plan = prepare(&q, &indexed.catalog()).unwrap();
        assert!(plan.batchable());
        let text = plan.describe();
        assert!(
            text.contains("index lookup hotel on metro_id = $m.metroid"),
            "{text}"
        );
        assert!(text.contains("batch: index-nested-loop"), "{text}");
        let envs = vec![
            metro_param(1, "chicago"),
            metro_param(2, "nyc"),
            metro_param(1, "chicago"),
            metro_param(99, "nowhere"),
        ];
        let (scalar, _) = scalar_loop(&plan, &indexed, &envs).unwrap();
        let mut stats = EvalStats::default();
        let batch = plan
            .execute_batch_stats(&indexed, &envs, &mut stats)
            .unwrap();
        for (i, rel) in scalar.iter().enumerate() {
            assert_eq!(batch.rows_for(i), &rel.rows[..], "binding {i}");
        }
        // One indexed execution per distinct binding (3), no shared scan.
        assert_eq!(stats.index_lookups, 3);
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.hash_join_builds, 0);
        // Only matching rows were fetched.
        assert_eq!(stats.rows_scanned, batch.total_rows() as u64 - 2); // dup binding shares its rows
    }

    #[test]
    fn hash_joins_disabled_matches_interpreter() {
        let db = hotel_db();
        let q = parse_query(
            "SELECT hotelname, metroname FROM hotel, metroarea WHERE metro_id = metroid",
        )
        .unwrap();
        let opts = EvalOptions {
            hash_joins: false,
            ..EvalOptions::default()
        };
        let mut interp_stats = EvalStats::default();
        let interp = eval_query_stats(&db, &q, &ParamEnv::new(), opts, &mut interp_stats).unwrap();
        let plan = prepare_with(&q, &db.catalog(), opts).unwrap();
        let mut plan_stats = EvalStats::default();
        let prepared = plan
            .execute_stats(&db, &ParamEnv::new(), &mut plan_stats)
            .unwrap();
        assert_eq!(prepared, interp);
        assert_eq!(plan_stats, interp_stats);
        assert!(plan_stats.nested_loop_joins > 0);
    }

    /// `hotel_db` data under a catalog with PRIMARY KEYs, so the
    /// cardinality pass has constraints to work with.
    fn pk_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "metroarea",
                vec![
                    ColumnDef::new("metroid", ColumnType::Int).primary_key(),
                    ColumnDef::new("metroname", ColumnType::Str),
                ],
            )
            .unwrap(),
        );
        db.create_table(
            TableSchema::new(
                "hotel",
                vec![
                    ColumnDef::new("hotelid", ColumnType::Int).primary_key(),
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

    #[test]
    fn bound_computed_and_rendered() {
        let db = pk_db();
        let pinned = prepare(
            &parse_query("SELECT metroname FROM metroarea WHERE metroid = $m.metroid").unwrap(),
            &db.catalog(),
        )
        .unwrap();
        assert!(pinned.bound().card.at_most_one(), "{:?}", pinned.bound());
        assert!(
            pinned.describe().contains("cardinality: <= 1 row"),
            "{}",
            pinned.describe()
        );

        let open = prepare(
            &parse_query("SELECT hotelname FROM hotel WHERE starrating > 3").unwrap(),
            &db.catalog(),
        )
        .unwrap();
        assert_eq!(open.bound().card, Card::Unbounded);
        assert!(
            open.describe().contains("cardinality: unbounded"),
            "{}",
            open.describe()
        );
    }

    #[test]
    fn filter_probe_join_fires_on_bounded_prefix_with_parity() {
        let db = pk_db();
        // metroarea's full PK is pinned by the parameter, so the joined
        // prefix entering the hotel join is statically <= 1 row.
        let sql = "SELECT hotelname, metroname FROM metroarea, hotel \
                   WHERE metroid = $m.metroid AND metro_id = metroid";
        let plan = prepare(&parse_query(sql).unwrap(), &db.catalog()).unwrap();
        let text = plan.describe();
        assert!(text.contains("filter-probe join on"), "{text}");
        assert!(!text.contains("hash join on"), "{text}");
        // Rows, order AND stats agree with the interpreter (the strategy
        // bumps the hash-join counters it replaces).
        let r = check(&db, sql, &metro_param(1, "chicago"));
        assert_eq!(r.len(), 2);

        // Without the pin the prefix is unbounded: ordinary hash join.
        let unpinned = prepare(
            &parse_query(
                "SELECT hotelname, metroname FROM metroarea, hotel WHERE metro_id = metroid",
            )
            .unwrap(),
            &db.catalog(),
        )
        .unwrap();
        assert!(
            unpinned.describe().contains("hash join on"),
            "{}",
            unpinned.describe()
        );
    }

    #[test]
    fn binding_bound_demotes_batch_to_scalar() {
        let db = hotel_db();
        let q = parse_query("SELECT hotelname FROM hotel WHERE metro_id=$m.metroid").unwrap();
        let plan = prepare(&q, &db.catalog())
            .unwrap()
            .with_binding_bound(Card::AtMostOne);
        assert!(plan.batchable());
        assert_eq!(plan.binding_bound(), Card::AtMostOne);
        let text = plan.describe();
        assert!(text.contains("binding bound: <= 1 row per batch"), "{text}");
        assert!(text.contains("per-binding scalar execution"), "{text}");

        let envs = vec![metro_param(2, "nyc")];
        let (scalar, scalar_stats) = scalar_loop(&plan, &db, &envs).unwrap();
        let mut stats = EvalStats::default();
        let batch = plan.execute_batch_stats(&db, &envs, &mut stats).unwrap();
        assert_eq!(batch.rows_for(0), &scalar[0].rows[..]);
        // No shared pipeline, no binding hash-join: the batch did exactly
        // the scalar loop's work.
        assert_eq!(stats, scalar_stats);
        assert_eq!(stats.hash_join_builds, 0);
        assert_eq!(stats.queries, 1);
    }

    #[test]
    fn index_selection_prefers_primary_key_equality() {
        let mut db = pk_db();
        // Indexes on both a non-key and the key column; the key equality
        // wins regardless of conjunct order.
        db.create_index("hotel", "starrating", crate::schema::IndexKind::Hash)
            .unwrap();
        db.create_index("hotel", "hotelid", crate::schema::IndexKind::Hash)
            .unwrap();
        let q = parse_query("SELECT hotelname FROM hotel WHERE starrating = 5 AND hotelid = 12")
            .unwrap();
        let plan = prepare(&q, &db.catalog()).unwrap();
        let text = plan.describe();
        assert!(
            text.contains("index lookup hotel on hotelid = 12"),
            "{text}"
        );
        let mut stats = EvalStats::default();
        let rel = plan
            .execute_stats(&db, &ParamEnv::new(), &mut stats)
            .unwrap();
        assert_eq!(rel.rows, vec![vec![Value::Str("plaza".into())]]);
        assert_eq!(stats.index_lookups, 1);
        assert_eq!(stats.rows_scanned, 1);
    }

    #[test]
    fn row_key_needs_one_scan_and_a_pushed_slot_equality() {
        let catalog = hotel_db().catalog();
        let key = |sql: &str, table: &str| {
            prepare(&parse_query(sql).unwrap(), &catalog)
                .unwrap()
                .row_key(table)
                .cloned()
        };
        let metro = |column| {
            Some(RowKey {
                column,
                param: ("m".to_owned(), "metroid".to_owned()),
            })
        };
        // Either operand order; other conjuncts and tables do not matter.
        assert_eq!(
            key(
                "SELECT * FROM hotel WHERE metro_id = $m.metroid AND starrating > 4",
                "hotel"
            ),
            metro(3)
        );
        assert_eq!(
            key(
                "SELECT hotelname FROM hotel h WHERE $m.metroid = h.metro_id",
                "hotel"
            ),
            metro(3)
        );
        let join = "SELECT c_id FROM hotel, confroom \
                    WHERE chotel_id = hotelid AND metro_id = $m.metroid";
        assert_eq!(key(join, "hotel"), metro(3));
        // confroom is tied to the bindings only through the join.
        assert_eq!(key(join, "confroom"), None);
        // No key: unread table, literal or non-equality pushdowns only.
        assert_eq!(
            key(
                "SELECT * FROM hotel WHERE metro_id = $m.metroid",
                "confroom"
            ),
            None
        );
        assert_eq!(key("SELECT * FROM hotel WHERE metro_id = 1", "hotel"), None);
        assert_eq!(
            key("SELECT * FROM hotel WHERE metro_id > $m.metroid", "hotel"),
            None
        );
        // A second read of the table — self-join, EXISTS, derived table —
        // lets rows of other bindings matter.
        for sql in [
            "SELECT a.hotelid FROM hotel a, hotel b \
             WHERE a.metro_id = $m.metroid AND b.hotelid = a.hotelid",
            "SELECT * FROM hotel WHERE metro_id = $m.metroid \
             AND EXISTS (SELECT 1 FROM hotel x WHERE x.starrating > 4)",
            "SELECT * FROM hotel, (SELECT hotelid AS hid FROM hotel) AS d \
             WHERE metro_id = $m.metroid AND hid = hotelid",
        ] {
            assert_eq!(key(sql, "hotel"), None, "{sql}");
        }
    }

    #[test]
    fn join_keys_unify_what_sql_equality_unifies() {
        let k = |v: Value| JoinKey::of(&v);
        assert_eq!(k(Value::Int(3)), k(Value::Float(3.0)));
        assert_eq!(k(Value::Float(-0.0)), k(Value::Float(0.0)));
        assert_ne!(k(Value::Int(3)), k(Value::Str("3".into())));
        assert_eq!(k(Value::Null), None);
    }
}
