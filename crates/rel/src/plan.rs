//! Prepared query plans: compile once, execute per parameter binding.
//!
//! The publisher evaluates each schema-tree tag query once *per parent
//! tuple* (Definition 1), so the interpreter re-classifies predicates,
//! re-derives the join order and re-resolves `$var.column` parameters on
//! every call — an N+1 planning pattern. [`prepare`] hoists all of that
//! to compile time:
//!
//! * **predicate classification** — WHERE conjuncts
//!   ([`ScalarExpr::conjuncts`]) are assigned to scans (pushdown),
//!   hash-join keys, joined-prefix filters or residuals using the *same*
//!   `pub(crate)` helpers the interpreter uses (`resolvable_within`,
//!   `equi_pair_layouts`), so the plan and interpreted execution can never
//!   disagree, and
//!   [`PreparedPlan::describe`] — the one plan printer `xvc explain`
//!   uses — renders the plan that runs;
//! * **join order and strategy** — fixed at compile time from
//!   catalog-derived layouts (which always equal the runtime layouts):
//!   FROM order, a hash join for an item with equi-join keys and a nested
//!   loop for one without. No cardinality bound steers the plan: a
//!   declared `PRIMARY KEY` only ranks a key equality first among the
//!   index access paths, and the bounds [`crate::facts`] derives are
//!   reports (`xvc explain`, `xvc check`) that nothing executes from;
//! * **parameter slots** — every `$var.column` becomes a numbered slot,
//!   resolved lazily against the environment ([`Bindings`], such as a
//!   [`ParamEnv`]) at most once per execution (the interpreter does a hash
//!   lookup per reference per row);
//! * **bound columns** — every column reference is bound to the position
//!   the interpreter's name walk would find: a scope depth (this row, the
//!   enclosing `EXISTS` row, ...) and an index into that scope's row, so
//!   evaluation reads `row[index]` instead of searching names per row;
//! * **fused scan + pushdown** — base-table rows are filtered while
//!   scanning, by reference (comparisons, `AND`/`OR`/`NOT` and `IS NULL`
//!   read the stored values and build no [`Value`]), and the scan yields
//!   the positions of the rows that pass. A block over one base table
//!   keeps those positions through its residuals, and every consumer reads
//!   the stored rows through them: projection copies a row's values once,
//!   into its output (the interpreter copies the whole table first, then
//!   filters), a batch probes them, and `DELETE` removes them
//!   (`PreparedPlan::matched_positions`).
//!
//! [`PreparedPlan::execute`] produces the same [`Relation`] — and
//! [`PreparedPlan::execute_stats`] the same [`EvalStats`] counters — as
//! `eval_query` / `eval_query_stats` on the same input; a property test
//! in `tests/prop_plan.rs` enforces the equivalence. Queries the
//! interpreter rejects at evaluation time (duplicate aliases, ambiguous
//! unqualified columns, aggregates in WHERE) are rejected by [`prepare`]
//! instead, which is the point: a cached plan fails at publish *setup*,
//! not on the thousandth tuple.

use std::borrow::{Borrow, Cow};
use std::cell::{Cell, OnceCell};
use std::collections::{HashMap, HashSet};
use std::convert::Infallible;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::ast::{AggFunc, BinOp, ScalarExpr, SelectItem, SelectQuery, TableRef};
use crate::error::{Error, Result};
use crate::eval::{
    ambiguity_from_sets, cols_set, equi_pair_layouts, eval_binop, key_of, not_pushable,
    resolvable_within, AggAcc, EvalStats, Key, Layout, ParamEnv, Relation, Scope,
};
use crate::print::{describe_condition, describe_expr};
use crate::schema::{Catalog, TableSchema};
use crate::table::{Database, Table};
use crate::value::{Identity, Value};

// ---------------------------------------------------------------------------
// Plan representation
// ---------------------------------------------------------------------------

/// A compiled scalar expression: parameters interned to slots, EXISTS
/// subqueries compiled to nested blocks, column references bound to the
/// scope position the interpreter's name walk finds (see [`PColumn`]), so
/// the interpreter's correlation and ambiguity semantics carry over.
#[derive(Debug, Clone)]
enum PExpr {
    Column(PColumn),
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

impl PExpr {
    /// The direct operands, as `ScalarExpr::operands` has them: an
    /// `EXISTS` block is not an operand.
    fn operands(&self) -> impl Iterator<Item = &PExpr> {
        let (first, second) = match self {
            PExpr::Binary { lhs, rhs, .. } => (Some(&**lhs), Some(&**rhs)),
            PExpr::Not(e) | PExpr::IsNull(e) | PExpr::Aggregate { arg: Some(e), .. } => {
                (Some(&**e), None)
            }
            _ => (None, None),
        };
        first.into_iter().chain(second)
    }

    /// Calls `f` on this node, then walks its operands, depth first and
    /// left to right, without entering `EXISTS` blocks.
    fn walk<'a>(&'a self, f: &mut impl FnMut(&'a PExpr)) {
        f(self);
        for operand in self.operands() {
            operand.walk(f);
        }
    }
}

/// A column reference as written, bound at prepare time against the
/// layouts of the scope chain it is evaluated under: the site's own layout
/// (a FROM item, the joined prefix, the block), then each enclosing block
/// an `EXISTS` or a derived table sees.
#[derive(Debug, Clone)]
struct PColumn {
    qualifier: Option<String>,
    name: String,
    /// `(depth, index)`: column `index` of the scope `depth` levels up,
    /// where `Scope::resolve` finds the reference. `None` when the name
    /// walk finds no single column (an unqualified name held twice, or
    /// none at all): evaluation then raises the walk's error, lazily.
    at: Option<(usize, usize)>,
}

impl PColumn {
    fn bind(qualifier: Option<&str>, name: &str, chain: &[&Layout]) -> PColumn {
        let mut at = None;
        for (depth, layout) in chain.iter().enumerate() {
            let mut hits = layout
                .iter()
                .enumerate()
                .filter(|(_, (q, n))| n == name && qualifier.is_none_or(|qq| qq == q));
            if let Some((index, _)) = hits.next() {
                // Like the walk: a qualified name takes the level's first
                // match, an unqualified one must be the level's only one.
                if qualifier.is_some() || hits.next().is_none() {
                    at = Some((depth, index));
                }
                break;
            }
        }
        PColumn {
            qualifier: qualifier.map(str::to_owned),
            name: name.to_owned(),
            at,
        }
    }

    /// The bound value, borrowed from the row in scope: `None` when the
    /// reference is bound to no single column.
    fn get<'r>(&self, scope: &'r Scope<'r>) -> Option<&'r Value> {
        let (depth, index) = self.at?;
        Some(scope.at(depth, index))
    }
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
    /// recheck, so NULL/NaN/zero-sign semantics match the scan path, and
    /// rows and row order equal the scan's. The one observable difference:
    /// the pushdown never runs on rows the index skips, so a predicate that
    /// would only type-error on such a row raises no error.
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
    /// Output column names, precomputed; the root block's are shared by
    /// every [`BatchResult`] the plan produces.
    columns: Arc<[String]>,
}

impl PlanBlock {
    /// This block's expressions: per FROM item its pushdowns, join keys
    /// and prefix filters, then the residuals, the select list, the
    /// grouping keys and `HAVING`. Nested blocks are not entered.
    fn exprs(&self) -> impl Iterator<Item = &PExpr> {
        self.from
            .iter()
            .flat_map(|item| {
                item.pushdown
                    .iter()
                    .chain(item.join_keys.iter().flat_map(|(l, r)| [l, r]))
                    .chain(&item.prefix_filters)
            })
            .chain(&self.residuals)
            .chain(self.select.iter().filter_map(|item| match item {
                PlanItem::Expr(e) => Some(e),
                PlanItem::Star | PlanItem::QualifiedStar(_) => None,
            }))
            .chain(&self.group_by)
            .chain(&self.having)
    }

    /// Calls `f` on this block and on every block nested in it, at any
    /// depth: derived tables and the `EXISTS` subplans of every expression.
    fn visit_blocks<'a>(&'a self, f: &mut impl FnMut(&'a PlanBlock)) {
        f(self);
        for item in &self.from {
            if let PlanSource::Derived(child) = &item.source {
                child.visit_blocks(f);
            }
        }
        for e in self.exprs() {
            e.walk(&mut |node| {
                if let PExpr::Exists(sub) = node {
                    sub.visit_blocks(f);
                }
            });
        }
    }
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

/// A non-NULL value under the hash joins' key normalisation. Values that
/// are SQL-equal always have equal keys, so matching keys may
/// over-approximate `=` (NaN, integers past 2^53) but never miss an equal
/// pair. NULL has no key: it equals nothing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JoinKey(Key);

impl JoinKey {
    /// The key of `v`, or `None` for NULL.
    pub fn of(v: &Value) -> Option<JoinKey> {
        (!v.is_null()).then(|| JoinKey(key_of(v)))
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
    /// `var`'s tuple, NULL or not — attribute `column` of the row `var`
    /// binds, under the one rule [`crate::SelectQuery::published`] states.
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
/// A slot reads the rows of the [`Database`] `'db` it was built over, so it
/// is valid for one plan over that one unchanged database: the caller
/// creates it for a single pass (a publish) and drops it afterwards. It
/// never belongs in a plan cache, since DML changes rows without changing
/// the catalog the plans were compiled against.
#[derive(Debug, Default)]
pub struct SharedScan<'db> {
    pipeline: OnceLock<Pipeline<'db>>,
}

/// What running a plan's binding-free pipeline produced.
#[derive(Debug)]
enum Pipeline<'db> {
    /// The stripped pipeline's rows, indexed by their deferred key values.
    Built { rows: Rows<'db>, index: KeyIndex },
    /// The pipeline raised an error on rows the per-binding filters would
    /// have dropped first, so batches execute per binding instead.
    Failed,
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

/// Compiles `q` against `catalog`. Executing the plan behaves like the
/// interpreter (`eval_query`) on the same query.
pub fn prepare(q: &SelectQuery, catalog: &Catalog) -> Result<PreparedPlan> {
    let mut compiler = Compiler {
        catalog,
        slots: Vec::new(),
    };
    let root = compiler.compile_block(q, &[])?;
    let batch = analyze_batch(&root, compiler.slots.len());
    let index_loop = batch.is_some()
        && root.from.iter().any(
            |f| matches!(&f.access, Access::IndexEq { key, .. } if matches!(**key, PExpr::Slot(_))),
        );
    let row_keys = row_keys(&root, &compiler.slots);
    Ok(PreparedPlan {
        root,
        slots: compiler.slots,
        batch,
        index_loop,
        row_keys,
    })
}

struct Compiler<'a> {
    catalog: &'a Catalog,
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

    /// Compiles `e` for evaluation under the scope chain whose layouts are
    /// `chain`, innermost first: column references bind against it, and
    /// an `EXISTS` block runs with the whole chain as its enclosing scopes.
    fn compile_expr(&mut self, e: &ScalarExpr, chain: &[&Layout]) -> Result<PExpr> {
        Ok(match e {
            ScalarExpr::Column { qualifier, name } => {
                PExpr::Column(PColumn::bind(qualifier.as_deref(), name, chain))
            }
            ScalarExpr::Param { var, column } => PExpr::Slot(self.slot(var, column)),
            ScalarExpr::Literal(v) => PExpr::Literal(v.clone()),
            ScalarExpr::Binary { op, lhs, rhs } => PExpr::Binary {
                op: *op,
                lhs: Box::new(self.compile_expr(lhs, chain)?),
                rhs: Box::new(self.compile_expr(rhs, chain)?),
            },
            ScalarExpr::Not(i) => PExpr::Not(Box::new(self.compile_expr(i, chain)?)),
            ScalarExpr::IsNull(i) => PExpr::IsNull(Box::new(self.compile_expr(i, chain)?)),
            ScalarExpr::Exists(q) => PExpr::Exists(Box::new(self.compile_block(q, chain)?)),
            ScalarExpr::Aggregate { func, arg } => PExpr::Aggregate {
                func: *func,
                arg: match arg {
                    Some(a) => Some(Box::new(self.compile_expr(a, chain)?)),
                    None => None,
                },
            },
        })
    }

    /// Mirrors `eval::eval_scoped_opt`'s per-evaluation classification,
    /// against catalog-derived layouts (which the runtime layouts always
    /// equal). The check order matches the interpreter so the same invalid
    /// query surfaces the same class of error. `outer` holds the layouts
    /// of the scopes the block runs under (its `parent` chain), innermost
    /// first: empty at the top level, the enclosing row's chain for an
    /// `EXISTS`, and the enclosing block's own `outer` for a derived table.
    fn compile_block(&mut self, q: &SelectQuery, outer: &[&Layout]) -> Result<PlanBlock> {
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
        // `TableRef::columns` pass inside its ambiguity check.
        let mut item_layouts: Vec<Layout> = Vec::new();
        let mut sets: Vec<HashSet<String>> = Vec::new();
        for t in &q.from {
            let alias = t.binding_name().to_owned();
            let cols = t.columns(&|n| self.catalog.get(n))?;
            sets.push(cols.iter().cloned().collect());
            item_layouts.push(cols.into_iter().map(|c| (alias.clone(), c)).collect());
        }
        ambiguity_from_sets(q, &sets)?;

        let conjuncts: Vec<&ScalarExpr> = q
            .where_clause
            .iter()
            .flat_map(ScalarExpr::conjuncts)
            .collect();
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
                    PlanSource::Derived(Box::new(self.compile_block(query, outer)?))
                }
            };

            let mut pushdown = Vec::new();
            for (i, c) in conjuncts.iter().enumerate() {
                if applied[i] || c.any(not_pushable) {
                    continue;
                }
                if resolvable_within(c, std::slice::from_ref(&alias), &this_cols) {
                    pushdown.push(self.compile_expr(c, &under(&layout, outer))?);
                    applied[i] = true;
                }
            }

            // Access-path selection: a pushed-down `col = literal/slot`
            // equality on an indexed column turns the scan into an index
            // lookup. The equality stays in `pushdown` as the recheck.
            let access = match t {
                TableRef::Named { name, .. } => {
                    select_index_access(self.catalog.get(name)?, &pushdown)
                }
                TableRef::Derived { .. } => Access::FullScan,
            };

            let mut join_keys = Vec::new();
            if idx > 0 {
                for (i, c) in conjuncts.iter().enumerate() {
                    if applied[i] {
                        continue;
                    }
                    if let Some((l, r)) = equi_pair_layouts(c, &full, &layout) {
                        join_keys.push((
                            self.compile_expr(&l, &under(&full, outer))?,
                            self.compile_expr(&r, &under(&layout, outer))?,
                        ));
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
                if applied[i] || c.any(not_pushable) {
                    continue;
                }
                if resolvable_within(c, &seen_aliases, &full_cols) {
                    prefix_filters.push(self.compile_expr(c, &under(&full, outer))?);
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
            });
        }

        // Residuals, the select list, GROUP BY and HAVING all evaluate over
        // the joined block row.
        let block = under(&full, outer);
        let mut residuals = Vec::new();
        for (i, c) in conjuncts.iter().enumerate() {
            if applied[i] {
                continue;
            }
            if c.contains_aggregate() {
                return Err(Error::MisplacedAggregate);
            }
            residuals.push(self.compile_expr(c, &block)?);
        }

        let columns = q.output_names(&full)?;
        let mut select = Vec::new();
        for item in &q.select {
            select.push(match item {
                SelectItem::Star => PlanItem::Star,
                SelectItem::QualifiedStar(qual) => PlanItem::QualifiedStar(qual.clone()),
                SelectItem::Expr { expr, .. } => PlanItem::Expr(self.compile_expr(expr, &block)?),
            });
        }
        let group_by = q
            .group_by
            .iter()
            .map(|g| self.compile_expr(g, &block))
            .collect::<Result<Vec<_>>>()?;
        let having = q
            .having
            .as_ref()
            .map(|h| self.compile_expr(h, &block))
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
            columns: columns.into(),
        })
    }
}

/// The scope chain of an expression evaluated over rows of `layout` under
/// the enclosing scopes `outer`.
fn under<'l>(layout: &'l Layout, outer: &[&'l Layout]) -> Vec<&'l Layout> {
    std::iter::once(layout)
        .chain(outer.iter().copied())
        .collect()
}

/// Picks an index access path from the compiled pushdowns: a
/// `col = literal` / `col = $slot` equality (either operand order) whose
/// column carries a declared index. Among candidates, an equality on a
/// single-column `PRIMARY KEY` wins (a key lookup fetches at most one
/// row); otherwise the first candidate in pushdown order is kept. Table
/// column names are unique, so the column resolves uniquely within the
/// item; richer key expressions are skipped because the key must evaluate
/// without a row in scope.
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
            let PExpr::Column(PColumn { name, .. }) = col.as_ref() else {
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

/// The equi-join key values of a row (or of a binding), normalized by
/// `key_of`. One key column, the common case, needs no vector.
#[derive(Debug, PartialEq, Eq, Hash)]
enum BatchKey {
    One(Key),
    Many(Vec<Key>),
}

impl BatchKey {
    /// The key of `values`, read in order, or `None` at the first NULL
    /// (NULL never equi-joins), leaving the values after it unread. The
    /// first error reading a value is returned.
    fn try_of<V: Borrow<Value>, E>(
        mut values: impl ExactSizeIterator<Item = std::result::Result<V, E>>,
    ) -> std::result::Result<Option<BatchKey>, E> {
        let key = |v: V| (!v.borrow().is_null()).then(|| key_of(v.borrow()));
        if values.len() == 1 {
            return Ok(values.next().transpose()?.and_then(key).map(BatchKey::One));
        }
        let mut keys = Vec::with_capacity(values.len());
        for v in values {
            let Some(k) = key(v?) else {
                return Ok(None);
            };
            keys.push(k);
        }
        Ok(Some(BatchKey::Many(keys)))
    }

    /// [`BatchKey::try_of`] over values at hand.
    fn of<'v>(values: impl ExactSizeIterator<Item = &'v Value>) -> Option<BatchKey> {
        let Ok(key) = Self::try_of(values.map(Ok::<_, Infallible>));
        key
    }
}

/// Row numbers grouped by equi-join key: the one hash index both the
/// shared batch pipeline and `p_join` build. `by_key` holds the numbers of
/// the rows that have a key, grouped by key and in row order within a key,
/// and `ranges` maps each key to its `(start, len)` range of `by_key`. A
/// row with a NULL key value is left out, since NULL never equi-joins.
#[derive(Debug)]
struct KeyIndex {
    by_key: Vec<usize>,
    ranges: HashMap<BatchKey, (usize, usize)>,
}

impl KeyIndex {
    /// Indexes rows `0..n` by `key(row)` (`None` leaves the row out): a
    /// counting pass sizes each key's range of one row-number vector, and
    /// a second pass fills it in row order. The first error `key` returns
    /// ends the build.
    fn build<E>(
        n: usize,
        mut key: impl FnMut(usize) -> std::result::Result<Option<BatchKey>, E>,
    ) -> std::result::Result<KeyIndex, E> {
        // Pass 1: each row's key group (`None` for no key) and the group
        // sizes; `ranges` maps a key to its group number for now.
        let mut ranges: HashMap<BatchKey, (usize, usize)> = HashMap::new();
        let mut counts: Vec<usize> = Vec::new();
        let mut groups: Vec<Option<usize>> = Vec::with_capacity(n);
        for row in 0..n {
            groups.push(key(row)?.map(|key| {
                let group = ranges.entry(key).or_insert((counts.len(), 0)).0;
                if group == counts.len() {
                    counts.push(0);
                }
                counts[group] += 1;
                group
            }));
        }
        // Pass 2: each group's start, then the row numbers in row order.
        let mut next = Vec::with_capacity(counts.len());
        let mut total = 0;
        for c in &counts {
            next.push(total);
            total += c;
        }
        for range in ranges.values_mut() {
            *range = (next[range.0], counts[range.0]);
        }
        let mut by_key = vec![0; total];
        for (row, group) in groups.iter().enumerate() {
            if let &Some(g) = group {
                by_key[next[g]] = row;
                next[g] += 1;
            }
        }
        Ok(KeyIndex { by_key, ranges })
    }

    /// The rows whose key is `key`, in row order.
    fn get(&self, key: &BatchKey) -> &[usize] {
        self.ranges
            .get(key)
            .map_or(&[], |&(start, len)| &self.by_key[start..start + len])
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
            if let Some(k) = slot_equality(c, offset) {
                keys.push(k);
                take.push((fi, true, ci));
            }
        }
        for (ci, c) in item.prefix_filters.iter().enumerate() {
            if let Some(k) = slot_equality(c, 0) {
                keys.push(k);
                take.push((fi, false, ci));
            }
        }
    }
    // Sound only if those equalities are the plan's ONLY slot references
    // (each carries exactly one): a slot surviving anywhere else —
    // residuals, nested blocks, projections — still needs per-binding
    // evaluation.
    let mut slot_refs = 0;
    root.visit_blocks(&mut |block| {
        for e in block.exprs() {
            e.walk(&mut |node| slot_refs += usize::from(matches!(node, PExpr::Slot(_))));
        }
    });
    if keys.is_empty() || slot_refs != keys.len() {
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
        if matches!(&item.access, Access::IndexEq { key, .. } if matches!(**key, PExpr::Slot(_))) {
            item.access = Access::FullScan;
        }
    }
    Some(BatchPlan { stripped, keys })
}

fn slot_equality(c: &PExpr, offset: usize) -> Option<BatchKeySpec> {
    let PExpr::Binary {
        op: BinOp::Eq,
        lhs,
        rhs,
    } = c
    else {
        return None;
    };
    match (lhs.as_ref(), rhs.as_ref()) {
        (PExpr::Slot(s), other) => row_side(other, offset).map(|row| BatchKeySpec {
            row,
            slot: *s,
            slot_first: true,
        }),
        (other, PExpr::Slot(s)) => row_side(other, offset).map(|row| BatchKeySpec {
            row,
            slot: *s,
            slot_first: false,
        }),
        _ => None,
    }
}

/// The non-slot side of a candidate equality: a literal, or a column the
/// conjunct's own scope row holds, at `offset` plus its bound index in the
/// root block's joined layout. A reference bound to no single column
/// (ambiguous, which the scalar path reports at runtime) disables batching
/// so the scalar path stays the one reporting it.
fn row_side(e: &PExpr, offset: usize) -> Option<BatchSide> {
    match e {
        PExpr::Literal(v) => Some(BatchSide::Lit(v.clone())),
        PExpr::Column(PColumn {
            at: Some((0, index)),
            ..
        }) => Some(BatchSide::Col(offset + index)),
        _ => None,
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
            .find_map(|c| match slot_equality(c, 0)? {
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
    let mut n = 0;
    b.visit_blocks(&mut |block| {
        n += block
            .from
            .iter()
            .filter(|item| matches!(&item.source, PlanSource::Scan(t) if t == table))
            .count();
    });
    n
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

    /// Whether the plan reads base table `table` anywhere: a FROM item, a
    /// derived table, or an `EXISTS` subquery in any clause. A change to a
    /// table no plan of a view node reads cannot change what that node
    /// publishes.
    pub fn reads(&self, table: &str) -> bool {
        count_table_scans(&self.root, table) > 0
    }

    /// Executes the plan, producing the same [`Relation`] as `eval_query`
    /// on the source query.
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
        exec_block(&ExecCtx::new(db, env, self, stats), &self.root, None)
    }

    /// One execution under `env`, its output rows appended to `out`
    /// ([`finish_block`]); returns how many rows it appended.
    fn run_into(
        &self,
        db: &Database,
        env: &dyn Bindings,
        stats: &Cell<EvalStats>,
        out: &mut Vec<Value>,
    ) -> Result<usize> {
        let ctx = ExecCtx::new(db, env, self, stats);
        let rows = exec_source_rows(&ctx, &self.root, None)?;
        finish_block(&ctx, &self.root, rows.iter(), None, out)
    }

    /// The storage positions of the rows of base table `t` that a plan of
    /// `SELECT * FROM t WHERE pred` returns, in the order
    /// [`PreparedPlan::execute`] returns them — `DELETE`'s matched rows.
    /// They are the rows `execute` projects: the one FROM and WHERE
    /// evaluation (`exec_source_rows`) that serves every execution, so the
    /// order, the reuse of an uncorrelated `EXISTS` result and the first
    /// error are `execute`'s.
    ///
    /// # Panics
    ///
    /// If the plan's FROM list is not one base table.
    pub(crate) fn matched_positions(&self, db: &Database) -> Result<Vec<usize>> {
        let (env, stats) = (ParamEnv::new(), Cell::new(EvalStats::default()));
        let ctx = ExecCtx::new(db, &env, self, &stats);
        match exec_source_rows(&ctx, &self.root, None)? {
            Rows::Stored { positions, .. } => Ok(positions),
            Rows::Owned(_) => panic!("matched_positions needs a plan over one base table"),
        }
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
    /// [`batchable`](PreparedPlan::batchable) and the batch holds two or
    /// more distinct resolved bindings, the already-fused scan pipeline
    /// runs **once** with the slot equalities removed and its rows are
    /// hash-joined against the binding relation on the interned slot
    /// columns (with an exact `=` recheck after the hash match, so
    /// NULL/NaN semantics match the scalar filters). Otherwise the plan
    /// executes once per *distinct* binding: for a single binding, one
    /// execution with the slot pushdowns (and any index path) intact reads
    /// no more rows than the stripped pipeline and builds no hash table.
    /// Either way a duplicate binding shares its first occurrence's rows,
    /// which the result stores once.
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
    /// which batch came first. A batch handed a slot takes the shared
    /// pipeline even when it holds a single binding, because the one scan
    /// serves every batch that shares the slot. Index-nested-loop plans
    /// ignore the slot: they probe the index per binding either way.
    pub fn execute_batch_shared<'db, B: Bindings>(
        &self,
        db: &'db Database,
        envs: &[B],
        scan: Option<&SharedScan<'db>>,
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
        let distinct = order.iter().filter(|g| g.values.is_some()).count();
        // An unshared batch of at most one distinct binding skips the
        // pipeline: scanning the whole table to serve it does at least the
        // work of one execution with the slot pushdowns (and any index
        // path) intact, plus a hash build.
        let min_distinct = if scan.is_some() { 1 } else { 2 };
        let fast = match &self.batch {
            // Index-nested-loop plans skip the shared pipeline: scalar
            // executions below each probe the index per distinct binding.
            Some(bp) if !self.index_loop && distinct >= min_distinct => {
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
                        s.hash_join_probe_rows += distinct as u64;
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
        // the first failing group the scalar loop's first failing env),
        // every group's rows appended to one buffer. The stripped plan
        // binds no slot, so one context serves every group's projection.
        let empty = ParamEnv::new();
        let probe_ctx = ExecCtx::new(db, &empty, self, &cell);
        let mut out = Vec::new();
        let mut groups = Vec::with_capacity(order.len());
        let mut matched: Vec<usize> = Vec::new();
        let mut at = 0;
        for group in &order {
            let n = match (fast, group.values) {
                (Some((bp, rows, index)), Some(values)) => {
                    matched.clear();
                    let hits = BatchKey::of(bp.keys.iter().map(|k| values[k.slot]))
                        .map_or(&[][..], |key| index.get(&key));
                    'cand: for &ri in hits {
                        let row = rows.row(ri);
                        for k in &bp.keys {
                            let (rv, sv) = (k.row.value(row), values[k.slot]);
                            let (l, r) = if k.slot_first { (sv, rv) } else { (rv, sv) };
                            if compare(BinOp::Eq, l, r) != Some(true) {
                                continue 'cand;
                            }
                        }
                        matched.push(ri);
                    }
                    let matched = matched.iter().map(|&ri| rows.row(ri));
                    let n = finish_block(&probe_ctx, &bp.stripped, matched, None, &mut out)?;
                    let mut s = cell.get();
                    s.param_queries += 1; // slots resolved ⇒ env non-empty
                    cell.set(s);
                    n
                }
                _ => {
                    let env = &envs[group.first];
                    let attempt = Cell::new(EvalStats::default());
                    let n = self.run_into(db, env, &attempt, &mut out)?;
                    let mut s = attempt.get();
                    if !env.is_empty() {
                        s.param_queries += 1;
                    }
                    let mut c = cell.get();
                    c.absorb(&s);
                    cell.set(c);
                    n
                }
            };
            groups.push((at, n));
            at += n;
        }

        stats.absorb(&cell.get());
        Ok(BatchResult {
            columns: Arc::clone(&self.root.columns),
            values: out,
            groups,
            group_of,
        })
    }

    /// Runs `bp`'s stripped pipeline once, binding-free, and indexes its
    /// rows by the deferred key columns ([`KeyIndex`]). On success the run
    /// and the hash build are counted into `stats`; a failed run counts
    /// nothing.
    fn build_pipeline<'db>(
        &self,
        db: &'db Database,
        bp: &BatchPlan,
        stats: &Cell<EvalStats>,
    ) -> Pipeline<'db> {
        let attempt = Cell::new(EvalStats::default());
        let empty = ParamEnv::new();
        let ctx = ExecCtx::new(db, &empty, self, &attempt);
        let Ok(rows) = exec_source_rows(&ctx, &bp.stripped, None) else {
            return Pipeline::Failed;
        };
        let Ok(index) = KeyIndex::build(rows.len(), |ri| {
            let row = rows.row(ri);
            Ok::<_, Infallible>(BatchKey::of(bp.keys.iter().map(|k| k.row.value(row))))
        });
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
        describe_block(&self.root, &self.slots, 1, &mut out);
        match &self.batch {
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
                            BatchSide::Lit(v) => v.to_string(),
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
/// one group of rows, stored once; every group's rows live in one buffer
/// the batch owns.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResult {
    columns: Arc<[String]>,
    /// Every group's rows, `columns.len()` values per row, group after
    /// group.
    values: Vec<Value>,
    /// `(first row, rows)` of each distinct binding's group in `values`,
    /// in the scalar path's row order, the bindings in first-occurrence
    /// order.
    groups: Vec<(usize, usize)>,
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
    pub fn rows_for(&self, binding: usize) -> BatchRows<'_> {
        BatchRows {
            batch: self,
            rows: self.row_range(binding),
        }
    }

    /// The numbers of the rows binding `binding` produced, in scalar row
    /// order: [`BatchResult::row`] reads each.
    pub fn row_range(&self, binding: usize) -> Range<usize> {
        let (start, len) = self.groups[self.group_of[binding]];
        start..start + len
    }

    /// Row number `row` of the batch's buffer (see
    /// [`BatchResult::row_range`]).
    pub fn row(&self, row: usize) -> &[Value] {
        let width = self.columns.len();
        &self.values[row * width..(row + 1) * width]
    }

    /// Total rows across all bindings (a duplicate binding counts its
    /// shared rows again).
    pub fn total_rows(&self) -> usize {
        self.group_of.iter().map(|&g| self.groups[g].1).sum()
    }

    /// All rows as `(binding index, row)` pairs, grouped by binding.
    pub fn tagged_rows(&self) -> impl Iterator<Item = (usize, &[Value])> + '_ {
        (0..self.bindings()).flat_map(move |i| self.rows_for(i).iter().map(move |r| (i, r)))
    }

    /// One binding's rows as a standalone [`Relation`] (clones).
    pub fn relation_for(&self, binding: usize) -> Relation {
        Relation {
            columns: self.columns.to_vec(),
            rows: self
                .rows_for(binding)
                .iter()
                .map(<[Value]>::to_vec)
                .collect(),
        }
    }

    /// Consumes the batch into one [`Relation`] per binding.
    pub fn into_relations(self) -> Vec<Relation> {
        (0..self.bindings()).map(|i| self.relation_for(i)).collect()
    }
}

/// One binding's rows in a [`BatchResult`], borrowed from its buffer
/// ([`BatchResult::rows_for`]). It compares equal to the same rows as a
/// slice of vectors, such as a [`Relation`]'s.
#[derive(Clone)]
pub struct BatchRows<'a> {
    batch: &'a BatchResult,
    rows: Range<usize>,
}

impl<'a> BatchRows<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the binding produced no row.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows, in scalar row order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a [Value]> + 'a {
        let batch = self.batch;
        self.rows.clone().map(move |r| batch.row(r))
    }
}

impl fmt::Debug for BatchRows<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq<&[Vec<Value>]> for BatchRows<'_> {
    fn eq(&self, other: &&[Vec<Value>]) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == &b[..])
    }
}

/// `e` back as the SQL expression it was compiled from: each slot is its
/// `$var.column` again, and an `EXISTS` block an empty subquery, which
/// the plan description prints as `EXISTS (...)`.
fn sql_of(e: &PExpr, slots: &[(String, String)]) -> ScalarExpr {
    let sql = |e: &PExpr| Box::new(sql_of(e, slots));
    match e {
        PExpr::Column(PColumn {
            qualifier, name, ..
        }) => ScalarExpr::Column {
            qualifier: qualifier.clone(),
            name: name.clone(),
        },
        PExpr::Slot(i) => {
            let (var, column) = &slots[*i];
            ScalarExpr::param(var, column)
        }
        PExpr::Literal(v) => ScalarExpr::Literal(v.clone()),
        PExpr::Binary { op, lhs, rhs } => ScalarExpr::Binary {
            op: *op,
            lhs: sql(lhs),
            rhs: sql(rhs),
        },
        PExpr::Not(i) => ScalarExpr::Not(sql(i)),
        PExpr::IsNull(i) => ScalarExpr::IsNull(sql(i)),
        PExpr::Exists(_) => ScalarExpr::Exists(Box::new(SelectQuery::new(Vec::new(), Vec::new()))),
        PExpr::Aggregate { func, arg } => ScalarExpr::Aggregate {
            func: *func,
            arg: arg.as_deref().map(sql),
        },
    }
}

/// Renders one compiled block, two spaces of indent per `depth`. A
/// residual's `EXISTS` subplans follow its line, under the rule
/// `p_residual` runs them by: the first row evaluates the residual, and
/// later rows reuse that result when the evaluation read no column of the
/// row.
fn describe_block(block: &PlanBlock, slots: &[(String, String)], depth: usize, out: &mut String) {
    use std::fmt::Write;
    let pad = "  ".repeat(depth);
    let expr = |e: &PExpr| describe_expr(&sql_of(e, slots));
    let condition = |conjuncts: &[PExpr]| {
        let sql: Vec<ScalarExpr> = conjuncts.iter().map(|e| sql_of(e, slots)).collect();
        describe_condition(&sql)
    };
    for (i, item) in block.from.iter().enumerate() {
        let source = match (&item.source, &item.access) {
            (PlanSource::Scan(t), Access::FullScan) => format!("scan {t}"),
            (PlanSource::Scan(t), Access::IndexEq { column, key }) => {
                // The item layout mirrors the schema's column order, so
                // the schema position doubles as a layout position.
                format!(
                    "index lookup {t} on {} = {}",
                    item.layout[*column].1,
                    expr(key)
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
                .map(|(l, r)| describe_expr(&ScalarExpr::eq(sql_of(l, slots), sql_of(r, slots))))
                .collect();
            format!(" | hash join on ({})", ks.join(", "))
        };
        let preserved = if item.preserved {
            " | preserved (left-outer)"
        } else {
            ""
        };
        let _ = writeln!(out, "{pad}from[{i}]: {source}{join}{preserved}");
        if !item.pushdown.is_empty() {
            let _ = writeln!(out, "{pad}  fused pushdown: {}", condition(&item.pushdown));
        }
        if !item.prefix_filters.is_empty() {
            let _ = writeln!(
                out,
                "{pad}  prefix filter: {}",
                condition(&item.prefix_filters)
            );
        }
        if let PlanSource::Derived(child) = &item.source {
            describe_block(child, slots, depth + 1, out);
        }
    }
    if !block.residuals.is_empty() {
        let _ = writeln!(out, "{pad}residual: {}", condition(&block.residuals));
        let mut subplans = Vec::new();
        for r in &block.residuals {
            r.walk(&mut |node| {
                if let PExpr::Exists(sub) = node {
                    subplans.push(sub);
                }
            });
        }
        for sub in subplans {
            let _ = writeln!(
                out,
                "{pad}  exists subplan — runs for the first row; later rows reuse \
                 its result unless that run read a column of the row:"
            );
            describe_block(sub, slots, depth + 2, out);
        }
    }
    let mut proj = format!("{pad}project: {}", block.columns.join(", "));
    if block.aggregating {
        let keys: Vec<String> = block.group_by.iter().map(expr).collect();
        proj.push_str(&format!(" | group by {}", keys.len()));
        if keys.is_empty() {
            proj.push_str(" (one implicit group)");
        } else {
            proj.push_str(&format!(" ({})", keys.join(", ")));
        }
    }
    if let Some(h) = &block.having {
        proj.push_str(&format!(" | having {}", expr(h)));
    }
    if block.distinct {
        proj.push_str(" | distinct");
    }
    let _ = writeln!(out, "{proj}");
}

/// One execution's context: the database `'db` whose stored rows its
/// scans hand over, and the bindings, slot memo and counters of this
/// execution.
struct ExecCtx<'db, 'a> {
    db: &'db Database,
    env: &'a dyn Bindings,
    slots: &'a [(String, String)],
    /// Per-execution slot memo, holding each value by reference into the
    /// environment. Lazy, so a parameter the evaluation never reaches
    /// (short-circuits, empty inputs) is never resolved — matching the
    /// interpreter's unbound-parameter error behaviour.
    cache: Vec<OnceCell<Result<&'a Value>>>,
    stats: &'a Cell<EvalStats>,
}

impl<'db, 'a> ExecCtx<'db, 'a> {
    fn new(
        db: &'db Database,
        env: &'a dyn Bindings,
        plan: &'a PreparedPlan,
        stats: &'a Cell<EvalStats>,
    ) -> Self {
        ExecCtx {
            db,
            env,
            slots: &plan.slots,
            cache: plan.slots.iter().map(|_| OnceCell::new()).collect(),
            stats,
        }
    }

    fn bump(&self, f: impl FnOnce(&mut EvalStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    fn slot(&self, i: usize) -> Result<&'a Value> {
        let env = self.env;
        self.cache[i]
            .get_or_init(|| {
                let (var, column) = &self.slots[i];
                env.value(var, column)
            })
            .clone()
    }
}

/// `e`'s value by reference when reading it takes no evaluation: a
/// literal, a resolved slot, or a column bound to a row in scope.
fn p_stored<'r>(ctx: &'r ExecCtx<'_, '_>, e: &'r PExpr, scope: &'r Scope<'r>) -> Option<&'r Value> {
    match e {
        PExpr::Literal(v) => Some(v),
        PExpr::Slot(i) => ctx.slot(*i).ok(),
        PExpr::Column(c) => c.get(scope),
        _ => None,
    }
}

/// `e`'s value, borrowed where [`p_stored`] reads it — so nothing is
/// cloned — and computed otherwise.
fn p_operand<'r>(
    ctx: &'r ExecCtx<'_, '_>,
    e: &'r PExpr,
    scope: &'r Scope<'r>,
) -> Result<Cow<'r, Value>> {
    if let Some(v) = p_stored(ctx, e, scope) {
        return Ok(Cow::Borrowed(v));
    }
    match e {
        PExpr::Slot(i) => ctx.slot(*i).map(Cow::Borrowed),
        // The executor's only name walk: a reference bound to no single
        // column raises the walk's `AmbiguousColumn`/`UnknownColumn`.
        PExpr::Column(c) => scope
            .resolve(c.qualifier.as_deref(), &c.name)
            .map(Cow::Owned),
        _ => p_eval_scalar(ctx, e, scope).map(Cow::Owned),
    }
}

fn p_eval_scalar(ctx: &ExecCtx<'_, '_>, e: &PExpr, scope: &Scope<'_>) -> Result<Value> {
    match e {
        PExpr::Column(_) | PExpr::Slot(_) | PExpr::Literal(_) => {
            p_operand(ctx, e, scope).map(Cow::into_owned)
        }
        PExpr::Binary {
            op: op @ (BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div),
            lhs,
            rhs,
        } => eval_binop(
            *op,
            &*p_operand(ctx, lhs, scope)?,
            &*p_operand(ctx, rhs, scope)?,
        ),
        PExpr::Binary { .. } | PExpr::Not(_) | PExpr::IsNull(_) => {
            Ok(p_truth(ctx, e, scope)?.map_or(Value::Null, Value::Bool))
        }
        PExpr::Exists(block) => {
            ctx.bump(|s| s.exists_evals += 1);
            let rows = exec_source_rows(ctx, block, Some(scope))?;
            let n = finish_block(ctx, block, rows.iter(), Some(scope), &mut Vec::new())?;
            Ok(Value::Bool(n > 0))
        }
        PExpr::Aggregate { .. } => Err(Error::MisplacedAggregate),
    }
}

/// The truth of `p_eval_scalar(e)` without building that value: `None` for
/// NULL (SQL unknown), else its `is_truthy()`. Comparisons read their
/// operands by reference; `AND` and `OR` short-circuit on truthiness and
/// are never NULL; `NOT` keeps NULL; `IS NULL` inspects its operand in
/// place. Any other form is computed by [`p_eval_scalar`].
fn p_truth(ctx: &ExecCtx<'_, '_>, e: &PExpr, scope: &Scope<'_>) -> Result<Option<bool>> {
    Ok(match e {
        PExpr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => Some(p_test(ctx, lhs, scope)? && p_test(ctx, rhs, scope)?),
        PExpr::Binary {
            op: BinOp::Or,
            lhs,
            rhs,
        } => Some(p_test(ctx, lhs, scope)? || p_test(ctx, rhs, scope)?),
        PExpr::Binary { op, lhs, rhs } if op.is_comparison() => {
            match (p_stored(ctx, lhs, scope), p_stored(ctx, rhs, scope)) {
                (Some(l), Some(r)) => compare(*op, l, r),
                _ => {
                    let l = p_operand(ctx, lhs, scope)?;
                    compare(*op, &l, &*p_operand(ctx, rhs, scope)?)
                }
            }
        }
        PExpr::Not(inner) => p_truth(ctx, inner, scope)?.map(|b| !b),
        PExpr::IsNull(inner) => Some(p_operand(ctx, inner, scope)?.is_null()),
        _ => {
            let v = p_operand(ctx, e, scope)?;
            (!v.is_null()).then(|| v.is_truthy())
        }
    })
}

/// Whether `e` holds, as a filter reads it: `p_eval_scalar(e).is_truthy()`,
/// with NULL filtering out. Every filter of the executor asks this.
fn p_test(ctx: &ExecCtx<'_, '_>, e: &PExpr, scope: &Scope<'_>) -> Result<bool> {
    Ok(p_truth(ctx, e, scope)? == Some(true))
}

/// A comparison of two borrowed values, as `eval_binop` decides it: `None`
/// (unknown) when either side is NULL or the pair is incomparable. It
/// reads `sql_cmp` directly: going through `eval_binop` and its `Value`
/// result made the filter scan of a 5,000-row table ~20% slower.
fn compare(op: BinOp, l: &Value, r: &Value) -> Option<bool> {
    let ord = l.sql_cmp(r)?;
    Some(match op {
        BinOp::Eq => ord.is_eq(),
        BinOp::Ne => ord.is_ne(),
        BinOp::Lt => ord.is_lt(),
        BinOp::Le => ord.is_le(),
        BinOp::Gt => ord.is_gt(),
        BinOp::Ge => ord.is_ge(),
        _ => unreachable!("{op:?} is not a comparison"),
    })
}

/// Mirrors `eval::eval_agg_expr`: aggregates accumulate over the group,
/// boolean connectives do *not* short-circuit, other subexpressions
/// evaluate on the group's first row (an all-NULL row of the block's
/// layout for an empty group).
fn p_agg_expr(
    ctx: &ExecCtx<'_, '_>,
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
            acc.finish()
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
        other => {
            let nulls;
            let row = match group.first() {
                Some(row) => *row,
                None => {
                    nulls = vec![Value::Null; layout.len()];
                    &nulls
                }
            };
            let scope = Scope {
                layout,
                row,
                parent,
                probe: None,
            };
            p_eval_scalar(ctx, other, &scope)
        }
    }
}

fn exec_block(
    ctx: &ExecCtx<'_, '_>,
    block: &PlanBlock,
    parent: Option<&Scope<'_>>,
) -> Result<Relation> {
    let rows = exec_source_rows(ctx, block, parent)?;
    let mut values = Vec::new();
    let n = finish_block(ctx, block, rows.iter(), parent, &mut values)?;
    let width = block.columns.len();
    let mut values = values.into_iter();
    Ok(Relation {
        columns: block.columns.to_vec(),
        rows: (0..n)
            .map(|_| values.by_ref().take(width).collect())
            .collect(),
    })
}

/// The rows a block's FROM list and WHERE clause keep, before projection.
/// A FROM list of one base table keeps the storage positions its scan and
/// residuals pass, and every consumer reads the stored rows through them;
/// a join, a derived table and an empty FROM list build owned rows.
/// [`Rows::row`] reads either.
#[derive(Debug)]
enum Rows<'db> {
    /// The kept rows of one base table, by position in its storage.
    Stored {
        table: &'db [Vec<Value>],
        positions: Vec<usize>,
    },
    /// Rows a join, a derived table or an empty FROM list built.
    Owned(Vec<Vec<Value>>),
}

impl Rows<'_> {
    fn len(&self) -> usize {
        match self {
            Rows::Stored { positions, .. } => positions.len(),
            Rows::Owned(rows) => rows.len(),
        }
    }

    /// The `i`th kept row.
    fn row(&self, i: usize) -> &[Value] {
        match self {
            Rows::Stored { table, positions } => &table[positions[i]],
            Rows::Owned(rows) => &rows[i],
        }
    }

    fn iter(&self) -> impl ExactSizeIterator<Item = &[Value]> + '_ {
        (0..self.len()).map(|i| self.row(i))
    }

    /// Keeps the rows whose flag in `keep` (one per row) is set.
    fn retain_flagged(&mut self, keep: &[bool]) {
        match self {
            Rows::Stored { positions, .. } => retain_flagged(positions, keep),
            Rows::Owned(rows) => retain_flagged(rows, keep),
        }
    }
}

/// FROM + WHERE: scans (with fused pushdown), joins, prefix filters,
/// residuals and preserved-side padding — everything up to (but excluding)
/// projection. The batch executor runs this once and projects per binding.
fn exec_source_rows<'db>(
    ctx: &ExecCtx<'db, '_>,
    block: &PlanBlock,
    parent: Option<&Scope<'_>>,
) -> Result<Rows<'db>> {
    ctx.bump(|s| s.queries += 1);

    let mut work: Option<Rows<'db>> = None;
    // Preserved-side baselines: (offset, width, rows after pushdown).
    let mut baselines: Vec<(usize, usize, Vec<Vec<Value>>)> = Vec::new();

    for item in &block.from {
        let rows = match &item.source {
            PlanSource::Scan(name) => {
                let table = ctx.db.table(name)?;
                Rows::Stored {
                    table: table.rows(),
                    positions: scan_positions(ctx, table, item, parent)?,
                }
            }
            PlanSource::Derived(child) => {
                let mut rows = Rows::Owned(exec_block(ctx, child, parent)?.rows);
                for p in &item.pushdown {
                    p_filter_rows(ctx, &mut rows, &item.layout, p, parent)?;
                }
                rows
            }
        };

        if item.preserved {
            let baseline = rows.iter().map(<[Value]>::to_vec).collect();
            baselines.push((item.prev_layout.len(), item.layout.len(), baseline));
        }

        let mut joined = match work.take() {
            None => rows,
            Some(prev) => Rows::Owned(p_join(ctx, &prev, &rows, item, parent)?),
        };
        for p in &item.prefix_filters {
            p_filter_rows(ctx, &mut joined, &item.joined_layout, p, parent)?;
        }
        work = Some(joined);
    }

    // An empty FROM list yields one empty row (the rebind-guard probe
    // shape), exactly like the interpreter.
    let mut rows = work.unwrap_or_else(|| Rows::Owned(vec![Vec::new()]));

    for pred in &block.residuals {
        let keep = p_residual(ctx, rows.iter(), &block.layout, pred, parent)?;
        rows.retain_flagged(&keep);
    }

    // Left-outer padding for preserved derived tables.
    if !baselines.is_empty() {
        let Rows::Owned(rows) = &mut rows else {
            unreachable!("a preserved item is a derived table, so the block's rows are owned");
        };
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
    }
    Ok(rows)
}

/// The one base-table scan: the storage positions of the rows of `table`
/// that pass `item`'s fused pushdown, read through its access path, in the
/// order the scan visits them.
fn scan_positions(
    ctx: &ExecCtx<'_, '_>,
    table: &Table,
    item: &PlanFrom,
    parent: Option<&Scope<'_>>,
) -> Result<Vec<usize>> {
    let stored = table.rows();
    let passes = |row: &[Value]| -> Result<bool> {
        let scope = Scope {
            layout: &item.layout,
            row,
            parent,
            probe: None,
        };
        for p in &item.pushdown {
            if !p_test(ctx, p, &scope)? {
                return Ok(false);
            }
        }
        Ok(true)
    };
    let mut out = Vec::new();
    // Index access path: fetch candidates by key, recheck through the
    // (still-present) pushdown equality. Falls back to the scan when the
    // runtime table lacks the index the catalog promised (e.g. a stale
    // plan).
    if let Access::IndexEq { column, key } = &item.access {
        if let Some(idx) = table.index_for(*column) {
            ctx.bump(|s| s.index_lookups += 1);
            if table.is_empty() {
                return Ok(out);
            }
            // The key is a literal or slot — it needs no row in scope.
            let empty_layout = Layout::new();
            let scope = Scope {
                layout: &empty_layout,
                row: &[],
                parent,
                probe: None,
            };
            let rids = idx.lookup(&*p_operand(ctx, key, &scope)?);
            ctx.bump(|s| s.rows_scanned += rids.len() as u64);
            for &rid in rids {
                if passes(&stored[rid])? {
                    out.push(rid);
                }
            }
            return Ok(out);
        }
    }
    ctx.bump(|s| s.rows_scanned += table.len() as u64);
    for (rid, row) in stored.iter().enumerate() {
        if passes(row)? {
            out.push(rid);
        }
    }
    Ok(out)
}

/// Projection (plain or grouped), HAVING and DISTINCT over the joined and
/// filtered source rows: appends the block's output rows to `out`,
/// `block.columns.len()` values each, and returns how many rows it
/// appended. Projection is where a stored value is copied, once.
fn finish_block<'r>(
    ctx: &ExecCtx<'_, '_>,
    block: &PlanBlock,
    rows: impl ExactSizeIterator<Item = &'r [Value]>,
    parent: Option<&Scope<'_>>,
    out: &mut Vec<Value>,
) -> Result<usize> {
    let start = out.len();
    let n = if block.aggregating {
        p_project_grouped(ctx, block, rows, parent, out)?
    } else {
        p_project_plain(ctx, block, rows, parent, out)?
    };
    if !block.distinct {
        return Ok(n);
    }
    // Keep each row's first occurrence, moved up over the dropped ones.
    let width = block.columns.len();
    let mut seen = HashSet::new();
    let mut kept = 0;
    for i in 0..n {
        let row = start + i * width..start + (i + 1) * width;
        if seen.insert(out[row.clone()].iter().map(key_of).collect::<Vec<Key>>()) {
            if kept < i {
                for j in 0..width {
                    out.swap(start + kept * width + j, row.start + j);
                }
            }
            kept += 1;
        }
    }
    out.truncate(start + kept * width);
    Ok(kept)
}

/// Keeps the rows that pass `pred`.
fn p_filter_rows(
    ctx: &ExecCtx<'_, '_>,
    rows: &mut Rows<'_>,
    layout: &Layout,
    pred: &PExpr,
    parent: Option<&Scope<'_>>,
) -> Result<()> {
    let mut keep = Vec::with_capacity(rows.len());
    for row in rows.iter() {
        let scope = Scope {
            layout,
            row,
            parent,
            probe: None,
        };
        keep.push(p_test(ctx, pred, &scope)?);
    }
    rows.retain_flagged(&keep);
    Ok(())
}

/// Mirrors `eval::apply_residual_filter`, answering per row whether it
/// passes: a probe cell detects whether the first row's evaluation ever
/// read the row scope; if not, the predicate is row-independent and its
/// result is reused (counted as cache hits).
fn p_residual<'r>(
    ctx: &ExecCtx<'_, '_>,
    rows: impl Iterator<Item = &'r [Value]>,
    layout: &Layout,
    pred: &PExpr,
    parent: Option<&Scope<'_>>,
) -> Result<Vec<bool>> {
    let mut keep = Vec::new();
    let mut cached: Option<bool> = None;
    let probe = Cell::new(false);
    for (i, row) in rows.enumerate() {
        keep.push(match cached {
            Some(b) => {
                ctx.bump(|s| s.exists_cache_hits += 1);
                b
            }
            None => {
                let scope = Scope {
                    layout,
                    row,
                    parent,
                    probe: Some(&probe),
                };
                let b = p_test(ctx, pred, &scope)?;
                if i == 0 && !probe.get() {
                    cached = Some(b);
                }
                b
            }
        });
    }
    Ok(keep)
}

/// Keeps the items whose flag in `keep` (one per item) is set.
fn retain_flagged<T>(items: &mut Vec<T>, keep: &[bool]) {
    let mut flags = keep.iter();
    items.retain(|_| flags.next() == Some(&true));
}

/// The joined prefix `prev` joined with `item`'s rows `next`: each output
/// row is a copy of one row of each side.
fn p_join(
    ctx: &ExecCtx<'_, '_>,
    prev: &Rows<'_>,
    next: &Rows<'_>,
    item: &PlanFrom,
    parent: Option<&Scope<'_>>,
) -> Result<Vec<Vec<Value>>> {
    let concat = |a: &[Value], b: &[Value]| {
        let mut row = Vec::with_capacity(a.len() + b.len());
        row.extend_from_slice(a);
        row.extend_from_slice(b);
        row
    };
    if item.join_keys.is_empty() {
        // Cross product.
        let mut rows = Vec::with_capacity(prev.len() * next.len());
        for a in prev.iter() {
            for b in next.iter() {
                rows.push(concat(a, b));
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
        s.hash_join_build_rows += next.len() as u64;
        s.hash_join_probe_rows += prev.len() as u64;
    });

    // Build on the next side, then probe with the prev side; `=` confirms
    // each hashed match, since equal keys may be unequal values.
    let scope_of = |layout, row| Scope {
        layout,
        row,
        parent,
        probe: None,
    };
    let index = KeyIndex::build(next.len(), |i| {
        let scope = scope_of(&item.layout, next.row(i));
        let values = item
            .join_keys
            .iter()
            .map(|(_, e)| p_operand(ctx, e, &scope));
        BatchKey::try_of(values)
    })?;
    let mut rows = Vec::new();
    for a in prev.iter() {
        let scope = scope_of(&item.prev_layout, a);
        let values = item
            .join_keys
            .iter()
            .map(|(e, _)| p_operand(ctx, e, &scope));
        let Some(key) = BatchKey::try_of(values)? else {
            continue;
        };
        'cand: for &i in index.get(&key) {
            let b = next.row(i);
            let next_scope = scope_of(&item.layout, b);
            for (pexpr, nexpr) in &item.join_keys {
                let l = p_operand(ctx, pexpr, &scope)?;
                let r = p_operand(ctx, nexpr, &next_scope)?;
                if compare(BinOp::Eq, &l, &r) != Some(true) {
                    continue 'cand;
                }
            }
            rows.push(concat(a, b));
        }
    }
    Ok(rows)
}

fn p_project_plain<'r>(
    ctx: &ExecCtx<'_, '_>,
    block: &PlanBlock,
    rows: impl ExactSizeIterator<Item = &'r [Value]>,
    parent: Option<&Scope<'_>>,
    out: &mut Vec<Value>,
) -> Result<usize> {
    let n = rows.len();
    out.reserve(n * block.columns.len());
    for row in rows {
        let scope = Scope {
            layout: &block.layout,
            row,
            parent,
            probe: None,
        };
        for item in &block.select {
            match item {
                PlanItem::Star => out.extend_from_slice(row),
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
    }
    Ok(n)
}

fn p_project_grouped<'r>(
    ctx: &ExecCtx<'_, '_>,
    block: &PlanBlock,
    rows: impl Iterator<Item = &'r [Value]>,
    parent: Option<&Scope<'_>>,
    out: &mut Vec<Value>,
) -> Result<usize> {
    // Build groups in first-occurrence order.
    let mut group_order: Vec<Vec<Key>> = Vec::new();
    let mut groups: HashMap<Vec<Key>, Vec<&[Value]>> = HashMap::new();
    if block.group_by.is_empty() {
        // Implicit single group, present even over empty input.
        groups.insert(Vec::new(), rows.collect());
        group_order.push(Vec::new());
    } else {
        for row in rows {
            let scope = Scope {
                layout: &block.layout,
                row,
                parent,
                probe: None,
            };
            let mut key = Vec::with_capacity(block.group_by.len());
            for g in &block.group_by {
                key.push(key_of(&*p_operand(ctx, g, &scope)?));
            }
            if !groups.contains_key(&key) {
                group_order.push(key.clone());
            }
            groups.entry(key).or_default().push(row);
        }
    }

    ctx.bump(|s| s.group_buckets += groups.len() as u64);

    let mut n = 0;
    for key in &group_order {
        let group = &groups[key];
        if let Some(h) = &block.having {
            let v = p_agg_expr(ctx, h, &block.layout, group, parent)?;
            if !v.is_truthy() {
                continue;
            }
        }
        for item in &block.select {
            match item {
                PlanItem::Star => match group.first() {
                    Some(r) => out.extend_from_slice(r),
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
        n += 1;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_query, eval_query_stats, EvalOptions, NamedTuple};
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
        )
        .unwrap();
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
        )
        .unwrap();
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
        )
        .unwrap();
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

    /// Runs `sql` through the interpreter and the prepared plan, asserting
    /// the same outcome (relation or error) and the same counters.
    fn outcome(db: &Database, sql: &str, env: &ParamEnv) -> Result<Relation> {
        let q = parse_query(sql).unwrap();
        let mut interp_stats = EvalStats::default();
        let interp = eval_query_stats(db, &q, env, EvalOptions::default(), &mut interp_stats);
        let plan = prepare(&q, &db.catalog()).unwrap();
        let mut plan_stats = EvalStats::default();
        let prepared = plan.execute_stats(db, env, &mut plan_stats);
        assert_eq!(prepared, interp, "outcome mismatch for {sql}");
        assert_eq!(plan_stats, interp_stats, "stats mismatch for {sql}");
        prepared
    }

    /// Asserts rows AND stats parity with the interpreter on `sql`.
    fn check(db: &Database, sql: &str, env: &ParamEnv) -> Relation {
        outcome(db, sql, env).unwrap()
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

    /// An integer SUM is exact: a total in range is returned even when a
    /// running prefix leaves `i64`, and a total out of range is a type
    /// error in both executors, never a panic or a wrapped value.
    #[test]
    fn integer_sum_is_exact_or_a_type_error() {
        let mut db = crate::ddl::database_from_ddl("CREATE TABLE n (g INT, v INT)").unwrap();
        db.execute_dml(
            "INSERT INTO n VALUES (1, 9223372036854775807), (1, 1), (1, -1), \
             (2, 9223372036854775807), (2, 1), \
             (3, -9223372036854775808), (3, -1)",
        )
        .unwrap();
        let env = ParamEnv::new();
        let r = check(&db, "SELECT SUM(v) FROM n WHERE g = 1", &env);
        assert_eq!(r.rows, vec![vec![Value::Int(i64::MAX)]]);
        // AVG averages through f64, so no group overflows it.
        let r = check(&db, "SELECT g, AVG(v) FROM n GROUP BY g", &env);
        assert_eq!(r.len(), 3);
        for sql in [
            "SELECT SUM(v) FROM n WHERE g = 2",
            "SELECT SUM(v) FROM n WHERE g = 3",
            "SELECT g, SUM(v) FROM n GROUP BY g",
            "SELECT g FROM n GROUP BY g HAVING SUM(v) > 0",
        ] {
            assert!(
                matches!(outcome(&db, sql, &env), Err(Error::Type { .. })),
                "{sql}"
            );
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
        // The interpreter, the oracle plans are checked against, raises the
        // same variant — whether the tables the query reads hold rows or
        // not.
        let full = hotel_db();
        let mut empty = hotel_db();
        for table in ["metroarea", "hotel", "confroom"] {
            empty.delete_from(table, None).unwrap();
        }
        let unknown = |name: &str| Error::UnknownTable { name: name.into() };
        let ambiguous = Error::AmbiguousColumn {
            name: "metroid".into(),
        };
        let duplicate = Error::DuplicateAlias {
            alias: "hotel".into(),
        };
        for (sql, want) in [
            ("SELECT * FROM nonexistent", unknown("nonexistent")),
            ("SELECT * FROM hotel, hotel", duplicate),
            (
                "SELECT * FROM confroom WHERE SUM(capacity) > 1",
                Error::MisplacedAggregate,
            ),
            ("SELECT metroid FROM metroarea, metroarea AS m2", ambiguous),
            ("SELECT z.* FROM hotel", unknown("z")),
        ] {
            let q = parse_query(sql).unwrap();
            assert_eq!(
                prepare(&q, &full.catalog()).err(),
                Some(want.clone()),
                "{sql}"
            );
            for db in [&full, &empty] {
                let got = eval_query(db, &q, &ParamEnv::new()).unwrap_err();
                assert_eq!(
                    std::mem::discriminant(&got),
                    std::mem::discriminant(&want),
                    "{sql}: {got:?}"
                );
            }
        }
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
        db.create_table(table).unwrap();
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
        // Unshared, each single-binding batch would run scalar; a shared
        // slot makes every one of them probe one pipeline.
        let plan = prepare(&q, &db.catalog()).unwrap();
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
        // (catalog, query, rendered facts, absent phrases)
        type Case<'a> = (&'a Catalog, &'a str, &'a [&'a str], &'a [&'a str]);
        let plain = hotel_db().catalog();
        let indexed = indexed_hotel_db().catalog();
        let mut keyed = pk_db();
        for column in ["starrating", "hotelid"] {
            keyed.create_index("hotel", column).unwrap();
        }
        let keyed = keyed.catalog();
        let cases: &[Case<'_>] = &[
            // Pushdown into the scan.
            (
                &plain,
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
                "SELECT hotelname FROM hotel WHERE metro_id = $m.metroid",
                &["from[0]: index lookup hotel on metro_id = $m.metroid"],
                &["from[0]: scan hotel"],
            ),
            // ...but not without an index.
            (
                &plain,
                "SELECT hotelname FROM hotel WHERE metro_id = 3",
                &["fused pushdown: metro_id = 3"],
                &["index lookup"],
            ),
            // A primary-key equality wins over an earlier indexed one.
            (
                &keyed,
                "SELECT hotelname FROM hotel WHERE starrating = 5 AND hotelid = 12",
                &["index lookup hotel on hotelid = 12"],
                &["index lookup hotel on starrating"],
            ),
            // Hash-join keys.
            (
                &plain,
                "SELECT hotelname, metroname FROM hotel, metroarea WHERE metro_id = metroid",
                &["from[1]: scan metroarea | hash join on (metro_id = metroid)"],
                &["nested-loop"],
            ),
            // No equality key: a cross product.
            (
                &plain,
                "SELECT hotelname, metroname FROM hotel, metroarea",
                &["from[1]: scan metroarea | nested-loop (cross) join"],
                &["hash join"],
            ),
            // A derived table with its own pushdown, joined and grouped.
            (
                &plain,
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
                "SELECT hotelname FROM hotel \
                 WHERE EXISTS (SELECT * FROM confroom WHERE chotel_id = hotelid)",
                &[
                    "  residual: EXISTS (...)\n    exists subplan — runs for the first row; \
                     later rows reuse its result unless that run read a column of the row:\n",
                    "\n      from[0]: scan confroom\n      residual: chotel_id = hotelid\n",
                ],
                &[],
            ),
            // Group-by keys, HAVING and DISTINCT.
            (
                &plain,
                "SELECT DISTINCT chotel_id FROM confroom \
                 GROUP BY chotel_id HAVING SUM(capacity) > 400",
                &["project: chotel_id | group by 1 (chotel_id) | having SUM(capacity) > 400 | distinct"],
                &[],
            ),
            (
                &plain,
                "SELECT COUNT(*) FROM confroom",
                &["| group by 0 (one implicit group)"],
                &["having"],
            ),
            // A separable root slot equality batches set-oriented...
            (
                &plain,
                "SELECT * FROM hotel AS h WHERE h.metro_id = $m.metroid",
                &["batch: set-oriented"],
                &["per-distinct-binding"],
            ),
            // ...unless a second slot sits in an EXISTS inside a derived table.
            (
                &plain,
                "SELECT * FROM hotel AS h, \
                 (SELECT * FROM confroom WHERE EXISTS \
                 (SELECT 1 FROM metroarea WHERE metroid = $x.id)) AS c \
                 WHERE h.metro_id = $m.metroid",
                &["batch: per-distinct-binding"],
                &["set-oriented"],
            ),
        ];
        for (catalog, sql, present, absent) in cases {
            let q = parse_query(sql).unwrap();
            let text = prepare(&q, catalog).unwrap().describe();
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
        db.create_index("hotel", "metro_id").unwrap();
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
    fn index_lookup_survives_a_missing_runtime_index() {
        let indexed = indexed_hotel_db();
        let q = parse_query("SELECT hotelname FROM hotel WHERE metro_id = 1").unwrap();
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

    /// `hotel_db`'s metroarea and hotel rows under a catalog that declares
    /// their PRIMARY KEYs.
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
        )
        .unwrap();
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
        )
        .unwrap();
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

    /// Declared keys change no plan: a join whose prefix `metroarea`'s key
    /// pins to one row compiles, runs and counts exactly like the same
    /// join over a catalog that declares no key.
    #[test]
    fn declared_keys_change_no_plan() {
        let sql = "SELECT hotelname, metroname FROM metroarea, hotel \
                   WHERE metroid = $m.metroid AND metro_id = metroid";
        let q = parse_query(sql).unwrap();
        let env = metro_param(1, "chicago");
        let (keyed, plain) = (pk_db(), hotel_db());
        let keyed_plan = prepare(&q, &keyed.catalog()).unwrap();
        let plain_plan = prepare(&q, &plain.catalog()).unwrap();
        let text = keyed_plan.describe();
        assert_eq!(text, plain_plan.describe());
        assert!(text.contains("hash join on (metroid = metro_id)"), "{text}");
        let (mut keyed_stats, mut plain_stats) = (EvalStats::default(), EvalStats::default());
        let keyed_rows = keyed_plan
            .execute_stats(&keyed, &env, &mut keyed_stats)
            .unwrap();
        let plain_rows = plain_plan
            .execute_stats(&plain, &env, &mut plain_stats)
            .unwrap();
        assert_eq!(keyed_rows, plain_rows);
        assert_eq!(keyed_rows.len(), 2);
        assert_eq!(keyed_stats, plain_stats);
        assert_eq!(keyed_stats.hash_join_builds, 1);
        // Both agree with the interpreter, rows and counters.
        check(&keyed, sql, &env);
        check(&plain, sql, &env);
    }

    #[test]
    fn one_distinct_binding_runs_scalar() {
        let db = hotel_db();
        let q = parse_query("SELECT hotelname FROM hotel WHERE metro_id=$m.metroid").unwrap();
        let plan = prepare(&q, &db.catalog()).unwrap();
        assert!(plan.batchable());
        // Three environments, one distinct binding: one execution with the
        // slot pushdown intact, no shared pipeline and no binding hash-join.
        let envs = vec![metro_param(1, "chicago"); 3];
        let (scalar, _) = scalar_loop(&plan, &db, &envs).unwrap();
        let (_, once) = scalar_loop(&plan, &db, &envs[..1]).unwrap();
        let mut stats = EvalStats::default();
        let batch = plan.execute_batch_stats(&db, &envs, &mut stats).unwrap();
        for (i, rel) in scalar.iter().enumerate() {
            assert_eq!(batch.rows_for(i), &rel.rows[..], "binding {i}");
        }
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.hash_join_builds, 0);
        assert_eq!(stats, once);
    }

    #[test]
    fn index_selection_prefers_primary_key_equality() {
        let mut db = pk_db();
        // Indexes on both a non-key and the key column; the key equality
        // wins regardless of conjunct order.
        db.create_index("hotel", "starrating").unwrap();
        db.create_index("hotel", "hotelid").unwrap();
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
    fn reads_sees_every_table_reference() {
        let catalog = hotel_db().catalog();
        // A guard probe: `SELECT 1 WHERE guard`, with no FROM item.
        let mut probe = SelectQuery::new(vec![SelectItem::expr(ScalarExpr::int(1))], vec![]);
        probe.where_clause = Some(ScalarExpr::Exists(Box::new(
            parse_query("SELECT * FROM confroom WHERE chotel_id = $h.hotelid").unwrap(),
        )));
        for (q, table) in [
            ("SELECT hotelname FROM hotel", "hotel"),
            ("SELECT x.c_id FROM (SELECT c_id FROM confroom) AS x", "confroom"),
            ("SELECT * FROM hotel WHERE EXISTS (SELECT * FROM confroom)", "confroom"),
            ("SELECT EXISTS (SELECT * FROM confroom) FROM hotel", "confroom"),
            ("SELECT starrating FROM hotel GROUP BY starrating HAVING EXISTS (SELECT * FROM confroom)", "confroom"),
            ("SELECT d.hotelid FROM (SELECT * FROM hotel WHERE EXISTS (SELECT * FROM confroom)) AS d", "confroom"),
            ("SELECT COUNT(*) FROM hotel GROUP BY EXISTS (SELECT * FROM confroom)", "confroom"),
        ]
        .map(|(sql, table)| (parse_query(sql).unwrap(), table))
        .into_iter()
        .chain([(probe, "confroom")])
        {
            let plan = prepare(&q, &catalog).unwrap();
            assert!(plan.reads(table), "{q:?} reads {table}");
            assert!(!plan.reads("metroarea"), "{q:?}");
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

    /// An empty implicit group reads its block's columns as NULL, in the
    /// select list and in HAVING, inside an `EXISTS` too: `s` below is
    /// `v.s`, never `u`'s (it has none) nor the enclosing `w.s`.
    #[test]
    fn empty_implicit_group_reads_its_block_as_nulls() {
        let mut db = crate::ddl::database_from_ddl(
            "CREATE TABLE v (i INT, f FLOAT, s TEXT); \
             CREATE TABLE w (j INT, g FLOAT, s TEXT); \
             CREATE TABLE u (k INT)",
        )
        .unwrap();
        for sql in [
            "INSERT INTO v VALUES (1, 1.5, 'a')",
            "INSERT INTO w VALUES (1, 1.5, 'a')",
            "INSERT INTO u VALUES (1)",
        ] {
            db.execute_dml(sql).unwrap();
        }
        let env = ParamEnv::new();
        let rel = check(
            &db,
            "SELECT COUNT(*), EXISTS (SELECT * FROM u WHERE s = 'a') FROM v WHERE i > 2",
            &env,
        );
        assert_eq!(rel.rows, vec![vec![Value::Int(0), Value::Bool(false)]]);
        let rel = check(
            &db,
            "SELECT j, s FROM w WHERE EXISTS (SELECT COUNT(*) FROM v WHERE i > 2 \
             HAVING EXISTS (SELECT * FROM u WHERE s = 'a'))",
            &env,
        );
        assert!(rel.rows.is_empty(), "{:?}", rel.rows);
    }
}
