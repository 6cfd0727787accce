//! SQL evaluation.
//!
//! A deliberately small but real query engine:
//!
//! * **scans** apply single-table predicates eagerly, so selective filters
//!   (e.g. `starrating > 4`) never build large intermediates;
//! * **joins** are hash equi-joins when the WHERE clause provides an
//!   equality conjunct linking the new FROM item to the already-joined
//!   prefix, nested-loop cross products otherwise;
//! * **grouping** is hash-based; aggregates follow SQL semantics (NULLs
//!   skipped, `SUM` over the empty set is NULL, implicit single group when
//!   aggregates appear without `GROUP BY`);
//! * **EXISTS** conjuncts are applied last; a tripwire on the row scope
//!   detects uncorrelated subqueries so they are evaluated once per query
//!   rather than once per row;
//! * **parameters** (`$var.column`) resolve against a [`ParamEnv`] binding
//!   each binding variable to a named tuple — exactly the mechanism
//!   schema-tree tag queries use (Definition 1).

use std::cell::Cell;
use std::collections::HashMap;

use crate::ast::{AggFunc, BinOp, ScalarExpr, SelectItem, SelectQuery, TableRef};
use crate::error::{Error, Result};
use crate::plan::Bindings;
use crate::schema::Catalog;
use crate::table::Database;
use crate::value::Value;

/// A named tuple: what a binding variable ranges over.
#[derive(Debug, Clone, PartialEq)]
pub struct NamedTuple {
    /// Column names.
    pub columns: Vec<String>,
    /// Values, parallel to `columns`.
    pub values: Vec<Value>,
}

impl NamedTuple {
    /// Looks up a column value by name.
    pub fn get(&self, column: &str) -> Option<&Value> {
        self.columns
            .iter()
            .position(|c| c == column)
            .map(|i| &self.values[i])
    }
}

/// Binding-variable environment: `$var` → tuple.
pub type ParamEnv = HashMap<String, NamedTuple>;

/// A query result: column names plus rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Relation {
    /// Output column names, in select-list order.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
}

impl Relation {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Evaluation tuning knobs (for ablation studies; the defaults are what
/// `eval_query` uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalOptions {
    /// Use hash equi-joins when the WHERE clause provides a key; when
    /// disabled every join is a nested-loop cross product filtered
    /// afterwards.
    pub hash_joins: bool,
    /// Evaluate row-independent EXISTS subqueries once per query instead
    /// of once per row (the tripwire-scope optimization).
    pub cache_uncorrelated_exists: bool,
    /// Let prepared plans serve an equality pushdown from a declared
    /// secondary index (fetching only candidate rows) instead of scanning
    /// the table. Rows and row order are unchanged — indexes preserve
    /// insertion order and the equality is still rechecked exactly. The
    /// one observable difference: pushdown predicates are never evaluated
    /// on non-candidate rows, so a predicate that would only *type-error*
    /// on rows the index skips no longer surfaces that error.
    pub use_indexes: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            hash_joins: true,
            cache_uncorrelated_exists: true,
            use_indexes: true,
        }
    }
}

/// Work counters for one (or several accumulated) query evaluations.
///
/// These expose what the engine actually did — the paper's efficiency
/// argument ("the composed view does not generate the unnecessary nodes")
/// becomes measurable: how many base rows were touched, which joins got a
/// hash key and which fell back to nested loops, how often EXISTS
/// subqueries ran versus being served from the uncorrelated cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Query blocks evaluated (top-level, derived tables and EXISTS
    /// subqueries each count once per evaluation).
    pub queries: u64,
    /// Top-level invocations carrying a non-empty [`ParamEnv`] — i.e.
    /// parameterized tag-query executions in the Definition 1 sense.
    pub param_queries: u64,
    /// Base-table rows read into working relations.
    pub rows_scanned: u64,
    /// Hash tables built for equi-joins.
    pub hash_join_builds: u64,
    /// Rows inserted into hash-join build sides.
    pub hash_join_build_rows: u64,
    /// Rows probed against hash-join tables.
    pub hash_join_probe_rows: u64,
    /// Joins that fell back to a nested-loop cross product (no usable
    /// equality key).
    pub nested_loop_joins: u64,
    /// Rows emitted by nested-loop cross products.
    pub nested_loop_rows: u64,
    /// EXISTS subquery evaluations actually performed.
    pub exists_evals: u64,
    /// Rows whose residual predicate was served from the cached result of
    /// an uncorrelated evaluation instead of re-running it.
    pub exists_cache_hits: u64,
    /// GROUP BY buckets created (implicit single groups included).
    pub group_buckets: u64,
    /// Equality pushdowns served by a secondary-index lookup instead of a
    /// table scan (prepared plans only; `rows_scanned` then counts the
    /// candidate rows fetched, not the table size).
    pub index_lookups: u64,
}

impl EvalStats {
    /// Accumulates counters from another run (e.g. per tag query during
    /// publishing).
    pub fn absorb(&mut self, other: &EvalStats) {
        self.queries += other.queries;
        self.param_queries += other.param_queries;
        self.rows_scanned += other.rows_scanned;
        self.hash_join_builds += other.hash_join_builds;
        self.hash_join_build_rows += other.hash_join_build_rows;
        self.hash_join_probe_rows += other.hash_join_probe_rows;
        self.nested_loop_joins += other.nested_loop_joins;
        self.nested_loop_rows += other.nested_loop_rows;
        self.exists_evals += other.exists_evals;
        self.exists_cache_hits += other.exists_cache_hits;
        self.group_buckets += other.group_buckets;
        self.index_lookups += other.index_lookups;
    }
}

impl std::fmt::Display for EvalStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "queries evaluated     {}", self.queries)?;
        writeln!(f, "  parameterized       {}", self.param_queries)?;
        writeln!(f, "rows scanned          {}", self.rows_scanned)?;
        writeln!(
            f,
            "hash joins            {} ({} build rows, {} probe rows)",
            self.hash_join_builds, self.hash_join_build_rows, self.hash_join_probe_rows
        )?;
        writeln!(
            f,
            "nested-loop fallbacks {} ({} rows emitted)",
            self.nested_loop_joins, self.nested_loop_rows
        )?;
        writeln!(
            f,
            "EXISTS evaluations    {} ({} cache hits)",
            self.exists_evals, self.exists_cache_hits
        )?;
        writeln!(f, "group-by buckets      {}", self.group_buckets)?;
        write!(f, "index lookups         {}", self.index_lookups)
    }
}

/// Evaluates a query against a database with the given parameter bindings.
pub fn eval_query(db: &Database, q: &SelectQuery, params: &ParamEnv) -> Result<Relation> {
    eval_query_with(db, q, params, EvalOptions::default())
}

/// [`eval_query`] with explicit [`EvalOptions`].
pub fn eval_query_with(
    db: &Database,
    q: &SelectQuery,
    params: &ParamEnv,
    options: EvalOptions,
) -> Result<Relation> {
    let stats = Cell::new(EvalStats::default());
    eval_scoped_opt(db, q, params, None, options, &stats)
}

/// [`eval_query_with`] that additionally accumulates [`EvalStats`] counters
/// into `stats` (counters are added, never reset, so one `EvalStats` can
/// aggregate a whole publish run).
pub fn eval_query_stats(
    db: &Database,
    q: &SelectQuery,
    params: &ParamEnv,
    options: EvalOptions,
    stats: &mut EvalStats,
) -> Result<Relation> {
    let cell = Cell::new(EvalStats::default());
    let rel = eval_scoped_opt(db, q, params, None, options, &cell)?;
    let mut run = cell.get();
    if !params.is_empty() {
        run.param_queries += 1;
    }
    stats.absorb(&run);
    Ok(rel)
}

// ---------------------------------------------------------------------------
// Scopes
// ---------------------------------------------------------------------------

/// Column layout of a working relation: `(qualifier, name)` per slot.
/// Shared with the plan compiler (`crate::plan`).
pub(crate) type Layout = Vec<(String, String)>;

pub(crate) struct Scope<'a> {
    pub(crate) layout: &'a Layout,
    pub(crate) row: &'a [Value],
    pub(crate) parent: Option<&'a Scope<'a>>,
    /// Tripwire: set when a lookup matches in *this* scope level. Used to
    /// detect whether an EXISTS subquery is correlated with the row.
    pub(crate) probe: Option<&'a Cell<bool>>,
}

impl<'a> Scope<'a> {
    pub(crate) fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<Value> {
        let mut found: Option<&Value> = None;
        match qualifier {
            Some(q) => {
                for (i, (cq, cn)) in self.layout.iter().enumerate() {
                    if cq == q && cn == name {
                        found = Some(&self.row[i]);
                        break;
                    }
                }
            }
            None => {
                for (i, (_, cn)) in self.layout.iter().enumerate() {
                    if cn == name {
                        if found.is_some() {
                            return Err(Error::AmbiguousColumn {
                                name: name.to_owned(),
                            });
                        }
                        found = Some(&self.row[i]);
                    }
                }
            }
        }
        if let Some(v) = found {
            if let Some(p) = self.probe {
                p.set(true);
            }
            return Ok(v.clone());
        }
        match self.parent {
            Some(p) => p.resolve(qualifier, name),
            None => Err(Error::UnknownColumn {
                reference: match qualifier {
                    Some(q) => format!("{q}.{name}"),
                    None => name.to_owned(),
                },
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Scalar evaluation
// ---------------------------------------------------------------------------

struct EvalCtx<'a> {
    db: &'a Database,
    params: &'a ParamEnv,
    options: EvalOptions,
    stats: &'a Cell<EvalStats>,
}

impl EvalCtx<'_> {
    /// Updates the run's counters. `EvalStats` is `Copy`, so a `Cell`
    /// suffices — no `RefCell` borrow bookkeeping in the recursion.
    fn bump(&self, f: impl FnOnce(&mut EvalStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }
}

fn eval_scalar(ctx: &EvalCtx<'_>, e: &ScalarExpr, scope: &Scope<'_>) -> Result<Value> {
    match e {
        ScalarExpr::Column { qualifier, name } => scope.resolve(qualifier.as_deref(), name),
        ScalarExpr::Param { var, column } => ctx.params.value(var, column).cloned(),
        ScalarExpr::Literal(v) => Ok(v.clone()),
        ScalarExpr::Binary { op, lhs, rhs } => {
            let l = eval_scalar(ctx, lhs, scope)?;
            match op {
                BinOp::And => {
                    if !l.is_truthy() {
                        return Ok(Value::Bool(false));
                    }
                    let r = eval_scalar(ctx, rhs, scope)?;
                    Ok(Value::Bool(r.is_truthy()))
                }
                BinOp::Or => {
                    if l.is_truthy() {
                        return Ok(Value::Bool(true));
                    }
                    let r = eval_scalar(ctx, rhs, scope)?;
                    Ok(Value::Bool(r.is_truthy()))
                }
                _ => {
                    let r = eval_scalar(ctx, rhs, scope)?;
                    eval_binop(*op, &l, &r)
                }
            }
        }
        ScalarExpr::Not(inner) => {
            let v = eval_scalar(ctx, inner, scope)?;
            // NOT unknown is unknown → filters treat as false.
            if v.is_null() {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(!v.is_truthy()))
            }
        }
        ScalarExpr::IsNull(inner) => {
            let v = eval_scalar(ctx, inner, scope)?;
            Ok(Value::Bool(v.is_null()))
        }
        ScalarExpr::Exists(q) => {
            ctx.bump(|s| s.exists_evals += 1);
            let rel = eval_scoped_opt(ctx.db, q, ctx.params, Some(scope), ctx.options, ctx.stats)?;
            Ok(Value::Bool(!rel.is_empty()))
        }
        ScalarExpr::Aggregate { .. } => Err(Error::MisplacedAggregate),
    }
}

pub(crate) fn eval_binop(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    if op.is_comparison() {
        let cmp = l.sql_cmp(r);
        return Ok(match cmp {
            None => Value::Null, // unknown
            Some(ord) => Value::Bool(match op {
                BinOp::Eq => ord == std::cmp::Ordering::Equal,
                BinOp::Ne => ord != std::cmp::Ordering::Equal,
                BinOp::Lt => ord == std::cmp::Ordering::Less,
                BinOp::Le => ord != std::cmp::Ordering::Greater,
                BinOp::Gt => ord == std::cmp::Ordering::Greater,
                BinOp::Ge => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            }),
        });
    }
    // Arithmetic.
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => Ok(match op {
            BinOp::Add => Value::Int(a + b),
            BinOp::Sub => Value::Int(a - b),
            BinOp::Mul => Value::Int(a * b),
            BinOp::Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a / b)
                }
            }
            _ => unreachable!("non-arithmetic op"),
        }),
        _ => {
            let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
                return Err(Error::Type {
                    reason: format!("arithmetic on non-numeric values {l} and {r}"),
                });
            };
            let v = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => {
                    if b == 0.0 {
                        return Ok(Value::Null);
                    }
                    a / b
                }
                _ => unreachable!("non-arithmetic op"),
            };
            Ok(Value::Float(v))
        }
    }
}

// ---------------------------------------------------------------------------
// Aggregate evaluation (per group)
// ---------------------------------------------------------------------------

/// Evaluates an expression that may contain aggregates over a group of rows.
/// Non-aggregate subexpressions are evaluated on the group's first row (the
/// composed queries always GROUP BY every projected column, so all rows of a
/// group agree on them). An empty group (implicit aggregation over an empty
/// input) uses NULLs for bare column references.
fn eval_agg_expr(
    ctx: &EvalCtx<'_>,
    e: &ScalarExpr,
    layout: &Layout,
    group: &[&Vec<Value>],
    parent: Option<&Scope<'_>>,
) -> Result<Value> {
    match e {
        ScalarExpr::Aggregate { func, arg } => {
            let mut acc = AggAcc::new(*func);
            for row in group {
                let scope = Scope {
                    layout,
                    row,
                    parent,
                    probe: None,
                };
                let v = match arg {
                    Some(a) => eval_scalar(ctx, a, &scope)?,
                    None => Value::Int(1), // COUNT(*)
                };
                acc.feed(&v)?;
            }
            Ok(acc.finish())
        }
        ScalarExpr::Binary { op, lhs, rhs } => {
            let l = eval_agg_expr(ctx, lhs, layout, group, parent)?;
            let r = eval_agg_expr(ctx, rhs, layout, group, parent)?;
            match op {
                BinOp::And => Ok(Value::Bool(l.is_truthy() && r.is_truthy())),
                BinOp::Or => Ok(Value::Bool(l.is_truthy() || r.is_truthy())),
                _ => eval_binop(*op, &l, &r),
            }
        }
        ScalarExpr::Not(inner) => {
            let v = eval_agg_expr(ctx, inner, layout, group, parent)?;
            if v.is_null() {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(!v.is_truthy()))
            }
        }
        ScalarExpr::IsNull(inner) => {
            let v = eval_agg_expr(ctx, inner, layout, group, parent)?;
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
                eval_scalar(ctx, other, &scope)
            }
            None => match other {
                // Empty implicit group: columns are NULL, constants are
                // themselves.
                ScalarExpr::Column { .. } => Ok(Value::Null),
                _ => {
                    let empty_layout = Layout::new();
                    let empty_row: Vec<Value> = Vec::new();
                    let scope = Scope {
                        layout: &empty_layout,
                        row: &empty_row,
                        parent,
                        probe: None,
                    };
                    eval_scalar(ctx, other, &scope)
                }
            },
        },
    }
}

pub(crate) struct AggAcc {
    func: AggFunc,
    count: i64,
    sum_i: i64,
    sum_f: f64,
    saw_float: bool,
    best: Option<Value>,
}

impl AggAcc {
    pub(crate) fn new(func: AggFunc) -> Self {
        AggAcc {
            func,
            count: 0,
            sum_i: 0,
            sum_f: 0.0,
            saw_float: false,
            best: None,
        }
    }

    pub(crate) fn feed(&mut self, v: &Value) -> Result<()> {
        if v.is_null() {
            return Ok(()); // SQL aggregates skip NULLs
        }
        self.count += 1;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => match v {
                Value::Int(i) => {
                    self.sum_i += i;
                    self.sum_f += *i as f64;
                }
                Value::Float(f) => {
                    self.saw_float = true;
                    self.sum_f += f;
                }
                other => {
                    return Err(Error::Type {
                        reason: format!("SUM/AVG over non-numeric value {other}"),
                    })
                }
            },
            AggFunc::Min => {
                if self.best.as_ref().and_then(|b| v.sql_cmp(b)) != Some(std::cmp::Ordering::Less)
                    && self.best.is_some()
                {
                } else {
                    self.best = Some(v.clone());
                }
            }
            AggFunc::Max => {
                if self.best.as_ref().and_then(|b| v.sql_cmp(b))
                    == Some(std::cmp::Ordering::Greater)
                    || self.best.is_none()
                {
                    self.best = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    pub(crate) fn finish(self) -> Value {
        match self.func {
            AggFunc::Count => Value::Int(self.count),
            AggFunc::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.saw_float {
                    Value::Float(self.sum_f)
                } else {
                    Value::Int(self.sum_i)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum_f / self.count as f64)
                }
            }
            AggFunc::Min | AggFunc::Max => self.best.unwrap_or(Value::Null),
        }
    }
}

// ---------------------------------------------------------------------------
// Grouping keys
// ---------------------------------------------------------------------------

/// Owned, hashable key for grouping and hash joins. NULLs group together in
/// GROUP BY; join code filters NULL keys out beforehand.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Key {
    Null,
    Num(u64),
    Str(String),
    Bool(bool),
}

pub(crate) fn key_of(v: &Value) -> Key {
    match v {
        Value::Null => Key::Null,
        Value::Int(i) => Key::Num((*i as f64).to_bits()),
        Value::Float(f) => Key::Num(f.to_bits()),
        Value::Str(s) => Key::Str(s.clone()),
        Value::Bool(b) => Key::Bool(*b),
    }
}

// ---------------------------------------------------------------------------
// The main pipeline
// ---------------------------------------------------------------------------

struct WorkRel {
    layout: Layout,
    rows: Vec<Vec<Value>>,
}

fn eval_scoped_opt(
    db: &Database,
    q: &SelectQuery,
    params: &ParamEnv,
    parent: Option<&Scope<'_>>,
    options: EvalOptions,
    stats: &Cell<EvalStats>,
) -> Result<Relation> {
    // Preserved-side derived tables (left-outer semantics): baseline rows
    // to pad back in after joins and residual filters.
    struct Preserved {
        offset: usize,
        width: usize,
        baseline: Vec<Vec<Value>>,
    }

    let ctx = EvalCtx {
        db,
        params,
        options,
        stats,
    };
    ctx.bump(|s| s.queries += 1);

    // Alias uniqueness.
    {
        let mut seen = std::collections::HashSet::new();
        for t in &q.from {
            if !seen.insert(t.binding_name().to_owned()) {
                return Err(Error::DuplicateAlias {
                    alias: t.binding_name().to_owned(),
                });
            }
        }
    }

    // Reject ambiguous unqualified column references at this level before
    // any pushdown can silently mis-scope them (SQL treats them as errors).
    check_level_ambiguity(db, q, params, parent)?;

    // Split the WHERE clause into conjuncts.
    let mut conjuncts: Vec<&ScalarExpr> = Vec::new();
    if let Some(w) = &q.where_clause {
        split_and(w, &mut conjuncts);
    }
    let mut applied = vec![false; conjuncts.len()];

    // Join FROM items left to right.
    let mut work: Option<WorkRel> = None;
    let mut seen_aliases: Vec<String> = Vec::new();
    let mut seen_columns: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut preserved_list: Vec<Preserved> = Vec::new();

    for t in &q.from {
        let alias = t.binding_name().to_owned();
        let (cols, rows) = match t {
            TableRef::Named { name, .. } => {
                let table = db.table(name)?;
                let rows = table.rows().to_vec();
                ctx.bump(|s| s.rows_scanned += rows.len() as u64);
                (table.schema.column_names(), rows)
            }
            TableRef::Derived { query, .. } => {
                let rel = eval_scoped_opt(db, query, params, parent, options, stats)?;
                (rel.columns, rel.rows)
            }
        };
        let layout: Layout = cols.iter().map(|c| (alias.clone(), c.clone())).collect();
        let mut new_rel = WorkRel { layout, rows };

        // Eagerly apply conjuncts that reference only this FROM item
        // (plus params/literals) — classic predicate pushdown.
        for (i, c) in conjuncts.iter().enumerate() {
            if applied[i] || contains_exists(c) || c.contains_aggregate() {
                continue;
            }
            if resolvable_within(c, std::slice::from_ref(&alias), &cols_set(&new_rel.layout)) {
                filter_rows(&ctx, &mut new_rel, c, parent)?;
                applied[i] = true;
            }
        }

        if let TableRef::Derived {
            preserved: true, ..
        } = t
        {
            preserved_list.push(Preserved {
                offset: work.as_ref().map(|w| w.layout.len()).unwrap_or(0),
                width: new_rel.layout.len(),
                baseline: new_rel.rows.clone(),
            });
        }

        work = Some(match work {
            None => new_rel,
            Some(prev) => {
                // Find equi-join conjuncts between `prev` and `new_rel`.
                let mut join_pairs: Vec<(ScalarExpr, ScalarExpr)> = Vec::new();
                if options.hash_joins {
                    for (i, c) in conjuncts.iter().enumerate() {
                        if applied[i] {
                            continue;
                        }
                        if let Some((l, r)) = equi_pair(c, &prev, &new_rel) {
                            join_pairs.push((l, r));
                            applied[i] = true;
                        }
                    }
                }
                hash_join(&ctx, &prev, &new_rel, &join_pairs, parent)?
            }
        });
        seen_aliases.push(alias);
        if let Some(w) = &work {
            seen_columns = cols_set(&w.layout);
        }

        // Apply conjuncts that became resolvable over the joined prefix.
        if let Some(w) = work.as_mut() {
            for (i, c) in conjuncts.iter().enumerate() {
                if applied[i] || contains_exists(c) || c.contains_aggregate() {
                    continue;
                }
                if resolvable_within(c, &seen_aliases, &seen_columns) {
                    filter_rows(&ctx, w, c, parent)?;
                    applied[i] = true;
                }
            }
        }
    }

    let mut work = work.unwrap_or(WorkRel {
        layout: Layout::new(),
        rows: vec![Vec::new()], // SELECT without FROM is not in the dialect,
                                // but an empty FROM list yields one empty row
    });

    // Remaining conjuncts: EXISTS and anything referencing outer scopes.
    for (i, c) in conjuncts.iter().enumerate() {
        if applied[i] {
            continue;
        }
        if c.contains_aggregate() {
            return Err(Error::MisplacedAggregate);
        }
        apply_residual_filter(&ctx, &mut work, c, parent)?;
        applied[i] = true;
    }

    // Pad preserved-side rows back in (left-outer semantics): baseline
    // rows with no surviving join partner appear once, other columns NULL.
    for p in &preserved_list {
        let present: std::collections::HashSet<Vec<Key>> = work
            .rows
            .iter()
            .map(|r| r[p.offset..p.offset + p.width].iter().map(key_of).collect())
            .collect();
        for b in &p.baseline {
            let key: Vec<Key> = b.iter().map(key_of).collect();
            if !present.contains(&key) {
                let mut row = vec![Value::Null; work.layout.len()];
                row[p.offset..p.offset + p.width].clone_from_slice(b);
                work.rows.push(row);
            }
        }
    }

    // Grouping / projection.
    let mut rel = if q.is_aggregating() {
        project_grouped(&ctx, q, &work, parent)?
    } else {
        project_plain(&ctx, q, &work, parent)?
    };

    if q.distinct {
        let mut seen = std::collections::HashSet::new();
        let mut kept = Vec::new();
        for row in rel.rows.drain(..) {
            let key: Vec<Key> = row.iter().map(key_of).collect();
            if seen.insert(key) {
                kept.push(row);
            }
        }
        rel.rows = kept;
    }
    Ok(rel)
}

/// Column names a FROM item provides, without evaluating derived tables.
fn from_item_columns(db: &Database, t: &TableRef) -> Result<Vec<String>> {
    match t {
        TableRef::Named { name, .. } => Ok(db.table(name)?.schema.column_names()),
        TableRef::Derived { query, .. } => {
            // Static layout of the derived table.
            let mut layout: Vec<(String, String)> = Vec::new();
            for sub in &query.from {
                let alias = sub.binding_name().to_owned();
                for c in from_item_columns(db, sub)? {
                    layout.push((alias.clone(), c));
                }
            }
            let mut out = Vec::new();
            for (i, item) in query.select.iter().enumerate() {
                out.extend(item_names(item, &layout, i)?);
            }
            Ok(out)
        }
    }
}

/// Errors when an unqualified column referenced at this query level is
/// provided by more than one FROM item.
fn check_level_ambiguity(
    db: &Database,
    q: &SelectQuery,
    _params: &ParamEnv,
    _parent: Option<&Scope<'_>>,
) -> Result<()> {
    let mut sets: Vec<std::collections::HashSet<String>> = Vec::new();
    for t in &q.from {
        sets.push(from_item_columns(db, t)?.into_iter().collect());
    }
    ambiguity_from_sets(q, &sets)
}

/// Unqualified column names referenced at this query level (select list,
/// WHERE, GROUP BY, HAVING — EXISTS subqueries excluded, they have their
/// own level). Shared between the interpreter's per-evaluation check and
/// the prepared-plan compiler so both reject exactly the same queries.
pub(crate) fn unqualified_names(q: &SelectQuery) -> Vec<String> {
    fn walk(e: &ScalarExpr, names: &mut Vec<String>) {
        match e {
            ScalarExpr::Column {
                qualifier: None,
                name,
            } if !names.contains(name) => names.push(name.clone()),
            ScalarExpr::Binary { lhs, rhs, .. } => {
                walk(lhs, names);
                walk(rhs, names);
            }
            ScalarExpr::Not(i) | ScalarExpr::IsNull(i) => walk(i, names),
            ScalarExpr::Aggregate { arg: Some(a), .. } => walk(a, names),
            _ => {}
        }
    }

    let mut names: Vec<String> = Vec::new();
    for item in &q.select {
        if let SelectItem::Expr { expr, .. } = item {
            walk(expr, &mut names);
        }
    }
    if let Some(w) = &q.where_clause {
        walk(w, &mut names);
    }
    for g in &q.group_by {
        walk(g, &mut names);
    }
    if let Some(h) = &q.having {
        walk(h, &mut names);
    }
    names
}

/// The ambiguity rule itself, over precomputed per-FROM-item column sets.
pub(crate) fn ambiguity_from_sets(
    q: &SelectQuery,
    sets: &[std::collections::HashSet<String>],
) -> Result<()> {
    for n in unqualified_names(q) {
        if sets.iter().filter(|s| s.contains(&n)).count() > 1 {
            return Err(Error::AmbiguousColumn { name: n });
        }
    }
    Ok(())
}

pub(crate) fn cols_set(layout: &Layout) -> std::collections::HashSet<String> {
    layout.iter().map(|(_, n)| n.clone()).collect()
}

pub(crate) fn split_and<'a>(e: &'a ScalarExpr, out: &mut Vec<&'a ScalarExpr>) {
    match e {
        ScalarExpr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => {
            split_and(lhs, out);
            split_and(rhs, out);
        }
        other => out.push(other),
    }
}

pub(crate) fn contains_exists(e: &ScalarExpr) -> bool {
    match e {
        ScalarExpr::Exists(_) => true,
        ScalarExpr::Binary { lhs, rhs, .. } => contains_exists(lhs) || contains_exists(rhs),
        ScalarExpr::Not(i) | ScalarExpr::IsNull(i) => contains_exists(i),
        _ => false,
    }
}

/// True if every column reference in `e` resolves within the given aliases /
/// column-name set (conservative: unqualified names must be member columns).
pub(crate) fn resolvable_within(
    e: &ScalarExpr,
    aliases: &[String],
    columns: &std::collections::HashSet<String>,
) -> bool {
    match e {
        ScalarExpr::Column { qualifier, name } => match qualifier {
            Some(q) => aliases.iter().any(|a| a == q),
            None => columns.contains(name),
        },
        ScalarExpr::Param { .. } | ScalarExpr::Literal(_) => true,
        ScalarExpr::Binary { lhs, rhs, .. } => {
            resolvable_within(lhs, aliases, columns) && resolvable_within(rhs, aliases, columns)
        }
        ScalarExpr::Not(i) | ScalarExpr::IsNull(i) => resolvable_within(i, aliases, columns),
        ScalarExpr::Exists(_) | ScalarExpr::Aggregate { .. } => false,
    }
}

/// If `c` is `lhs = rhs` with one side resolvable only in `prev` and the
/// other only in `next`, returns the pair ordered (prev-side, next-side).
fn equi_pair(c: &ScalarExpr, prev: &WorkRel, next: &WorkRel) -> Option<(ScalarExpr, ScalarExpr)> {
    equi_pair_layouts(c, &prev.layout, &next.layout)
}

/// Layout-based form of [`equi_pair`], usable without materialized rows —
/// this is how the plan compiler (`crate::plan`) picks hash-join keys.
pub(crate) fn equi_pair_layouts(
    c: &ScalarExpr,
    prev: &Layout,
    next: &Layout,
) -> Option<(ScalarExpr, ScalarExpr)> {
    let ScalarExpr::Binary {
        op: BinOp::Eq,
        lhs,
        rhs,
    } = c
    else {
        return None;
    };
    let prev_aliases: Vec<String> = distinct_aliases(prev);
    let next_aliases: Vec<String> = distinct_aliases(next);
    let prev_cols = cols_set(prev);
    let next_cols = cols_set(next);
    let l_prev = resolvable_within(lhs, &prev_aliases, &prev_cols);
    let l_next = resolvable_within(lhs, &next_aliases, &next_cols);
    let r_prev = resolvable_within(rhs, &prev_aliases, &prev_cols);
    let r_next = resolvable_within(rhs, &next_aliases, &next_cols);
    // Require an unambiguous split; a side resolvable in both (e.g. a
    // parameter-only expression) is not a join key.
    if l_prev && !l_next && r_next && !r_prev {
        Some((*lhs.clone(), *rhs.clone()))
    } else if r_prev && !r_next && l_next && !l_prev {
        Some((*rhs.clone(), *lhs.clone()))
    } else {
        None
    }
}

pub(crate) fn distinct_aliases(layout: &Layout) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for (q, _) in layout {
        if !out.contains(q) {
            out.push(q.clone());
        }
    }
    out
}

fn filter_rows(
    ctx: &EvalCtx<'_>,
    rel: &mut WorkRel,
    pred: &ScalarExpr,
    parent: Option<&Scope<'_>>,
) -> Result<()> {
    let mut kept = Vec::with_capacity(rel.rows.len());
    for row in rel.rows.drain(..) {
        let scope = Scope {
            layout: &rel.layout,
            row: &row,
            parent,
            probe: None,
        };
        if eval_scalar(ctx, pred, &scope)?.is_truthy() {
            kept.push(row);
        }
    }
    rel.rows = kept;
    Ok(())
}

/// Applies a residual conjunct (typically containing EXISTS). Uses a probe
/// cell to detect row-correlation: if the first row's evaluation never read
/// a column from the row scope, the predicate is row-independent and its
/// result is reused for all rows.
fn apply_residual_filter(
    ctx: &EvalCtx<'_>,
    rel: &mut WorkRel,
    pred: &ScalarExpr,
    parent: Option<&Scope<'_>>,
) -> Result<()> {
    let mut kept = Vec::with_capacity(rel.rows.len());
    let mut cached: Option<bool> = None;
    let probe = Cell::new(false);
    for (i, row) in rel.rows.drain(..).enumerate() {
        let keep = match cached {
            Some(b) => {
                ctx.bump(|s| s.exists_cache_hits += 1);
                b
            }
            None => {
                let scope = Scope {
                    layout: &rel.layout,
                    row: &row,
                    parent,
                    probe: Some(&probe),
                };
                let b = eval_scalar(ctx, pred, &scope)?.is_truthy();
                if i == 0 && !probe.get() && ctx.options.cache_uncorrelated_exists {
                    // Never touched the row: constant for this evaluation.
                    cached = Some(b);
                }
                b
            }
        };
        if keep {
            kept.push(row);
        }
    }
    rel.rows = kept;
    Ok(())
}

fn hash_join(
    ctx: &EvalCtx<'_>,
    prev: &WorkRel,
    next: &WorkRel,
    pairs: &[(ScalarExpr, ScalarExpr)],
    parent: Option<&Scope<'_>>,
) -> Result<WorkRel> {
    let mut layout = prev.layout.clone();
    layout.extend(next.layout.iter().cloned());

    if pairs.is_empty() {
        // Cross product.
        let mut rows = Vec::with_capacity(prev.rows.len() * next.rows.len());
        for a in &prev.rows {
            for b in &next.rows {
                let mut row = a.clone();
                row.extend(b.iter().cloned());
                rows.push(row);
            }
        }
        ctx.bump(|s| {
            s.nested_loop_joins += 1;
            s.nested_loop_rows += rows.len() as u64;
        });
        return Ok(WorkRel { layout, rows });
    }

    ctx.bump(|s| {
        s.hash_join_builds += 1;
        s.hash_join_build_rows += next.rows.len() as u64;
        s.hash_join_probe_rows += prev.rows.len() as u64;
    });

    // Build hash table on the next side.
    let mut index: HashMap<Vec<Key>, Vec<usize>> = HashMap::new();
    'build: for (i, row) in next.rows.iter().enumerate() {
        let mut key = Vec::with_capacity(pairs.len());
        for (_, nexpr) in pairs {
            let scope = Scope {
                layout: &next.layout,
                row,
                parent,
                probe: None,
            };
            let v = eval_scalar(ctx, nexpr, &scope)?;
            if v.is_null() {
                continue 'build; // NULL never equi-joins
            }
            key.push(key_of(&v));
        }
        index.entry(key).or_default().push(i);
    }

    // Probe with the prev side.
    let mut rows = Vec::new();
    'probe: for a in &prev.rows {
        let mut key = Vec::with_capacity(pairs.len());
        for (pexpr, _) in pairs {
            let scope = Scope {
                layout: &prev.layout,
                row: a,
                parent,
                probe: None,
            };
            let v = eval_scalar(ctx, pexpr, &scope)?;
            if v.is_null() {
                continue 'probe;
            }
            key.push(key_of(&v));
        }
        if let Some(matches) = index.get(&key) {
            for &i in matches {
                let mut row = a.clone();
                row.extend(next.rows[i].iter().cloned());
                rows.push(row);
            }
        }
    }
    Ok(WorkRel { layout, rows })
}

// ---------------------------------------------------------------------------
// Projection
// ---------------------------------------------------------------------------

/// Output column name for one select item (see [`output_columns`]).
pub(crate) fn item_names(item: &SelectItem, layout: &Layout, idx: usize) -> Result<Vec<String>> {
    Ok(match item {
        SelectItem::Star => layout.iter().map(|(_, n)| n.clone()).collect(),
        SelectItem::QualifiedStar(q) => {
            let names: Vec<String> = layout
                .iter()
                .filter(|(cq, _)| cq == q)
                .map(|(_, n)| n.clone())
                .collect();
            if names.is_empty() {
                return Err(Error::UnknownTable { name: q.clone() });
            }
            names
        }
        SelectItem::Expr { expr, alias } => vec![match alias {
            Some(a) => a.clone(),
            None => derived_name(expr, idx),
        }],
    })
}

fn derived_name(expr: &ScalarExpr, idx: usize) -> String {
    match expr {
        ScalarExpr::Column { name, .. } => name.clone(),
        ScalarExpr::Param { column, .. } => column.clone(),
        ScalarExpr::Aggregate { func, .. } => func.default_column_name().to_owned(),
        _ => format!("col{idx}"),
    }
}

fn project_plain(
    ctx: &EvalCtx<'_>,
    q: &SelectQuery,
    work: &WorkRel,
    parent: Option<&Scope<'_>>,
) -> Result<Relation> {
    let mut columns = Vec::new();
    for (i, item) in q.select.iter().enumerate() {
        columns.extend(item_names(item, &work.layout, i)?);
    }
    let mut rows = Vec::with_capacity(work.rows.len());
    for row in &work.rows {
        let scope = Scope {
            layout: &work.layout,
            row,
            parent,
            probe: None,
        };
        let mut out = Vec::with_capacity(columns.len());
        for item in &q.select {
            match item {
                SelectItem::Star => out.extend(row.iter().cloned()),
                SelectItem::QualifiedStar(qal) => {
                    for (i, (cq, _)) in work.layout.iter().enumerate() {
                        if cq == qal {
                            out.push(row[i].clone());
                        }
                    }
                }
                SelectItem::Expr { expr, .. } => out.push(eval_scalar(ctx, expr, &scope)?),
            }
        }
        rows.push(out);
    }
    Ok(Relation { columns, rows })
}

fn project_grouped(
    ctx: &EvalCtx<'_>,
    q: &SelectQuery,
    work: &WorkRel,
    parent: Option<&Scope<'_>>,
) -> Result<Relation> {
    let mut columns = Vec::new();
    for (i, item) in q.select.iter().enumerate() {
        columns.extend(item_names(item, &work.layout, i)?);
    }

    // Build groups.
    let mut group_order: Vec<Vec<Key>> = Vec::new();
    let mut groups: HashMap<Vec<Key>, Vec<&Vec<Value>>> = HashMap::new();
    if q.group_by.is_empty() {
        // Implicit single group, present even over empty input.
        groups.insert(Vec::new(), work.rows.iter().collect());
        group_order.push(Vec::new());
    } else {
        for row in &work.rows {
            let scope = Scope {
                layout: &work.layout,
                row,
                parent,
                probe: None,
            };
            let mut key = Vec::with_capacity(q.group_by.len());
            for g in &q.group_by {
                key.push(key_of(&eval_scalar(ctx, g, &scope)?));
            }
            if !groups.contains_key(&key) {
                group_order.push(key.clone());
            }
            groups.entry(key).or_default().push(row);
        }
    }

    ctx.bump(|s| s.group_buckets += groups.len() as u64);

    let mut rows = Vec::with_capacity(groups.len());
    for key in &group_order {
        let group = &groups[key];
        // HAVING.
        if let Some(h) = &q.having {
            let v = eval_agg_expr(ctx, h, &work.layout, group, parent)?;
            if !v.is_truthy() {
                continue;
            }
        }
        let mut out = Vec::with_capacity(columns.len());
        for item in &q.select {
            match item {
                SelectItem::Star => {
                    let rep = group.first();
                    match rep {
                        Some(r) => out.extend(r.iter().cloned()),
                        None => out.extend(work.layout.iter().map(|_| Value::Null)),
                    }
                }
                SelectItem::QualifiedStar(qal) => {
                    for (i, (cq, _)) in work.layout.iter().enumerate() {
                        if cq == qal {
                            match group.first() {
                                Some(r) => out.push(r[i].clone()),
                                None => out.push(Value::Null),
                            }
                        }
                    }
                }
                SelectItem::Expr { expr, .. } => {
                    out.push(eval_agg_expr(ctx, expr, &work.layout, group, parent)?);
                }
            }
        }
        rows.push(out);
    }
    Ok(Relation { columns, rows })
}

// ---------------------------------------------------------------------------
// Static output-column computation
// ---------------------------------------------------------------------------

/// Computes a query's output column names without evaluating it. Needed by
/// the composition algorithm (to expand `GROUP BY TEMP.*` over a derived
/// table's columns) and by schema-tree validation.
pub fn output_columns(q: &SelectQuery, catalog: &Catalog) -> Result<Vec<String>> {
    // Layout of the FROM clause.
    let mut layout: Vec<(String, String)> = Vec::new();
    for t in &q.from {
        let alias = t.binding_name().to_owned();
        match t {
            TableRef::Named { name, .. } => {
                let schema = catalog.get(name)?;
                for c in &schema.columns {
                    layout.push((alias.clone(), c.name.clone()));
                }
            }
            TableRef::Derived { query, .. } => {
                for c in output_columns(query, catalog)? {
                    layout.push((alias.clone(), c));
                }
            }
        }
    }
    let mut out = Vec::new();
    for (i, item) in q.select.iter().enumerate() {
        out.extend(item_names(item, &layout, i)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn run(db: &Database, sql: &str) -> Relation {
        eval_query(db, &parse_query(sql).unwrap(), &ParamEnv::new()).unwrap()
    }

    fn run_with(db: &Database, sql: &str, params: &ParamEnv) -> Relation {
        eval_query(db, &parse_query(sql).unwrap(), params).unwrap()
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
    fn simple_scan() {
        let db = hotel_db();
        let r = run(&db, "SELECT metroid, metroname FROM metroarea");
        assert_eq!(r.columns, vec!["metroid", "metroname"]);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn where_filters() {
        let db = hotel_db();
        let r = run(&db, "SELECT hotelname FROM hotel WHERE starrating > 4");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn parameterized_query() {
        let db = hotel_db();
        let env = metro_param(1, "chicago");
        let r = run_with(
            &db,
            "SELECT * FROM hotel WHERE metro_id=$m.metroid AND starrating > 4",
            &env,
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][1], Value::Str("palmer".into()));
    }

    #[test]
    fn unbound_param_errors() {
        let db = hotel_db();
        let q = parse_query("SELECT * FROM hotel WHERE metro_id=$m.metroid").unwrap();
        assert!(matches!(
            eval_query(&db, &q, &ParamEnv::new()),
            Err(Error::UnboundParameter { .. })
        ));
    }

    #[test]
    fn param_missing_column_errors() {
        let db = hotel_db();
        let mut env = ParamEnv::new();
        env.insert(
            "m".into(),
            NamedTuple {
                columns: vec!["other".into()],
                values: vec![Value::Int(1)],
            },
        );
        let q = parse_query("SELECT * FROM hotel WHERE metro_id=$m.metroid").unwrap();
        assert!(matches!(
            eval_query(&db, &q, &env),
            Err(Error::ParameterColumn { .. })
        ));
    }

    #[test]
    fn hash_join_two_tables() {
        let db = hotel_db();
        let r = run(
            &db,
            "SELECT hotelname, metroname FROM hotel, metroarea WHERE metro_id = metroid",
        );
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn cross_product_without_join_key() {
        let db = hotel_db();
        let r = run(&db, "SELECT hotelname, metroname FROM hotel, metroarea");
        assert_eq!(r.len(), 6);
    }

    #[test]
    fn aggregates_with_group_by() {
        let db = hotel_db();
        let r = run(
            &db,
            "SELECT chotel_id, SUM(capacity), COUNT(*) FROM confroom GROUP BY chotel_id",
        );
        assert_eq!(r.columns, vec!["chotel_id", "sum", "count"]);
        assert_eq!(r.len(), 2);
        let palmer = r.rows.iter().find(|r| r[0] == Value::Int(10)).unwrap();
        assert_eq!(palmer[1], Value::Int(450));
        assert_eq!(palmer[2], Value::Int(2));
    }

    #[test]
    fn implicit_single_group() {
        let db = hotel_db();
        let r = run(&db, "SELECT SUM(capacity) FROM confroom");
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(950));
        // Empty input still yields one row with NULL sum / 0 count.
        let r = run(
            &db,
            "SELECT SUM(capacity), COUNT(*) FROM confroom WHERE capacity > 9999",
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Value::Null);
        assert_eq!(r.rows[0][1], Value::Int(0));
    }

    #[test]
    fn having_filters_groups() {
        let db = hotel_db();
        let r = run(
            &db,
            "SELECT chotel_id FROM confroom GROUP BY chotel_id HAVING SUM(capacity) > 400",
        );
        assert_eq!(r.len(), 2);
        let r = run(
            &db,
            "SELECT chotel_id FROM confroom GROUP BY chotel_id HAVING SUM(capacity) > 460",
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(12));
    }

    #[test]
    fn derived_table_with_params() {
        let db = hotel_db();
        let env = metro_param(1, "chicago");
        // The paper's Qs_new (Figure 7a) shape.
        let r = run_with(
            &db,
            "SELECT SUM(capacity), TEMP.* \
             FROM confroom, (SELECT * FROM hotel \
                             WHERE metro_id=$m.metroid AND starrating > 4) AS TEMP \
             WHERE chotel_id=TEMP.hotelid \
             GROUP BY TEMP.hotelid, TEMP.hotelname, TEMP.starrating, TEMP.metro_id",
            &env,
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(450)); // palmer's two rooms
        assert_eq!(r.columns[0], "sum");
        assert_eq!(
            r.columns[1..],
            ["hotelid", "hotelname", "starrating", "metro_id"]
        );
    }

    #[test]
    fn exists_uncorrelated_cached() {
        let db = hotel_db();
        let r = run(
            &db,
            "SELECT * FROM hotel WHERE EXISTS (SELECT * FROM metroarea WHERE metroid = 1)",
        );
        assert_eq!(r.len(), 3);
        let r = run(
            &db,
            "SELECT * FROM hotel WHERE EXISTS (SELECT * FROM metroarea WHERE metroid = 99)",
        );
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn exists_correlated_by_column() {
        let db = hotel_db();
        let r = run(
            &db,
            "SELECT hotelname FROM hotel \
             WHERE EXISTS (SELECT * FROM confroom WHERE chotel_id = hotelid)",
        );
        assert_eq!(r.len(), 2); // palmer and plaza have conference rooms
    }

    #[test]
    fn exists_correlated_by_param() {
        let db = hotel_db();
        let mut env = ParamEnv::new();
        env.insert(
            "h".into(),
            NamedTuple {
                columns: vec!["hotelid".into()],
                values: vec![Value::Int(10)],
            },
        );
        let r = run_with(
            &db,
            "SELECT * FROM metroarea \
             WHERE EXISTS (SELECT * FROM confroom WHERE chotel_id = $h.hotelid)",
            &env,
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn null_never_equijoins() {
        let mut db = hotel_db();
        db.insert(
            "hotel",
            vec![
                Value::Int(99),
                Value::Str("ghost".into()),
                Value::Int(5),
                Value::Null,
            ],
        )
        .unwrap();
        let r = run(
            &db,
            "SELECT hotelname FROM hotel, metroarea WHERE metro_id = metroid",
        );
        assert_eq!(r.len(), 3); // ghost's NULL metro_id joins nothing
    }

    #[test]
    fn three_way_join() {
        let db = hotel_db();
        let r = run(
            &db,
            "SELECT metroname, hotelname, capacity \
             FROM metroarea, hotel, confroom \
             WHERE metro_id = metroid AND chotel_id = hotelid",
        );
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn ambiguous_column_errors() {
        let mut db = hotel_db();
        db.create_table(
            TableSchema::new("other", vec![ColumnDef::new("hotelid", ColumnType::Int)]).unwrap(),
        );
        db.insert("other", vec![Value::Int(10)]).unwrap();
        let q = parse_query("SELECT hotelid FROM hotel, other WHERE starrating > 0").unwrap();
        assert!(matches!(
            eval_query(&db, &q, &ParamEnv::new()),
            Err(Error::AmbiguousColumn { .. })
        ));
    }

    #[test]
    fn distinct_dedups() {
        let db = hotel_db();
        let r = run(&db, "SELECT DISTINCT starrating FROM hotel");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn arithmetic_in_select() {
        let db = hotel_db();
        let r = run(
            &db,
            "SELECT capacity * 2 AS double FROM confroom WHERE c_id = 100",
        );
        assert_eq!(r.columns, vec!["double"]);
        assert_eq!(r.rows[0][0], Value::Int(600));
    }

    #[test]
    fn aggregate_in_where_rejected() {
        let db = hotel_db();
        let q = parse_query("SELECT * FROM confroom WHERE SUM(capacity) > 1").unwrap();
        assert!(matches!(
            eval_query(&db, &q, &ParamEnv::new()),
            Err(Error::MisplacedAggregate)
        ));
    }

    #[test]
    fn min_max_avg() {
        let db = hotel_db();
        let r = run(
            &db,
            "SELECT MIN(capacity), MAX(capacity), AVG(capacity) FROM confroom",
        );
        assert_eq!(r.rows[0][0], Value::Int(150));
        assert_eq!(r.rows[0][1], Value::Int(500));
        assert_eq!(r.rows[0][2], Value::Float(950.0 / 3.0));
    }

    #[test]
    fn duplicate_alias_rejected() {
        let db = hotel_db();
        let q = parse_query("SELECT * FROM hotel, hotel").unwrap();
        assert!(matches!(
            eval_query(&db, &q, &ParamEnv::new()),
            Err(Error::DuplicateAlias { .. })
        ));
        // Self-join with aliases is fine.
        let r = run(
            &db,
            "SELECT a.hotelid FROM hotel a, hotel b WHERE a.hotelid = b.hotelid",
        );
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn output_columns_static() {
        let db = hotel_db();
        let cat = db.catalog();
        let q = parse_query(
            "SELECT SUM(capacity), TEMP.* FROM confroom, \
             (SELECT * FROM hotel) AS TEMP WHERE chotel_id = TEMP.hotelid",
        )
        .unwrap();
        assert_eq!(
            output_columns(&q, &cat).unwrap(),
            vec!["sum", "hotelid", "hotelname", "starrating", "metro_id"]
        );
        let q = parse_query("SELECT COUNT(a_id), startdate FROM availability").unwrap();
        assert!(output_columns(&q, &cat).is_err()); // unknown table
    }

    #[test]
    fn preserved_derived_table_keeps_unmatched_rows() {
        // `OUTER (…) AS TEMP` — every TEMP row survives; hotels with no
        // conference rooms get NULL aggregates (the empty-group case the
        // composition depends on).
        let db = hotel_db(); // hotel 11 (drake) has a confroom; 13 none
        let r = run(
            &db,
            "SELECT SUM(capacity), TEMP.hotelid \
             FROM confroom, OUTER (SELECT * FROM hotel) AS TEMP \
             WHERE chotel_id = TEMP.hotelid \
             GROUP BY TEMP.hotelid",
        );
        assert_eq!(r.len(), 3); // all three hotels
        let drake_less = r.rows.iter().find(|row| row[1] == Value::Int(11)).unwrap();
        assert_eq!(drake_less[0], Value::Null); // no rooms ⇒ SUM over NULL
        let palmer = r.rows.iter().find(|row| row[1] == Value::Int(10)).unwrap();
        assert_eq!(palmer[0], Value::Int(450));
    }

    #[test]
    fn preserved_respects_own_filters() {
        // Filters on the preserved side apply before padding: filtered-out
        // rows are NOT resurrected.
        let db = hotel_db();
        let r = run(
            &db,
            "SELECT COUNT(c_id), TEMP.hotelid \
             FROM confroom, OUTER (SELECT * FROM hotel WHERE starrating > 4) AS TEMP \
             WHERE chotel_id = TEMP.hotelid \
             GROUP BY TEMP.hotelid",
        );
        // Only the two five-star hotels appear.
        assert_eq!(r.len(), 2);
        let plaza = r.rows.iter().find(|row| row[1] == Value::Int(12)).unwrap();
        assert_eq!(plaza[0], Value::Int(1));
    }

    #[test]
    fn preserved_roundtrips_through_sql_text() {
        let q = parse_query(
            "SELECT * FROM confroom, OUTER (SELECT * FROM hotel) AS TEMP \
             WHERE chotel_id = TEMP.hotelid",
        )
        .unwrap();
        assert!(matches!(
            q.from[1],
            crate::ast::TableRef::Derived {
                preserved: true,
                ..
            }
        ));
        let reparsed = parse_query(&q.to_sql()).unwrap();
        assert_eq!(q, reparsed);
    }

    #[test]
    fn null_arithmetic_and_comparisons() {
        let mut db = hotel_db();
        db.insert(
            "confroom",
            vec![Value::Int(103), Value::Int(10), Value::Null],
        )
        .unwrap();
        // NULL capacity: filtered by comparison, skipped by SUM, kept by
        // IS NULL.
        let r = run(&db, "SELECT * FROM confroom WHERE capacity > 0");
        assert_eq!(r.len(), 3);
        let r = run(&db, "SELECT SUM(capacity) FROM confroom");
        assert_eq!(r.rows[0][0], Value::Int(950));
        let r = run(&db, "SELECT c_id FROM confroom WHERE capacity IS NULL");
        assert_eq!(r.len(), 1);
        let r = run(
            &db,
            "SELECT c_id, capacity + 1 AS inc FROM confroom WHERE c_id = 103",
        );
        assert_eq!(r.rows[0][1], Value::Null);
    }

    fn stats_for(db: &Database, sql: &str, params: &ParamEnv) -> EvalStats {
        let mut stats = EvalStats::default();
        eval_query_stats(
            db,
            &parse_query(sql).unwrap(),
            params,
            EvalOptions::default(),
            &mut stats,
        )
        .unwrap();
        stats
    }

    #[test]
    fn stats_count_scans_and_hash_join() {
        let db = hotel_db();
        let s = stats_for(
            &db,
            "SELECT hotelname, metroname FROM hotel, metroarea WHERE metro_id = metroid",
            &ParamEnv::new(),
        );
        // One query block; 3 hotel rows + 2 metroarea rows scanned; one
        // hash join building on metroarea (2 rows) probed by hotel (3).
        assert_eq!(s.queries, 1);
        assert_eq!(s.rows_scanned, 5);
        assert_eq!(s.hash_join_builds, 1);
        assert_eq!(s.hash_join_build_rows, 2);
        assert_eq!(s.hash_join_probe_rows, 3);
        assert_eq!(s.nested_loop_joins, 0);
        assert_eq!(s.param_queries, 0);
    }

    #[test]
    fn stats_count_nested_loop_fallback() {
        let db = hotel_db();
        let s = stats_for(
            &db,
            "SELECT hotelname, metroname FROM hotel, metroarea",
            &ParamEnv::new(),
        );
        assert_eq!(s.hash_join_builds, 0);
        assert_eq!(s.nested_loop_joins, 1);
        assert_eq!(s.nested_loop_rows, 6); // 3 × 2 cross product
    }

    #[test]
    fn stats_count_group_buckets() {
        let db = hotel_db();
        let s = stats_for(
            &db,
            "SELECT chotel_id, SUM(capacity) FROM confroom GROUP BY chotel_id",
            &ParamEnv::new(),
        );
        assert_eq!(s.group_buckets, 2); // hotels 10 and 12
                                        // Bare aggregate: the implicit single group is still a bucket.
        let s = stats_for(&db, "SELECT SUM(capacity) FROM confroom", &ParamEnv::new());
        assert_eq!(s.group_buckets, 1);
    }

    #[test]
    fn stats_count_correlated_exists_per_row() {
        let db = hotel_db();
        let s = stats_for(
            &db,
            "SELECT hotelname FROM hotel \
             WHERE EXISTS (SELECT * FROM confroom WHERE chotel_id = hotelid)",
            &ParamEnv::new(),
        );
        // Correlated: one EXISTS evaluation per hotel row, each scanning
        // the 3 confroom rows (plus the 3 hotel rows themselves).
        assert_eq!(s.exists_evals, 3);
        assert_eq!(s.exists_cache_hits, 0);
        assert_eq!(s.rows_scanned, 3 + 3 * 3);
        assert_eq!(s.queries, 1 + 3);
    }

    #[test]
    fn stats_count_uncorrelated_exists_cached() {
        let db = hotel_db();
        let s = stats_for(
            &db,
            "SELECT hotelname FROM hotel \
             WHERE EXISTS (SELECT * FROM metroarea WHERE metroid = 1)",
            &ParamEnv::new(),
        );
        // Uncorrelated: evaluated for the first row only, the other two
        // hotel rows are served from the cache.
        assert_eq!(s.exists_evals, 1);
        assert_eq!(s.exists_cache_hits, 2);
        assert_eq!(s.rows_scanned, 3 + 2);
    }

    #[test]
    fn stats_count_param_queries_and_accumulate() {
        let db = hotel_db();
        let mut stats = EvalStats::default();
        let q = parse_query("SELECT * FROM hotel WHERE metro_id = $m.metroid").unwrap();
        for (id, name) in [(1, "chicago"), (2, "nyc")] {
            let env = metro_param(id, name);
            eval_query_stats(&db, &q, &env, EvalOptions::default(), &mut stats).unwrap();
        }
        assert_eq!(stats.param_queries, 2);
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.rows_scanned, 6); // 3 hotel rows per invocation
    }

    #[test]
    fn group_by_null_groups_together() {
        let mut db = hotel_db();
        db.insert(
            "hotel",
            vec![
                Value::Int(98),
                Value::Str("a".into()),
                Value::Int(1),
                Value::Null,
            ],
        )
        .unwrap();
        db.insert(
            "hotel",
            vec![
                Value::Int(97),
                Value::Str("b".into()),
                Value::Int(1),
                Value::Null,
            ],
        )
        .unwrap();
        let r = run(
            &db,
            "SELECT metro_id, COUNT(*) FROM hotel GROUP BY metro_id",
        );
        let null_group = r.rows.iter().find(|r| r[0] == Value::Null).unwrap();
        assert_eq!(null_group[1], Value::Int(2));
    }
}
