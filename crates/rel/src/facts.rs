//! Conjunct-level fact analysis of SELECT queries (§4.2.1).
//!
//! [`analyze_query`] walks a query's FROM/WHERE/HAVING under a
//! [`FactSet`] — a map from column keys to [`ColumnDomain`]s with recorded
//! provenance — seeded from DDL constraints (`NOT NULL` / `PRIMARY KEY`,
//! retained by `ddl.rs`) and from *inherited* facts about `$bv.column`
//! parameters supplied by the caller (the TVQ dataflow pass flows a
//! parent's output-column domains into its descendants). It derives:
//!
//! * **contradictions** — a WHERE/HAVING conjunction provably false under
//!   three-valued logic, with the justifying fact chain;
//! * **emptiness** — whether the query provably yields zero rows (an
//!   implicitly aggregating query still yields one row when its WHERE is
//!   unsatisfiable, so contradiction ≠ emptiness);
//! * **redundant conjuncts** — entailed by inherited/DDL facts or earlier
//!   conjuncts, safe to drop;
//! * **tautological / empty EXISTS** subqueries;
//! * **NULL comparisons** that can never bind a row;
//! * **key-implied duplicate joins** (diagnostic candidates only — never
//!   used for pruning);
//! * **output-column facts**, each name's from its first column, which
//!   [`child_facts`] passes to child TVQ and schema-tree nodes.
//!
//! Column keys are textual and scoped to one query: `alias.column` for
//! resolved table columns, `$bv.column` for parameters, and the rendered
//! SQL text for aggregate expressions (so `HAVING SUM(x) > 100 AND
//! SUM(x) < 50` is recognized as contradictory). EXISTS subqueries get a
//! fresh scope seeded with the parameter facts only.
//!
//! [`query_cardinality`] layers row-count bounds on the same walk. They
//! are reports, and nothing executes from them: `xvc explain --sql`
//! prints one query's bound, `xvc_view::analyze_view_bounds` lifts them
//! over a whole schema tree, and `xvc check` reads both. The planner
//! (`plan.rs`) never consults them.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{BinOp, ScalarExpr, SelectItem, SelectQuery, TableRef};
use crate::domain::{Assumption, Card, CardBound, ColumnDomain};
use crate::schema::Catalog;
use crate::value::Value;

/// One column's accumulated domain plus the human-readable facts that
/// produced it (the *fact chain* justifying any decision based on it).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FactEntry {
    /// The abstract value-set.
    pub domain: ColumnDomain,
    /// One line per fact applied, e.g. `DDL: hotel.hotelid PRIMARY KEY`
    /// or a conjunct reference like `starrating > 4`.
    pub sources: Vec<String>,
}

/// A set of facts: column key → domain + provenance.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FactSet {
    entries: BTreeMap<String, FactEntry>,
}

/// The key under which facts about `$var.column` are stored.
pub fn param_key(var: &str, column: &str) -> String {
    format!("${var}.{column}")
}

impl FactSet {
    /// An empty fact set.
    pub fn new() -> Self {
        FactSet::default()
    }

    /// True if no facts are recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records a whole entry (seeding). An existing entry for the key is
    /// replaced.
    pub fn insert(&mut self, key: impl Into<String>, entry: FactEntry) {
        self.entries.insert(key.into(), entry);
    }

    /// The entry for a key, if any fact is recorded.
    pub fn get(&self, key: &str) -> Option<&FactEntry> {
        self.entries.get(key)
    }

    /// Iterates `(key, entry)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &FactEntry)> {
        self.entries.iter()
    }

    /// The subset of facts about `$bv.column` parameters — the only facts
    /// that remain valid inside a subquery scope.
    pub fn params_only(&self) -> FactSet {
        FactSet {
            entries: self
                .entries
                .iter()
                .filter(|(k, _)| k.starts_with('$'))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Assumes `key op v` TRUE; returns the outcome and, for
    /// `Contradiction`/`Redundant`, the justifying chain.
    fn assume_cmp(&mut self, key: &str, op: BinOp, v: &Value, source: &str) -> Outcome {
        self.assume_with(key, source, |d| d.assume_cmp(op, v))
    }

    fn assume_non_null(&mut self, key: &str, source: &str) -> Outcome {
        self.assume_with(key, source, ColumnDomain::assume_non_null)
    }

    fn assume_null(&mut self, key: &str, source: &str) -> Outcome {
        self.assume_with(key, source, ColumnDomain::assume_null)
    }

    fn assume_with(
        &mut self,
        key: &str,
        source: &str,
        f: impl FnOnce(&mut ColumnDomain) -> Assumption,
    ) -> Outcome {
        let entry = self.entries.entry(key.to_owned()).or_default();
        let prior = entry.sources.clone();
        match f(&mut entry.domain) {
            Assumption::Contradiction => {
                let mut chain = prior;
                chain.push(source.to_owned());
                Outcome {
                    assumption: Assumption::Contradiction,
                    chain,
                }
            }
            Assumption::Redundant => Outcome {
                assumption: Assumption::Redundant,
                chain: prior,
            },
            Assumption::Narrowed => {
                entry.sources.push(source.to_owned());
                Outcome {
                    assumption: Assumption::Narrowed,
                    chain: Vec::new(),
                }
            }
        }
    }
}

struct Outcome {
    assumption: Assumption,
    chain: Vec<String>,
}

/// Which clause a finding is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClauseKind {
    /// The WHERE clause.
    Where,
    /// The HAVING clause.
    Having,
}

/// A provably false conjunct, with the facts that conflict with it.
#[derive(Debug, Clone, PartialEq)]
pub struct Contradiction {
    /// The clause the conjunct sits in.
    pub clause: ClauseKind,
    /// Rendered conjunct.
    pub conjunct: String,
    /// Facts that make it false, oldest first (the chain ends with the
    /// conjunct itself).
    pub chain: Vec<String>,
}

/// A conjunct entailed by the facts in force before it.
#[derive(Debug, Clone, PartialEq)]
pub struct Redundancy {
    /// The clause the conjunct sits in.
    pub clause: ClauseKind,
    /// Index in the flattened conjunct list of that clause (see
    /// [`ScalarExpr::conjuncts`]); used by [`drop_redundant_conjuncts`].
    pub index: usize,
    /// Rendered conjunct.
    pub conjunct: String,
    /// Facts that entail it.
    pub chain: Vec<String>,
    /// True when the conjunct is an `EXISTS` (or `NOT EXISTS`) whose
    /// subquery provably yields rows (resp. none).
    pub tautological_exists: bool,
}

/// Result of [`analyze_query`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryAnalysis {
    /// First provable contradiction, if any.
    pub contradiction: Option<Contradiction>,
    /// The query provably yields zero rows. Not implied by
    /// `contradiction`: an implicitly aggregating query with an
    /// unsatisfiable WHERE still yields one all-NULL row.
    pub empty: bool,
    /// Fact chain justifying `empty`.
    pub empty_chain: Vec<String>,
    /// Conjuncts that can be dropped without changing the result.
    pub redundant: Vec<Redundancy>,
    /// Comparisons that can never bind (NULL literal operand, or
    /// `IS NULL` on a NOT NULL column).
    pub null_compares: Vec<String>,
    /// Key-implied duplicate-join candidates (diagnostic only).
    pub dup_joins: Vec<String>,
    /// Facts about the query's output columns, keyed by output name.
    pub out_facts: BTreeMap<String, FactEntry>,
    /// The `$bv.column` facts in force after the WHERE/HAVING clauses —
    /// the inherited facts, possibly narrowed by this query's conjuncts.
    /// Only populated when no contradiction poisoned the clause walk.
    ///
    /// Narrowed parameter facts hold wherever a *row of this query*
    /// exists, so callers may propagate them to TVQ descendants — but not
    /// for implicitly aggregating queries, which yield a row even when
    /// their WHERE is false for every underlying tuple.
    pub param_facts: FactSet,
}

/// Name-resolution scope of one query: which FROM item provides each
/// column, plus the declaration-ordered column layout (for `*`).
struct Scope {
    providers: BTreeMap<String, Vec<String>>,
    layout: Vec<(String, Vec<String>)>,
    /// Binding name → base-table name, for `Named` FROM items.
    tables: BTreeMap<String, String>,
}

impl Scope {
    fn build(from: &[TableRef], catalog: &Catalog) -> Scope {
        let mut providers: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut layout = Vec::new();
        let mut tables = BTreeMap::new();
        for t in from {
            let binding = t.binding_name().to_owned();
            if let TableRef::Named { name, .. } = t {
                tables.insert(binding.clone(), name.clone());
            }
            let cols = t.columns(&|n| catalog.get(n)).unwrap_or_default();
            for c in &cols {
                providers
                    .entry(c.clone())
                    .or_default()
                    .push(binding.clone());
            }
            layout.push((binding, cols));
        }
        Scope {
            providers,
            layout,
            tables,
        }
    }

    /// Canonical fact key for a column reference.
    fn key_of(&self, qualifier: Option<&str>, name: &str) -> String {
        if let Some(q) = qualifier {
            return format!("{q}.{name}");
        }
        match self.providers.get(name).map(Vec::as_slice) {
            Some([unique]) => format!("{unique}.{name}"),
            _ => name.to_owned(), // ambiguous or unknown: its own bucket
        }
    }
}

fn is_preserved(t: &TableRef) -> bool {
    matches!(
        t,
        TableRef::Derived {
            preserved: true,
            ..
        }
    )
}

/// One side of a comparison conjunct, normalized.
enum Side<'a> {
    /// Column / parameter / aggregate reference: `(fact key, display)`.
    Ref(String, String),
    /// A literal value.
    Lit(&'a Value),
    /// Anything else (arithmetic, OR, nested subquery...).
    Opaque,
}

fn side_of<'a>(e: &'a ScalarExpr, scope: &Scope) -> Side<'a> {
    match e {
        ScalarExpr::Column { qualifier, name } => {
            let key = scope.key_of(qualifier.as_deref(), name);
            Side::Ref(key, e.to_sql_inline())
        }
        ScalarExpr::Param { var, column } => Side::Ref(param_key(var, column), e.to_sql_inline()),
        ScalarExpr::Aggregate { .. } => {
            let text = e.to_sql_inline();
            Side::Ref(text.clone(), text)
        }
        ScalarExpr::Literal(v) => Side::Lit(v),
        _ => Side::Opaque,
    }
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other, // Eq / Ne are symmetric
    }
}

/// Analyzes one query under inherited parameter facts. `inherited` should
/// contain only `$bv.column` keys (anything else is filtered out).
pub fn analyze_query(q: &SelectQuery, catalog: &Catalog, inherited: &FactSet) -> QueryAnalysis {
    let mut a = QueryAnalysis::default();
    let scope = Scope::build(&q.from, catalog);
    let mut facts = inherited.params_only();
    let any_preserved = q.from.iter().any(is_preserved);

    // Seed facts from the FROM clause: DDL constraints for base tables,
    // recursive analysis for derived tables. When some *other* FROM item
    // has preserved (left-outer) semantics, this item's columns may be
    // NULL-padded, so its non-NULL facts are weakened.
    for t in &q.from {
        let binding = t.binding_name().to_owned();
        let padded = any_preserved && !is_preserved(t);
        match t {
            TableRef::Named { name, .. } => {
                if let Ok(schema) = catalog.get(name) {
                    for col in &schema.columns {
                        if col.rejects_null() && !padded {
                            let kind = if col.primary_key {
                                "PRIMARY KEY"
                            } else {
                                "NOT NULL"
                            };
                            facts.insert(
                                format!("{binding}.{}", col.name),
                                FactEntry {
                                    domain: ColumnDomain::not_null(),
                                    sources: vec![format!("DDL: {}.{} {kind}", name, col.name)],
                                },
                            );
                        }
                    }
                }
            }
            TableRef::Derived {
                query, preserved, ..
            } => {
                let sub = analyze_query(query, catalog, &facts);
                if sub.empty && (*preserved || !any_preserved) && !a.empty {
                    a.empty = true;
                    a.empty_chain = std::iter::once(format!(
                        "derived table `{binding}` provably yields no rows"
                    ))
                    .chain(sub.empty_chain.iter().cloned())
                    .collect();
                }
                for (col, entry) in &sub.out_facts {
                    let mut domain = entry.domain.clone();
                    if padded {
                        domain.non_null = false;
                        domain.null_only = false;
                    }
                    if !domain.is_top() {
                        facts.insert(
                            format!("{binding}.{col}"),
                            FactEntry {
                                domain,
                                sources: entry.sources.clone(),
                            },
                        );
                    }
                }
            }
        }
    }

    // Preserved (`OUTER`) padding re-adds baseline rows that never
    // satisfied the WHERE clause, so conjunct-narrowed facts hold only for
    // *matched* rows, not for everything the block emits. Snapshot the
    // seed-time facts (DDL + derived-table facts, already weakened for
    // padded items above): they are the strongest statements that survive
    // padding, and the only ones safe to export from this block.
    let seed_facts = if any_preserved {
        Some(facts.clone())
    } else {
        None
    };

    // WHERE conjuncts.
    if let Some(w) = &q.where_clause {
        analyze_clause(ClauseKind::Where, w, &scope, catalog, &mut facts, &mut a);
    }

    let implicit_agg = q.is_aggregating() && q.group_by.is_empty();

    // HAVING conjuncts, over the same fact set (group columns keep their
    // WHERE-level facts; aggregates get their own keys). Every group of a
    // grouped query holds at least one row.
    if a.contradiction.is_none() {
        if let Some(h) = &q.having {
            if !q.group_by.is_empty() {
                facts.insert(
                    ScalarExpr::Aggregate {
                        func: crate::ast::AggFunc::Count,
                        arg: None,
                    }
                    .to_sql_inline(),
                    FactEntry {
                        domain: ColumnDomain {
                            lo: Some((Value::Int(1), true)),
                            non_null: true,
                            ..ColumnDomain::default()
                        },
                        sources: vec!["every group contains at least one row".to_owned()],
                    },
                );
            }
            analyze_clause(ClauseKind::Having, h, &scope, catalog, &mut facts, &mut a);
        }
    }

    // Emptiness: a false WHERE kills every row unless the query is an
    // implicit (ungrouped) aggregation, which still yields one row — or a
    // preserved FROM item pads its baseline back in regardless of the
    // filter, in which case the block is non-empty whenever the baseline
    // is (unknowable statically); a false HAVING filters even that group
    // out in either case.
    if !a.empty {
        if let Some(c) = &a.contradiction {
            let dead = match c.clause {
                ClauseKind::Where => !implicit_agg && !any_preserved,
                ClauseKind::Having => true,
            };
            if dead {
                a.empty = true;
                a.empty_chain = c.chain.clone();
                if a.empty_chain.last() != Some(&c.conjunct) {
                    a.empty_chain.push(c.conjunct.clone());
                }
            }
        }
    }

    // Output-column facts (only when the query can actually yield rows —
    // callers prune empty nodes before propagating). Under preserved
    // padding, export the seed-time snapshot: padded rows bypass the
    // WHERE clause, so conjunct-narrowed column facts (and narrowed
    // parameter facts) do not hold for every emitted row.
    if a.contradiction.is_none() || any_preserved {
        let export = seed_facts.as_ref().unwrap_or(&facts);
        collect_out_facts(q, &scope, export, &mut a.out_facts);
        a.param_facts = export.params_only();
    }
    a
}

/// One step of the fact flow down a TVQ or schema tree: the facts a
/// node's children run under. The node's tag query (`query`, with its
/// analysis), when it is neither implicitly aggregating nor contradicted,
/// passes on its narrowed parameter facts plus its output facts as
/// `$bv.*`; else an emission guard's analysis (`guard`, of its
/// [`SelectQuery::guard_probe`]), when the guard held, passes on its
/// narrowed parameter facts. `None` when neither does: the children run
/// under the node's own facts.
///
/// An implicitly aggregating query yields its one row even when its
/// WHERE holds for no tuple, so nothing it narrowed holds below it.
pub fn child_facts(
    query: Option<(&SelectQuery, &QueryAnalysis)>,
    bv: &str,
    guard: Option<&QueryAnalysis>,
) -> Option<FactSet> {
    if let Some((q, a)) = query {
        let implicit_agg = q.is_aggregating() && q.group_by.is_empty();
        if !implicit_agg && a.contradiction.is_none() {
            let mut next = a.param_facts.clone();
            if !bv.is_empty() {
                for (col, entry) in &a.out_facts {
                    next.insert(param_key(bv, col), entry.clone());
                }
            }
            return Some(next);
        }
    }
    guard
        .filter(|g| g.contradiction.is_none())
        .map(|g| g.param_facts.clone())
}

/// Exports each output name's facts from its first column only, the one
/// attribute `$bv.name` reads ([`SelectQuery::published`]): a first
/// column with no facts hides the facts of a later namesake.
fn collect_out_facts(
    q: &SelectQuery,
    scope: &Scope,
    facts: &FactSet,
    out: &mut BTreeMap<String, FactEntry>,
) {
    let mut seen = BTreeSet::new();
    let mut push = |name: &str, entry: Option<FactEntry>| {
        if seen.insert(name.to_owned()) {
            if let Some(e) = entry.filter(|e| !e.domain.is_top()) {
                out.insert(name.to_owned(), e);
            }
        }
    };
    for (idx, item) in q.select.iter().enumerate() {
        let covered: Vec<&(String, Vec<String>)> = match item {
            SelectItem::Expr { expr, alias } => {
                // A column carries its facts; a literal only when aliased.
                let entry = match expr {
                    ScalarExpr::Column { qualifier, name } => facts
                        .get(&scope.key_of(qualifier.as_deref(), name))
                        .cloned(),
                    ScalarExpr::Literal(v) if !v.is_null() && alias.is_some() => Some(FactEntry {
                        domain: ColumnDomain {
                            eq: Some(v.clone()),
                            non_null: true,
                            ..ColumnDomain::default()
                        },
                        sources: vec![format!("selected literal {}", v.render())],
                    }),
                    _ => None,
                };
                if let Some(name) = item.name(idx) {
                    push(&name, entry);
                }
                continue;
            }
            SelectItem::Star => scope.layout.iter().collect(),
            SelectItem::QualifiedStar(binding) => scope
                .layout
                .iter()
                .find(|(b, _)| b == binding)
                .into_iter()
                .collect(),
        };
        for (binding, cols) in covered {
            for col in cols {
                push(col, facts.get(&format!("{binding}.{col}")).cloned());
            }
        }
    }
}

#[allow(clippy::too_many_lines)]
fn analyze_clause(
    clause: ClauseKind,
    pred: &ScalarExpr,
    scope: &Scope,
    catalog: &Catalog,
    facts: &mut FactSet,
    a: &mut QueryAnalysis,
) {
    for (index, conjunct) in pred.conjuncts().into_iter().enumerate() {
        if a.contradiction.is_some() {
            return; // facts after a contradiction are meaningless
        }
        let display = conjunct.to_sql_inline();
        let source = format!("conjunct `{display}`");
        let mut contradiction = |chain: Vec<String>, a: &mut QueryAnalysis| {
            a.contradiction = Some(Contradiction {
                clause,
                conjunct: display.clone(),
                chain,
            });
        };
        let redundancy = |chain: Vec<String>, tautological_exists: bool| Redundancy {
            clause,
            index,
            conjunct: display.clone(),
            chain,
            tautological_exists,
        };
        match conjunct {
            ScalarExpr::Literal(v) => {
                if v.is_truthy() {
                    a.redundant
                        .push(redundancy(vec!["the literal is TRUE".to_owned()], false));
                } else {
                    contradiction(vec!["the literal is never TRUE".to_owned()], a);
                }
            }
            ScalarExpr::Binary { op, lhs, rhs } if op.is_comparison() => {
                let (lhs_side, rhs_side) = (side_of(lhs, scope), side_of(rhs, scope));
                match (lhs_side, rhs_side) {
                    (Side::Ref(_, _), Side::Lit(v)) | (Side::Lit(v), Side::Ref(_, _))
                        if v.is_null() =>
                    {
                        a.null_compares
                            .push(format!("`{display}`: comparison with NULL is never TRUE"));
                        contradiction(vec!["comparison with NULL is never TRUE".to_owned()], a);
                    }
                    (Side::Ref(key, _), Side::Lit(v)) => {
                        apply_cmp(
                            facts,
                            &key,
                            *op,
                            v,
                            &source,
                            &redundancy,
                            &mut contradiction,
                            a,
                        );
                    }
                    (Side::Lit(v), Side::Ref(key, _)) => {
                        apply_cmp(
                            facts,
                            &key,
                            flip(*op),
                            v,
                            &source,
                            &redundancy,
                            &mut contradiction,
                            a,
                        );
                    }
                    (Side::Lit(l), Side::Lit(r)) => match l.sql_cmp(r) {
                        Some(ord) => {
                            let holds = match op {
                                BinOp::Eq => ord == std::cmp::Ordering::Equal,
                                BinOp::Ne => ord != std::cmp::Ordering::Equal,
                                BinOp::Lt => ord == std::cmp::Ordering::Less,
                                BinOp::Le => ord != std::cmp::Ordering::Greater,
                                BinOp::Gt => ord == std::cmp::Ordering::Greater,
                                BinOp::Ge => ord != std::cmp::Ordering::Less,
                                _ => return,
                            };
                            if holds {
                                a.redundant.push(redundancy(
                                    vec!["both operands are constants".to_owned()],
                                    false,
                                ));
                            } else {
                                contradiction(vec!["both operands are constants".to_owned()], a);
                            }
                        }
                        None => {
                            a.null_compares
                                .push(format!("`{display}`: comparison with NULL is never TRUE"));
                            contradiction(vec!["comparison with NULL is never TRUE".to_owned()], a);
                        }
                    },
                    (Side::Ref(k1, d1), Side::Ref(k2, d2)) => {
                        // Both referenced values must be non-NULL for the
                        // comparison to be TRUE.
                        for k in [&k1, &k2] {
                            let o = facts.assume_non_null(k, &source);
                            if o.assumption == Assumption::Contradiction {
                                contradiction(o.chain, a);
                                return;
                            }
                        }
                        if *op == BinOp::Eq {
                            record_dup_join(&k1, &k2, scope, catalog, &display, a);
                            // `a = b` with both pinned to the same constant
                            // is redundant; cross-propagate domains so a
                            // parent's fact can contradict a grandchild's.
                            let (e1, e2) = (facts.get(&k1).cloned(), facts.get(&k2).cloned());
                            if let (Some(e1), Some(e2)) = (&e1, &e2) {
                                if let (Some(v1), Some(v2)) = (&e1.domain.eq, &e2.domain.eq) {
                                    if v1.sql_eq(v2) == Some(true) {
                                        let mut chain = e1.sources.clone();
                                        chain.extend(e2.sources.clone());
                                        a.redundant.push(redundancy(chain, false));
                                        continue;
                                    }
                                }
                            }
                            for (from, to, from_disp) in [(&e1, &k2, &d1), (&e2, &k1, &d2)] {
                                if let Some(entry) = from {
                                    if let Some(chain) =
                                        cross_assume(facts, entry, to, &display, from_disp)
                                    {
                                        contradiction(chain, a);
                                        return;
                                    }
                                }
                            }
                        }
                    }
                    _ => {} // opaque operand: no facts
                }
            }
            ScalarExpr::IsNull(inner) => match side_of(inner, scope) {
                Side::Ref(key, _) => {
                    let o = facts.assume_null(&key, &source);
                    match o.assumption {
                        Assumption::Contradiction => {
                            a.null_compares
                                .push(format!("`{display}`: the operand is provably NOT NULL"));
                            contradiction(o.chain, a);
                        }
                        Assumption::Redundant => a.redundant.push(redundancy(o.chain, false)),
                        Assumption::Narrowed => {}
                    }
                }
                Side::Lit(v) if v.is_null() => {
                    a.redundant
                        .push(redundancy(vec!["NULL IS NULL is TRUE".to_owned()], false));
                }
                Side::Lit(_) => {
                    contradiction(vec!["the operand is a non-NULL literal".to_owned()], a);
                }
                Side::Opaque => {}
            },
            ScalarExpr::Not(inner) => match &**inner {
                ScalarExpr::IsNull(e) => {
                    if let Side::Ref(key, _) = side_of(e, scope) {
                        let o = facts.assume_non_null(&key, &source);
                        match o.assumption {
                            Assumption::Contradiction => contradiction(o.chain, a),
                            Assumption::Redundant => a.redundant.push(redundancy(o.chain, false)),
                            Assumption::Narrowed => {}
                        }
                    }
                }
                ScalarExpr::Exists(sub) => {
                    let sub_a = analyze_query(sub, catalog, &facts.params_only());
                    if sub_a.empty {
                        let mut chain =
                            vec!["NOT EXISTS over a provably empty subquery is TRUE".to_owned()];
                        chain.extend(sub_a.empty_chain);
                        a.redundant.push(redundancy(chain, true));
                    } else if is_tautological(sub, &sub_a) {
                        contradiction(
                            vec!["the EXISTS subquery provably yields a row".to_owned()],
                            a,
                        );
                    }
                }
                ScalarExpr::Literal(v) => {
                    if v.is_truthy() || v.is_null() {
                        contradiction(vec!["NOT of the literal is never TRUE".to_owned()], a);
                    } else {
                        a.redundant.push(redundancy(
                            vec!["NOT of the literal is TRUE".to_owned()],
                            false,
                        ));
                    }
                }
                _ => {}
            },
            ScalarExpr::Exists(sub) => {
                let sub_a = analyze_query(sub, catalog, &facts.params_only());
                if sub_a.empty {
                    let mut chain = vec!["the EXISTS subquery provably yields no rows".to_owned()];
                    chain.extend(sub_a.empty_chain);
                    contradiction(chain, a);
                } else if is_tautological(sub, &sub_a) {
                    a.redundant.push(redundancy(
                        vec!["the EXISTS subquery provably yields a row".to_owned()],
                        true,
                    ));
                }
            }
            _ => {} // OR / arithmetic / other: opaque
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn apply_cmp(
    facts: &mut FactSet,
    key: &str,
    op: BinOp,
    v: &Value,
    source: &str,
    redundancy: &impl Fn(Vec<String>, bool) -> Redundancy,
    contradiction: &mut impl FnMut(Vec<String>, &mut QueryAnalysis),
    a: &mut QueryAnalysis,
) {
    let o = facts.assume_cmp(key, op, v, source);
    match o.assumption {
        Assumption::Contradiction => contradiction(o.chain, a),
        Assumption::Redundant => a.redundant.push(redundancy(o.chain, false)),
        Assumption::Narrowed => {}
    }
}

/// Copies one entry's equality/interval facts onto another key (used for
/// `a = b` conjuncts). Returns the contradiction chain if the target's
/// domain conflicts.
fn cross_assume(
    facts: &mut FactSet,
    from: &FactEntry,
    to: &str,
    conjunct: &str,
    from_display: &str,
) -> Option<Vec<String>> {
    let via = |what: &str| {
        format!(
            "`{conjunct}` with {what} of `{from_display}` ({})",
            from.sources.join("; ")
        )
    };
    let d = &from.domain;
    let mut steps: Vec<(BinOp, Value, String)> = Vec::new();
    if let Some(v) = &d.eq {
        steps.push((BinOp::Eq, v.clone(), via("the known value")));
    }
    if let Some((v, inc)) = &d.lo {
        steps.push((
            if *inc { BinOp::Ge } else { BinOp::Gt },
            v.clone(),
            via("the lower bound"),
        ));
    }
    if let Some((v, inc)) = &d.hi {
        steps.push((
            if *inc { BinOp::Le } else { BinOp::Lt },
            v.clone(),
            via("the upper bound"),
        ));
    }
    for (op, v, source) in steps {
        let o = facts.assume_cmp(to, op, &v, &source);
        if o.assumption == Assumption::Contradiction {
            return Some(o.chain);
        }
    }
    None
}

/// Records an XVC406 candidate: the same base table twice in FROM, joined
/// by equality on its single-column primary key.
fn record_dup_join(
    k1: &str,
    k2: &str,
    scope: &Scope,
    catalog: &Catalog,
    display: &str,
    a: &mut QueryAnalysis,
) {
    let split = |k: &str| -> Option<(String, String)> {
        if k.starts_with('$') {
            return None;
        }
        let (b, c) = k.split_once('.')?;
        Some((b.to_owned(), c.to_owned()))
    };
    let (Some((b1, c1)), Some((b2, c2))) = (split(k1), split(k2)) else {
        return;
    };
    if b1 == b2 || c1 != c2 {
        return;
    }
    let (Some(t1), Some(t2)) = (scope.tables.get(&b1), scope.tables.get(&b2)) else {
        return;
    };
    if t1 != t2 {
        return;
    }
    let Ok(schema) = catalog.get(t1) else { return };
    let pk = schema.primary_key();
    if pk.len() == 1 && pk[0] == c1 {
        a.dup_joins.push(format!(
            "`{display}`: FROM items `{b1}` and `{b2}` are both table `{t1}` equated on its \
             primary key `{c1}`; every match is the same row, so one join is removable"
        ));
    }
}

/// True when the EXISTS subquery provably yields at least one row for
/// every parameter valuation satisfying the inherited facts.
fn is_tautological(sub: &SelectQuery, sub_a: &QueryAnalysis) -> bool {
    if sub_a.contradiction.is_some() || sub_a.empty {
        return false;
    }
    // An implicit (ungrouped) aggregation without HAVING always yields
    // exactly one row.
    if sub.is_aggregating() && sub.group_by.is_empty() && sub.having.is_none() {
        return true;
    }
    // `SELECT 1` over an empty FROM (produced by NEST for literal branch
    // nodes) yields one pseudo-row; it survives iff every conjunct is
    // provably TRUE.
    if sub.from.is_empty() && !sub.is_aggregating() {
        return match &sub.where_clause {
            None => true,
            Some(w) => sub_a.redundant.len() == w.conjuncts().len(),
        };
    }
    false
}

/// Result of [`query_cardinality`]: the cardinality half of the abstract
/// domain, layered on the same conjunct walk as [`analyze_query`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryCardinality {
    /// Bound on the whole query's row count for one valuation of its
    /// `$bv.column` parameters, with the justifying fact chain.
    pub total: CardBound,
    /// Per-FROM-item bound, same order as `q.from`: rows the item can
    /// contribute for *fixed* rows of every other item. The product of
    /// these (times the aggregate rule) is `total`.
    pub per_item: Vec<Card>,
    /// FROM bindings at index > 0 with no equality link to any other item
    /// and no pinning predicate: cross-product candidates.
    pub cross_joins: Vec<String>,
    /// The [`analyze_query`] result the bounds were derived from, so a
    /// caller that also needs the query's facts analyzes it once.
    pub analysis: QueryAnalysis,
}

/// Convenience wrapper: just the whole-query bound.
pub fn bound_query(q: &SelectQuery, catalog: &Catalog, inherited: &FactSet) -> CardBound {
    query_cardinality(q, catalog, inherited).total
}

/// Derives a static row-count bound for `q` under inherited parameter
/// facts, from `PRIMARY KEY` constraints and equality pushdowns:
///
/// * a FROM item whose full primary key is equated to literals,
///   parameters or other items' columns contributes at most one row;
/// * joins compose bounds multiplicatively;
/// * an implicitly aggregating query yields exactly one row;
/// * a query [`analyze_query`] proves empty yields zero.
///
/// The bound is an over-approximation (never an undercount): secondary
/// indexes are not unique and contribute nothing here.
pub fn query_cardinality(
    q: &SelectQuery,
    catalog: &Catalog,
    inherited: &FactSet,
) -> QueryCardinality {
    let a = analyze_query(q, catalog, inherited);
    let scope = Scope::build(&q.from, catalog);
    let bindings: BTreeSet<String> = q.from.iter().map(|t| t.binding_name().to_owned()).collect();

    // Which item a fact key `binding.col` belongs to, if any.
    let item_of = |key: &str| -> Option<(String, String)> {
        if key.starts_with('$') {
            return None;
        }
        let (b, c) = key.split_once('.')?;
        bindings.contains(b).then(|| (b.to_owned(), c.to_owned()))
    };

    // Equality conjuncts, classified once: for every item, the set of its
    // columns equated to a value fixed per-row-of-the-other-items, and
    // whether the item has any equality link to another item at all.
    let mut pinned: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
    let mut linked: BTreeSet<String> = BTreeSet::new();
    for c in q.where_clause.iter().flat_map(ScalarExpr::conjuncts) {
        let ScalarExpr::Binary {
            op: BinOp::Eq,
            lhs,
            rhs,
        } = c
        else {
            continue;
        };
        let display = c.to_sql_inline();
        let sides = (side_of(lhs, &scope), side_of(rhs, &scope));
        let (l, r) = match &sides {
            (Side::Ref(l, _), Side::Ref(r, _)) => (Some(l.as_str()), Some(r.as_str())),
            (Side::Ref(l, _), Side::Lit(_)) => (Some(l.as_str()), None),
            (Side::Lit(_), Side::Ref(r, _)) => (None, Some(r.as_str())),
            _ => continue,
        };
        let (li, ri) = (l.and_then(item_of), r.and_then(item_of));
        // Literal / parameter / other-item column on the far side pins;
        // a column of the same item does not.
        let mut pin = |side: &Option<(String, String)>, other: &Option<(String, String)>| {
            if let Some((b, col)) = side {
                let other_binding = other.as_ref().map(|(ob, _)| ob);
                if other_binding != Some(b) {
                    pinned
                        .entry(b.clone())
                        .or_default()
                        .entry(col.clone())
                        .or_insert_with(|| display.clone());
                }
                if let Some(ob) = other_binding {
                    if ob != b {
                        linked.insert(b.clone());
                        linked.insert(ob.clone());
                    }
                }
            }
        };
        pin(&li, &ri);
        pin(&ri, &li);
    }

    // Per-item bounds.
    let mut per_item = Vec::with_capacity(q.from.len());
    let mut chain = Vec::new();
    let mut cross_joins = Vec::new();
    for (idx, t) in q.from.iter().enumerate() {
        let binding = t.binding_name().to_owned();
        let card = match t {
            TableRef::Named { name, .. } => {
                let pk: Vec<String> = catalog
                    .get(name)
                    .map(|s| s.primary_key().iter().map(|c| (*c).to_owned()).collect())
                    .unwrap_or_default();
                match pinned.get(&binding) {
                    Some(pins) if !pk.is_empty() && pk.iter().all(|c| pins.contains_key(c)) => {
                        for c in &pk {
                            chain.push(format!("DDL: {name}.{c} PRIMARY KEY"));
                            chain.push(format!("conjunct `{}` pins {binding}.{c}", pins[c]));
                        }
                        Card::AtMostOne
                    }
                    _ => Card::Unbounded,
                }
            }
            TableRef::Derived { query, .. } => {
                let sub = query_cardinality(query, catalog, &inherited.params_only());
                if sub.total.card != Card::Unbounded {
                    chain.push(format!(
                        "derived table `{binding}` yields {}",
                        sub.total.card
                    ));
                    chain.extend(sub.total.chain);
                }
                sub.total.card
            }
        };
        if idx > 0 && !linked.contains(&binding) && !card.at_most_one() {
            cross_joins.push(binding);
        }
        per_item.push(card);
    }

    // Whole-query bound: emptiness and the implicit-aggregate rule beat
    // the pipeline product.
    let total = if a.empty {
        CardBound::new(Card::Zero, a.empty_chain.clone())
    } else if q.is_aggregating() && q.group_by.is_empty() {
        CardBound::new(
            Card::AtMostOne,
            vec!["implicit aggregation yields exactly one row".to_owned()],
        )
    } else {
        let mut card = Card::AtMostOne; // empty FROM: one probe row
        if q.from.is_empty() {
            chain.push("empty FROM yields exactly one probe row".to_owned());
        }
        for &c in &per_item {
            card = card.times(c);
        }
        if card == Card::Unbounded {
            chain.clear();
        }
        CardBound::new(card, chain)
    };
    QueryCardinality {
        total,
        per_item,
        cross_joins,
        analysis: a,
    }
}

/// Drops the conjuncts `analysis` proved redundant from `q`'s WHERE and
/// HAVING clauses; returns how many were eliminated. `analysis` must come
/// from [`analyze_query`] on this exact query.
pub fn drop_redundant_conjuncts(q: &mut SelectQuery, analysis: &QueryAnalysis) -> usize {
    if analysis.contradiction.is_some() {
        return 0; // facts past a contradiction are unreliable
    }
    let mut eliminated = 0;
    for clause in [ClauseKind::Where, ClauseKind::Having] {
        let drops: BTreeSet<usize> = analysis
            .redundant
            .iter()
            .filter(|r| r.clause == clause && !r.conjunct.is_empty())
            .map(|r| r.index)
            .collect();
        if drops.is_empty() {
            continue;
        }
        let slot = match clause {
            ClauseKind::Where => &mut q.where_clause,
            ClauseKind::Having => &mut q.having,
        };
        let Some(pred) = slot.take() else { continue };
        let parts = pred.into_conjuncts();
        let total = parts.len();
        let kept: Vec<ScalarExpr> = parts
            .into_iter()
            .enumerate()
            .filter(|(i, _)| !drops.contains(i))
            .map(|(_, e)| e)
            .collect();
        eliminated += total - kept.len();
        *slot = ScalarExpr::conjoin(kept);
    }
    eliminated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_query;
    use crate::schema::{ColumnDef, ColumnType, TableSchema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add(
            TableSchema::new(
                "hotel",
                vec![
                    ColumnDef::new("hotelid", ColumnType::Int).primary_key(),
                    ColumnDef::new("starrating", ColumnType::Int),
                    ColumnDef::new("metro_id", ColumnType::Int),
                    ColumnDef::new("city", ColumnType::Str),
                ],
            )
            .unwrap(),
        );
        c
    }

    fn analyze(sql: &str) -> QueryAnalysis {
        analyze_query(&parse_query(sql).unwrap(), &catalog(), &FactSet::new())
    }

    #[test]
    fn detects_interval_contradiction() {
        let a = analyze("SELECT * FROM hotel WHERE starrating > 4 AND starrating < 3");
        let c = a.contradiction.expect("contradiction");
        assert_eq!(c.clause, ClauseKind::Where);
        assert!(c.conjunct.contains("starrating < 3"), "{c:?}");
        assert!(a.empty);
        assert!(!a.empty_chain.is_empty());
    }

    #[test]
    fn implicit_aggregation_is_not_empty() {
        // One NULL-aggregate row still comes out (§4.2 OUTER semantics
        // depend on this).
        let a = analyze("SELECT SUM(starrating) FROM hotel WHERE 1 = 2");
        assert!(a.contradiction.is_some());
        assert!(!a.empty);
        // ... but a grouped query with a false WHERE is empty.
        let a = analyze("SELECT city, SUM(starrating) FROM hotel WHERE 1 = 2 GROUP BY city");
        assert!(a.empty);
    }

    #[test]
    fn having_contradiction_empties_even_implicit_groups() {
        let a = analyze(
            "SELECT SUM(starrating) FROM hotel HAVING SUM(starrating) > 100 AND SUM(starrating) < 50",
        );
        let c = a.contradiction.as_ref().expect("contradiction");
        assert_eq!(c.clause, ClauseKind::Having);
        assert!(a.empty);
    }

    #[test]
    fn grouped_count_star_is_at_least_one() {
        let a = analyze("SELECT city FROM hotel GROUP BY city HAVING COUNT(*) >= 1");
        assert_eq!(a.redundant.len(), 1, "{a:?}");
        let a = analyze("SELECT city FROM hotel GROUP BY city HAVING COUNT(*) < 1");
        assert!(a.empty, "{a:?}");
    }

    #[test]
    fn duplicate_conjunct_is_redundant_and_droppable() {
        let mut q = parse_query(
            "SELECT * FROM hotel WHERE starrating > 4 AND metro_id = 1 AND starrating > 4",
        )
        .unwrap();
        let a = analyze_query(&q, &catalog(), &FactSet::new());
        assert_eq!(a.redundant.len(), 1, "{a:?}");
        assert_eq!(a.redundant[0].index, 2);
        assert_eq!(drop_redundant_conjuncts(&mut q, &a), 1);
        let w = q.where_clause.as_ref().unwrap();
        assert_eq!(w.conjuncts().len(), 2);
        // Second pass: nothing left to drop.
        let a2 = analyze_query(&q, &catalog(), &FactSet::new());
        assert!(a2.redundant.is_empty());
    }

    #[test]
    fn inherited_param_fact_contradicts_conjunct() {
        let mut inherited = FactSet::new();
        let mut domain = ColumnDomain::default();
        domain.assume_cmp(BinOp::Gt, &Value::Int(4));
        inherited.insert(
            param_key("h", "starrating"),
            FactEntry {
                domain,
                sources: vec!["conjunct `starrating > 4` (ancestor `hotel`)".to_owned()],
            },
        );
        let q = parse_query("SELECT * FROM hotel WHERE $h.starrating < 3").unwrap();
        let a = analyze_query(&q, &catalog(), &inherited);
        let c = a.contradiction.expect("contradiction");
        assert!(
            c.chain.iter().any(|s| s.contains("ancestor")),
            "chain should cite the inherited fact: {c:?}"
        );
    }

    #[test]
    fn equality_propagates_across_join() {
        // $m.metroid = 5 inherited; metro_id = $m.metroid AND metro_id = 7
        // is contradictory.
        let mut inherited = FactSet::new();
        let mut domain = ColumnDomain::default();
        domain.assume_cmp(BinOp::Eq, &Value::Int(5));
        inherited.insert(
            param_key("m", "metroid"),
            FactEntry {
                domain,
                sources: vec!["parent pins metroid = 5".to_owned()],
            },
        );
        let q = parse_query("SELECT * FROM hotel WHERE metro_id = $m.metroid AND metro_id = 7")
            .unwrap();
        let a = analyze_query(&q, &catalog(), &inherited);
        assert!(a.contradiction.is_some(), "{a:?}");
    }

    #[test]
    fn null_literal_comparison_never_binds() {
        let a = analyze("SELECT * FROM hotel WHERE starrating = NULL");
        assert_eq!(a.null_compares.len(), 1, "{a:?}");
        assert!(a.empty);
    }

    #[test]
    fn is_null_on_key_column_never_binds() {
        let a = analyze("SELECT * FROM hotel WHERE hotelid IS NULL");
        assert!(a.contradiction.is_some(), "{a:?}");
        assert_eq!(a.null_compares.len(), 1);
        let c = a.contradiction.unwrap();
        assert!(
            c.chain.iter().any(|s| s.contains("PRIMARY KEY")),
            "chain cites the DDL fact: {c:?}"
        );
    }

    #[test]
    fn ddl_fact_makes_not_null_check_redundant() {
        let a = analyze("SELECT * FROM hotel WHERE NOT hotelid IS NULL");
        assert_eq!(a.redundant.len(), 1, "{a:?}");
        assert!(a.redundant[0].chain[0].contains("PRIMARY KEY"));
    }

    #[test]
    fn empty_exists_kills_the_query() {
        let a = analyze(
            "SELECT * FROM hotel WHERE EXISTS \
             (SELECT 1 FROM hotel WHERE starrating > 4 AND starrating < 3)",
        );
        assert!(a.empty, "{a:?}");
    }

    /// `SELECT * FROM hotel WHERE [NOT] EXISTS (SELECT 1)` — the empty-FROM
    /// subquery NEST generates for literal branch nodes (only constructible
    /// through the AST; the text parser requires FROM).
    fn exists_select1(negate: bool) -> SelectQuery {
        let sub = SelectQuery::new(vec![SelectItem::expr(ScalarExpr::int(1))], vec![]);
        let pred = ScalarExpr::Exists(Box::new(sub));
        let pred = if negate {
            ScalarExpr::Not(Box::new(pred))
        } else {
            pred
        };
        let mut q = parse_query("SELECT * FROM hotel").unwrap();
        q.and_where(pred);
        q
    }

    #[test]
    fn tautological_exists_is_redundant() {
        // NEST's literal-branch guard: SELECT 1 with empty FROM.
        let mut q = exists_select1(false);
        let a = analyze_query(&q, &catalog(), &FactSet::new());
        assert_eq!(a.redundant.len(), 1, "{a:?}");
        assert!(a.redundant[0].tautological_exists);
        assert_eq!(drop_redundant_conjuncts(&mut q, &a), 1);
        assert!(q.where_clause.is_none());

        // An implicit aggregation always yields one row.
        let a = analyze("SELECT * FROM hotel WHERE EXISTS (SELECT SUM(starrating) FROM hotel)");
        assert_eq!(a.redundant.len(), 1, "{a:?}");
        assert!(a.redundant[0].tautological_exists);
    }

    #[test]
    fn not_exists_inverts() {
        let a = analyze(
            "SELECT * FROM hotel WHERE NOT EXISTS \
             (SELECT 1 FROM hotel WHERE starrating > 4 AND starrating < 3)",
        );
        assert_eq!(a.redundant.len(), 1, "{a:?}");
        let q = exists_select1(true);
        let a = analyze_query(&q, &catalog(), &FactSet::new());
        assert!(a.contradiction.is_some(), "{a:?}");
        assert!(a.empty, "{a:?}");
    }

    #[test]
    fn empty_derived_table_empties_the_outer_query() {
        let a = analyze(
            "SELECT * FROM (SELECT * FROM hotel WHERE starrating > 4 AND starrating < 3) AS t",
        );
        assert!(a.empty, "{a:?}");
        assert!(a.empty_chain[0].contains("derived table"), "{a:?}");
    }

    #[test]
    fn dup_join_candidate_detected() {
        let mut c = catalog();
        c.add(TableSchema::new("h2", vec![ColumnDef::new("x", ColumnType::Int)]).unwrap());
        let q =
            parse_query("SELECT a.city FROM hotel AS a, hotel AS b WHERE a.hotelid = b.hotelid")
                .unwrap();
        let a = analyze_query(&q, &c, &FactSet::new());
        assert_eq!(a.dup_joins.len(), 1, "{a:?}");
    }

    #[test]
    fn out_facts_cover_stars_aliases_and_literals() {
        let a = analyze("SELECT *, 7 AS seven FROM hotel WHERE starrating > 4");
        let sr = a.out_facts.get("starrating").expect("starrating fact");
        assert!(sr.domain.lo.is_some() && sr.domain.non_null);
        assert!(a.out_facts.get("hotelid").unwrap().domain.non_null);
        assert_eq!(
            a.out_facts.get("seven").unwrap().domain.eq,
            Some(Value::Int(7))
        );
        let a = analyze("SELECT starrating AS stars FROM hotel WHERE starrating = 5");
        assert_eq!(
            a.out_facts.get("stars").unwrap().domain.eq,
            Some(Value::Int(5))
        );
    }

    fn card_of(sql: &str) -> QueryCardinality {
        query_cardinality(&parse_query(sql).unwrap(), &catalog(), &FactSet::new())
    }

    #[test]
    fn pk_equality_pins_to_at_most_one() {
        let c = card_of("SELECT * FROM hotel WHERE hotelid = 7");
        assert_eq!(c.total.card, Card::AtMostOne);
        assert!(
            c.total.chain.iter().any(|s| s.contains("PRIMARY KEY")),
            "{:?}",
            c.total.chain
        );
        let c = card_of("SELECT * FROM hotel WHERE hotelid = $m.hid");
        assert_eq!(c.total.card, Card::AtMostOne);
        // Non-key equality does not pin.
        let c = card_of("SELECT * FROM hotel WHERE metro_id = 3");
        assert_eq!(c.total.card, Card::Unbounded);
    }

    #[test]
    fn joins_compose_multiplicatively() {
        // Both sides key-pinned (one via the other's column): <= 1 row.
        let c = card_of(
            "SELECT * FROM hotel AS a, hotel AS b \
             WHERE a.hotelid = 3 AND b.hotelid = a.hotelid",
        );
        assert_eq!(c.total.card, Card::AtMostOne);
        assert_eq!(c.per_item, vec![Card::AtMostOne, Card::AtMostOne]);
        assert!(c.cross_joins.is_empty());
        // Unpinned join partner: unbounded, but linked (not a cross join).
        let c = card_of("SELECT * FROM hotel AS a, hotel AS b WHERE a.hotelid = b.metro_id");
        assert_eq!(c.total.card, Card::Unbounded);
        assert!(c.cross_joins.is_empty());
    }

    #[test]
    fn cross_product_without_key_is_flagged() {
        let c = card_of("SELECT * FROM hotel AS a, hotel AS b");
        assert_eq!(c.total.card, Card::Unbounded);
        assert_eq!(c.cross_joins, vec!["b".to_owned()]);
        // A pinned second side is a cheap nested loop, not a blowup.
        let c = card_of("SELECT * FROM hotel AS a, hotel AS b WHERE b.hotelid = 1");
        assert!(c.cross_joins.is_empty(), "{:?}", c.cross_joins);
    }

    #[test]
    fn aggregates_empties_and_probes_are_exact() {
        let c = card_of("SELECT SUM(starrating) FROM hotel");
        assert_eq!(c.total.card, Card::AtMostOne);
        assert!(c.total.chain[0].contains("implicit aggregation"));
        // Provably empty beats everything.
        let c = card_of("SELECT city FROM hotel WHERE 1 = 2 GROUP BY city");
        assert_eq!(c.total.card, Card::Zero);
        assert!(!c.total.chain.is_empty());
        // Guard probes: empty FROM yields exactly one pseudo-row.
        let mut probe = SelectQuery::new(vec![SelectItem::expr(ScalarExpr::int(1))], vec![]);
        probe.where_clause = Some(ScalarExpr::binary(
            BinOp::Gt,
            ScalarExpr::param("m", "pop"),
            ScalarExpr::int(10),
        ));
        let c = query_cardinality(&probe, &catalog(), &FactSet::new());
        assert_eq!(c.total.card, Card::AtMostOne);
    }

    #[test]
    fn derived_tables_recurse() {
        let c = card_of("SELECT * FROM (SELECT SUM(starrating) AS s FROM hotel) AS t");
        assert_eq!(c.total.card, Card::AtMostOne);
        assert!(
            c.total
                .chain
                .iter()
                .any(|s| s.contains("derived table `t`")),
            "{:?}",
            c.total.chain
        );
        let c = card_of("SELECT * FROM (SELECT * FROM hotel) AS t");
        assert_eq!(c.total.card, Card::Unbounded);
    }
}
