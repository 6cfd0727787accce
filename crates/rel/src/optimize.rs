//! Post-composition query simplification.
//!
//! The paper remarks that "further query transformations like those
//! described in [Kim 82] can be applied" to the unbound queries (§4.2.1).
//! This module implements a conservative slice of that program:
//!
//! * [`merge_trivial_derived`] — Kim-style unnesting: a derived table
//!   `(SELECT * FROM t WHERE w) AS A` with no grouping/aggregation/
//!   DISTINCT and no preserved-side semantics is folded into the enclosing
//!   FROM as `t AS A`, its filter conjoined into the outer WHERE (with the
//!   filter's own columns qualified by `A` first so nothing changes
//!   meaning);
//! * [`dedupe_conjuncts`] — syntactically identical WHERE/HAVING conjuncts
//!   collapse to one (repeated EXISTS conditions arise naturally from
//!   overlapping select-match subtrees);
//! * [`optimize`] — both, applied bottom-up to a fixpoint.
//!
//! Every rewrite is semantics-preserving; `tests/prop_optimize.rs` checks
//! equivalence on randomized queries and the composition pipeline has an
//! opt-in flag (`ComposeOptions::optimize`) covered by the equivalence
//! suite.

use crate::ast::{ScalarExpr, SelectItem, SelectQuery, TableRef};
use crate::error::Result;
use crate::schema::Catalog;

/// Applies all simplifications bottom-up until nothing changes.
pub fn optimize(q: &mut SelectQuery, catalog: &Catalog) -> Result<()> {
    loop {
        let mut changed = false;
        optimize_once(q, catalog, &mut changed)?;
        if !changed {
            return Ok(());
        }
    }
}

fn optimize_once(q: &mut SelectQuery, catalog: &Catalog, changed: &mut bool) -> Result<()> {
    // Bottom-up: subqueries first.
    for t in &mut q.from {
        if let TableRef::Derived { query, .. } = t {
            optimize_once(query, catalog, changed)?;
        }
    }
    // EXISTS subqueries of the select list, WHERE and HAVING.
    let mut result = Ok(());
    let items = q.select.iter_mut().filter_map(|item| match item {
        SelectItem::Expr { expr, .. } => Some(expr),
        _ => None,
    });
    for e in items.chain(&mut q.where_clause).chain(&mut q.having) {
        e.walk_mut(&mut |node| {
            if let ScalarExpr::Exists(sub) = node {
                if result.is_ok() {
                    result = optimize_once(sub, catalog, changed);
                }
            }
        });
    }
    result?;

    if merge_trivial_derived(q, catalog)? {
        *changed = true;
    }
    if dedupe_conjuncts(q) {
        *changed = true;
    }
    Ok(())
}

/// Folds trivial derived tables into the enclosing FROM (see module docs).
/// Returns true if anything merged.
pub fn merge_trivial_derived(q: &mut SelectQuery, catalog: &Catalog) -> Result<bool> {
    let mut merged = false;
    let mut i = 0;
    while i < q.from.len() {
        let TableRef::Derived {
            query: inner,
            alias,
            preserved,
        } = &q.from[i]
        else {
            i += 1;
            continue;
        };
        let mergeable = !*preserved
            && !inner.distinct
            && inner.group_by.is_empty()
            && inner.having.is_none()
            && inner.select == vec![SelectItem::Star]
            && inner.from.len() == 1
            && matches!(inner.from[0], TableRef::Named { .. })
            // The filter must not smuggle an EXISTS whose correlation
            // semantics could change with the scope.
            && inner
                .where_clause
                .as_ref()
                .map(|w| !w.any(|e| matches!(e, ScalarExpr::Exists(_))))
                .unwrap_or(true);
        if !mergeable {
            i += 1;
            continue;
        }
        let alias = alias.clone();
        let TableRef::Derived { query: inner, .. } = q.from.remove(i) else {
            unreachable!("matched above");
        };
        let mut inner = *inner;
        let table = inner.from.remove(0);
        // Qualify the filter's own columns with the alias so they keep
        // resolving to this table after the merge.
        if let Some(mut w) = inner.where_clause.take() {
            let cols = table.columns(&|n| catalog.get(n))?;
            w.walk_mut(&mut |node| {
                if let ScalarExpr::Column {
                    qualifier: qualifier @ None,
                    name: column,
                } = node
                {
                    if cols.contains(column) {
                        *qualifier = Some(alias.clone());
                    }
                }
            });
            q.and_where(w);
        }
        let TableRef::Named { name, .. } = table else {
            unreachable!("matched above");
        };
        q.from.insert(
            i,
            TableRef::Named {
                name,
                alias: Some(alias),
            },
        );
        merged = true;
        i += 1;
    }
    Ok(merged)
}

/// Removes syntactically duplicate top-level conjuncts from WHERE and
/// HAVING. Returns true if anything was removed.
pub fn dedupe_conjuncts(q: &mut SelectQuery) -> bool {
    let mut changed = false;
    for clause in [&mut q.where_clause, &mut q.having] {
        let Some(pred) = clause.take() else { continue };
        let parts = pred.into_conjuncts();
        let before = parts.len();
        let mut seen: Vec<ScalarExpr> = Vec::new();
        for p in parts {
            if !seen.contains(&p) {
                seen.push(p);
            }
        }
        if seen.len() != before {
            changed = true;
        }
        *clause = ScalarExpr::conjoin(seen);
    }
    changed
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
                    ColumnDef::new("hotelid", ColumnType::Int),
                    ColumnDef::new("metro_id", ColumnType::Int),
                    ColumnDef::new("starrating", ColumnType::Int),
                ],
            )
            .unwrap(),
        );
        c.add(
            TableSchema::new(
                "confroom",
                vec![
                    ColumnDef::new("chotel_id", ColumnType::Int),
                    ColumnDef::new("capacity", ColumnType::Int),
                ],
            )
            .unwrap(),
        );
        c
    }

    #[test]
    fn merges_select_star_derived_tables() {
        let mut q = parse_query(
            "SELECT SUM(capacity), TEMP.* \
             FROM confroom, (SELECT * FROM hotel \
                             WHERE metro_id = $m.metroid AND starrating > 4) AS TEMP \
             WHERE chotel_id = TEMP.hotelid \
             GROUP BY TEMP.hotelid, TEMP.metro_id, TEMP.starrating",
        )
        .unwrap();
        optimize(&mut q, &catalog()).unwrap();
        let sql = q.to_sql();
        assert!(sql.contains("FROM confroom, hotel AS TEMP"), "{sql}");
        assert!(sql.contains("TEMP.metro_id = $m.metroid"), "{sql}");
        assert!(sql.contains("TEMP.starrating > 4"), "{sql}");
        assert!(!sql.contains("(\n"), "no derived tables left:\n{sql}");
    }

    #[test]
    fn preserved_and_aggregating_derived_tables_stay() {
        let mut q = parse_query(
            "SELECT * FROM confroom, OUTER (SELECT * FROM hotel) AS TEMP \
             WHERE chotel_id = TEMP.hotelid",
        )
        .unwrap();
        let before = q.clone();
        optimize(&mut q, &catalog()).unwrap();
        assert_eq!(q, before, "preserved tables must not merge");

        let mut q = parse_query(
            "SELECT * FROM (SELECT chotel_id, SUM(capacity) FROM confroom \
                            GROUP BY chotel_id) AS T",
        )
        .unwrap();
        let before = q.clone();
        optimize(&mut q, &catalog()).unwrap();
        assert_eq!(q, before, "aggregating tables must not merge");
    }

    #[test]
    fn projecting_derived_tables_stay() {
        // SELECT a subset of columns changes the output schema: not
        // mergeable under the conservative rule.
        let mut q =
            parse_query("SELECT T.capacity FROM (SELECT capacity FROM confroom) AS T").unwrap();
        let before = q.clone();
        optimize(&mut q, &catalog()).unwrap();
        assert_eq!(q, before);
    }

    #[test]
    fn merges_recursively() {
        let mut q = parse_query(
            "SELECT * FROM (SELECT * FROM (SELECT * FROM hotel WHERE starrating > 4) AS A) AS B",
        )
        .unwrap();
        optimize(&mut q, &catalog()).unwrap();
        let sql = q.to_sql();
        // Innermost merges into the middle, which becomes trivial and
        // merges into the top.
        assert!(sql.contains("FROM hotel AS"), "{sql}");
        assert!(!sql.contains("(\n"), "{sql}");
    }

    #[test]
    fn dedupes_identical_conjuncts() {
        let mut q = parse_query(
            "SELECT * FROM hotel WHERE starrating > 4 AND starrating > 4 AND hotelid = 1",
        )
        .unwrap();
        assert!(dedupe_conjuncts(&mut q));
        assert_eq!(
            q.to_sql(),
            "SELECT *\nFROM hotel\nWHERE starrating > 4\n  AND hotelid = 1"
        );
        assert!(!dedupe_conjuncts(&mut q), "idempotent");
    }

    #[test]
    fn optimizes_inside_exists() {
        let mut q = parse_query(
            "SELECT * FROM hotel WHERE EXISTS \
             (SELECT * FROM (SELECT * FROM confroom WHERE capacity > 10) AS T \
              WHERE T.chotel_id = hotelid)",
        )
        .unwrap();
        optimize(&mut q, &catalog()).unwrap();
        let sql = q.to_sql();
        assert!(sql.contains("FROM confroom AS T"), "{sql}");
    }

    #[test]
    fn merged_filters_do_not_capture_outer_names() {
        // The inner filter references `capacity`; after merging next to
        // another table it must stay qualified to the merged alias.
        let mut q = parse_query(
            "SELECT * FROM (SELECT * FROM confroom WHERE capacity > 10) AS T, hotel \
             WHERE T.chotel_id = hotelid",
        )
        .unwrap();
        optimize(&mut q, &catalog()).unwrap();
        let sql = q.to_sql();
        assert!(sql.contains("T.capacity > 10"), "{sql}");
    }
}
