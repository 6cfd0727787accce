//! Query-surgery helpers used by the composition algorithm's `UNBIND` and
//! `NEST` functions (Figures 10–13 of the paper).
//!
//! * [`unbind_param`] — replace references to a binding variable
//!   (`$h.col`) with column references into a derived table that computes
//!   the binding query (the core of `UNBIND`);
//! * [`preserve_aggregation`] — when unbinding introduces a derived table
//!   under an aggregating query, add `GROUP BY` over all of the derived
//!   table's columns so the per-tuple aggregate semantics are preserved
//!   (the paper's `GROUP BY TEMP.hotelid, ..., TEMP.gym`);
//! * [`rename_params`] — rename binding variables according to a
//!   `bvmap` (Figure 9 lines 21–22);
//! * [`fresh_alias`] — allocate `TEMP`, `TEMP1`, `TEMP2`, … aliases that do
//!   not collide with any alias already in the query (the renaming `NEST`
//!   "must take care of", §4.2.1).

use std::collections::{HashMap, HashSet};

use crate::ast::{ScalarExpr, SelectItem, SelectQuery, TableRef};
use crate::error::Result;
use crate::schema::Catalog;

/// Replaces every `$var.col` reference in `q` (including inside derived
/// tables and EXISTS subqueries) with `alias.col`, and appends
/// `(binding_query) AS alias` to the FROM clause. Returns `true` if any
/// reference was replaced (if not, the FROM clause is left untouched).
pub fn unbind_param(
    q: &mut SelectQuery,
    var: &str,
    alias: &str,
    binding_query: SelectQuery,
) -> bool {
    let mut replaced = false;
    q.walk_mut(&mut |e| {
        if let ScalarExpr::Param { var: v, column } = e {
            if v == var {
                *e = ScalarExpr::Column {
                    qualifier: Some(alias.to_owned()),
                    name: column.clone(),
                };
                replaced = true;
            }
        }
    });
    if replaced {
        q.from.push(TableRef::Derived {
            query: Box::new(binding_query),
            alias: alias.to_owned(),
            preserved: false,
        });
    }
    replaced
}

/// If `q` aggregates, appends `GROUP BY alias.c` for every output column `c`
/// of the derived table `alias`, and adds `alias.*` to the select list so
/// the unbound tuple's attributes survive (the paper's
/// `SELECT SUM(capacity), TEMP.* ... GROUP BY TEMP.hotelid, ..., TEMP.gym`).
/// No-op for non-aggregating queries.
pub fn preserve_aggregation(q: &mut SelectQuery, alias: &str, catalog: &Catalog) -> Result<()> {
    if !q.is_aggregating() {
        // Non-aggregating: project the derived columns through — unless a
        // bare `*` already covers every FROM item including the new one.
        if !q.select.contains(&SelectItem::Star) {
            q.select.push(SelectItem::QualifiedStar(alias.to_owned()));
        }
        return Ok(());
    }
    let cols = q
        .from
        .iter()
        .find(|t| t.binding_name() == alias)
        .expect("alias was just added by unbind_param")
        .columns(&|n| catalog.get(n))?;
    q.select.push(SelectItem::QualifiedStar(alias.to_owned()));
    for c in cols {
        q.group_by.push(ScalarExpr::qcol(alias, c));
    }
    Ok(())
}

/// Qualifies every unqualified column reference at this query level with
/// the FROM item that provides it. Called before a new derived table joins
/// the FROM clause: previously unambiguous names (e.g. `startdate` from
/// `availability`) may collide with the derived table's output columns
/// (the paper's Figure 26 contains exactly this ambiguity). References
/// that no current FROM item provides are left alone (they may resolve in
/// an enclosing scope); names provided by several FROM items error.
pub fn qualify_level_columns(
    q: &mut SelectQuery,
    catalog: &Catalog,
    colliding: &[String],
) -> Result<()> {
    use crate::error::Error;
    // Column sets per FROM item.
    let mut sets: Vec<(String, Vec<String>)> = Vec::new();
    for t in &q.from {
        sets.push((t.binding_name().to_owned(), t.columns(&|n| catalog.get(n))?));
    }
    let mut result: Result<()> = Ok(());
    for e in q.exprs_mut() {
        e.walk_mut(&mut |node| {
            let ScalarExpr::Column {
                qualifier: qualifier @ None,
                name,
            } = node
            else {
                return;
            };
            if !colliding.contains(name) {
                return;
            }
            let providers: Vec<&String> = sets
                .iter()
                .filter(|(_, cols)| cols.contains(name))
                .map(|(a, _)| a)
                .collect();
            match providers.as_slice() {
                [] => {}
                [one] => *qualifier = Some((*one).clone()),
                _ => {
                    if result.is_ok() {
                        result = Err(Error::AmbiguousColumn { name: name.clone() });
                    }
                }
            }
        });
    }
    result
}

/// Nested-aware unbinding: replaces `$var.col` references with columns of
/// a derived table computing `binding_query`, placing the derived table at
/// the *innermost* query level that references the variable (a derived
/// table cannot reference a sibling FROM item, so Figure 16's composed
/// query nests the metroarea subquery inside the hotel subquery).
///
/// Each referencing scope gets its own copy of the binding query under a
/// fresh alias. Aggregating scopes get `alias.*` projection and `GROUP BY`
/// extension; when an inner derived table's output widens, enclosing
/// group-by-all-columns lists over its alias are refreshed.
pub fn unbind_param_nested(
    q: &mut SelectQuery,
    var: &str,
    binding_query: &SelectQuery,
    catalog: &Catalog,
) -> Result<bool> {
    let mut any = false;
    let mut widened_aliases: Vec<String> = Vec::new();

    // 1. Recurse into derived tables.
    for t in &mut q.from {
        if let TableRef::Derived { query, alias, .. } = t {
            if unbind_param_nested(query, var, binding_query, catalog)? {
                any = true;
                widened_aliases.push(alias.clone());
            }
        }
    }
    // 2. Recurse into EXISTS subqueries, in every clause of the level.
    let mut result = Ok(());
    for e in q.exprs_mut() {
        e.walk_mut(&mut |node| {
            if let ScalarExpr::Exists(sub) = node {
                if result.is_ok() {
                    result =
                        unbind_param_nested(sub, var, binding_query, catalog).map(|hit| any |= hit);
                }
            }
        });
    }
    result?;

    // 3. Direct references at this level (not inside subqueries).
    let is_var = |e: &ScalarExpr| matches!(e, ScalarExpr::Param { var: v, .. } if v == var);
    if q.exprs().any(|e| e.any(is_var)) {
        // Qualify existing references that the new FROM item would shadow.
        let new_cols = binding_query.output_columns(&|n| catalog.get(n))?;
        qualify_level_columns(q, catalog, &new_cols)?;
        let alias = fresh_alias(q);
        for e in q.exprs_mut() {
            e.walk_mut(&mut |node| {
                if let ScalarExpr::Param { var: v, column } = node {
                    if v == var {
                        *node = ScalarExpr::qcol(&alias, column.clone());
                    }
                }
            });
        }
        q.from.push(TableRef::Derived {
            query: Box::new(binding_query.clone()),
            alias: alias.clone(),
            preserved: false,
        });
        preserve_aggregation(q, &alias, catalog)?;
        any = true;
    }

    // 4. Refresh stale group-by-all lists over widened inner aliases.
    if q.is_aggregating() {
        for alias in widened_aliases {
            refresh_group_by_all(q, &alias, catalog)?;
        }
    }
    Ok(any)
}

/// When a FROM item's output columns change, any `GROUP BY
/// alias.c1, alias.c2, …` list over it goes stale; this rebuilds it as
/// "group by every current output column of `alias`" (the only grouping
/// shape the composition generates). No-op when the query does not group
/// by that alias.
pub fn refresh_group_by_all(q: &mut SelectQuery, alias: &str, catalog: &Catalog) -> Result<()> {
    let grouped: bool = q
        .group_by
        .iter()
        .any(|g| matches!(g, ScalarExpr::Column { qualifier: Some(x), .. } if x == alias));
    if !grouped {
        return Ok(());
    }
    let Some(t) = q.from.iter().find(|t| t.binding_name() == alias) else {
        return Ok(());
    };
    let cols = t.columns(&|n| catalog.get(n))?;
    q.group_by
        .retain(|g| !matches!(g, ScalarExpr::Column { qualifier: Some(x), .. } if x == alias));
    for c in cols {
        q.group_by.push(ScalarExpr::qcol(alias, c));
    }
    Ok(())
}

/// Renames binding-variable references throughout the query:
/// `$old.col` → `$new.col` for every `(old, new)` entry of `map`.
pub fn rename_params(q: &mut SelectQuery, map: &HashMap<String, String>) {
    q.walk_mut(&mut |e| {
        if let ScalarExpr::Param { var, .. } = e {
            if let Some(new) = map.get(var) {
                *var = new.clone();
            }
        }
    });
}

/// Returns a derived-table alias (`TEMP`, `TEMP1`, `TEMP2`, …) unused by any
/// FROM item anywhere inside `q`.
pub fn fresh_alias(q: &SelectQuery) -> String {
    fresh_alias_among(&[q], "TEMP")
}

/// Like [`fresh_alias`], but with a custom prefix and avoiding collisions
/// across several queries at once (used when correlating EXISTS
/// subqueries, where the alias must be unique in both scopes).
pub fn fresh_alias_among(queries: &[&SelectQuery], prefix: &str) -> String {
    let mut used = HashSet::new();
    for q in queries {
        collect_aliases(q, &mut used);
    }
    if !used.contains(prefix) {
        return prefix.to_owned();
    }
    let mut i = 1;
    loop {
        let cand = format!("{prefix}{i}");
        if !used.contains(cand.as_str()) {
            return cand;
        }
        i += 1;
    }
}

/// True if `name` is bound as a FROM alias anywhere inside `q`.
pub fn binds_alias(q: &SelectQuery, name: &str) -> bool {
    let mut used = HashSet::new();
    collect_aliases(q, &mut used);
    used.contains(name)
}

fn collect_aliases<'q>(q: &'q SelectQuery, out: &mut HashSet<&'q str>) {
    for t in &q.from {
        out.insert(t.binding_name());
        if let TableRef::Derived { query, .. } = t {
            collect_aliases(query, out);
        }
    }
    for sub in q.exprs().flat_map(ScalarExpr::subqueries) {
        collect_aliases(sub, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_query;
    use crate::schema::{Catalog, ColumnDef, ColumnType, TableSchema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add(
            TableSchema::new(
                "hotel",
                vec![
                    ColumnDef::new("hotelid", ColumnType::Int),
                    ColumnDef::new("starrating", ColumnType::Int),
                    ColumnDef::new("metro_id", ColumnType::Int),
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
    fn unbind_replaces_params_and_adds_derived_table() {
        // The paper's running example: unbinding Qs(h) with Qh(m).
        let mut qs =
            parse_query("SELECT SUM(capacity) FROM confroom WHERE chotel_id=$h.hotelid").unwrap();
        let qh = parse_query("SELECT * FROM hotel WHERE metro_id=$m.metroid AND starrating > 4")
            .unwrap();
        assert!(unbind_param(&mut qs, "h", "TEMP", qh));
        let sql = qs.to_sql_inline();
        assert!(sql.contains("chotel_id = TEMP.hotelid"), "{sql}");
        assert!(sql.contains(") AS TEMP"), "{sql}");
        // $m is still a parameter (unbinding stops at the LCA).
        assert_eq!(qs.parameters(), vec!["m".to_owned()]);
    }

    #[test]
    fn unbind_noop_when_var_absent() {
        let mut q = parse_query("SELECT * FROM hotel").unwrap();
        let sub = parse_query("SELECT * FROM confroom").unwrap();
        assert!(!unbind_param(&mut q, "h", "TEMP", sub));
        assert_eq!(q.from.len(), 1);
    }

    #[test]
    fn preserve_aggregation_groups_by_all_derived_columns() {
        let mut qs =
            parse_query("SELECT SUM(capacity) FROM confroom WHERE chotel_id=$h.hotelid").unwrap();
        let qh = parse_query("SELECT * FROM hotel WHERE starrating > 4").unwrap();
        unbind_param(&mut qs, "h", "TEMP", qh);
        preserve_aggregation(&mut qs, "TEMP", &catalog()).unwrap();
        let sql = qs.to_sql();
        assert!(sql.contains("SELECT SUM(capacity), TEMP.*"), "{sql}");
        assert!(
            sql.contains("GROUP BY TEMP.hotelid, TEMP.starrating, TEMP.metro_id"),
            "{sql}"
        );
    }

    #[test]
    fn preserve_aggregation_noop_for_plain_queries() {
        let mut q = parse_query("SELECT * FROM confroom WHERE chotel_id=$h.hotelid").unwrap();
        let qh = parse_query("SELECT * FROM hotel").unwrap();
        unbind_param(&mut q, "h", "TEMP", qh);
        preserve_aggregation(&mut q, "TEMP", &catalog()).unwrap();
        assert!(q.group_by.is_empty());
        // `SELECT *` already spans the derived table; no TEMP.* is added.
        assert!(q.to_sql_inline().starts_with("SELECT * FROM confroom"));
    }

    #[test]
    fn rename_params_applies_map_recursively() {
        let mut q = parse_query(
            "SELECT * FROM confroom WHERE chotel_id=$h.hotelid \
             AND EXISTS (SELECT * FROM hotel WHERE metro_id=$m.metroid)",
        )
        .unwrap();
        let mut map = HashMap::new();
        map.insert("h".to_owned(), "s_new".to_owned());
        map.insert("m".to_owned(), "m_new".to_owned());
        rename_params(&mut q, &map);
        let sql = q.to_sql_inline();
        assert!(sql.contains("$s_new.hotelid"), "{sql}");
        assert!(sql.contains("$m_new.metroid"), "{sql}");
        assert_eq!(q.parameters(), vec!["s_new".to_owned(), "m_new".to_owned()]);
    }

    #[test]
    fn fresh_alias_avoids_collisions() {
        let q = parse_query("SELECT * FROM hotel").unwrap();
        assert_eq!(fresh_alias(&q), "TEMP");
        let q = parse_query(
            "SELECT * FROM (SELECT * FROM hotel) AS TEMP, \
             (SELECT * FROM confroom) AS TEMP1",
        )
        .unwrap();
        assert_eq!(fresh_alias(&q), "TEMP2");
    }

    #[test]
    fn unbind_param_nested_enters_exists_in_every_clause() {
        let exists = "EXISTS (SELECT 1 FROM confroom WHERE chotel_id = $h.hotelid)";
        let binding = parse_query("SELECT * FROM hotel").unwrap();
        for sql in [
            format!("SELECT hotelid, {exists} FROM hotel"),
            format!("SELECT hotelid FROM hotel GROUP BY hotelid, {exists}"),
            format!("SELECT hotelid FROM hotel WHERE {exists}"),
        ] {
            let mut q = parse_query(&sql).unwrap();
            assert!(
                unbind_param_nested(&mut q, "h", &binding, &catalog()).unwrap(),
                "{sql}"
            );
            assert!(q.parameters().is_empty(), "{sql}");
            let out = q.to_sql_inline();
            assert!(out.contains("chotel_id = TEMP.hotelid"), "{out}");
        }
    }

    #[test]
    fn fresh_alias_sees_exists_in_group_by() {
        // `unbind_param_nested` replaces `$m.id` inside this EXISTS too, so
        // a fresh `TEMP` would capture it as the inner `u AS TEMP`.
        let q = parse_query(
            "SELECT COUNT(*) FROM t GROUP BY \
             EXISTS (SELECT 1 FROM u AS TEMP WHERE TEMP.x = $m.id)",
        )
        .unwrap();
        assert!(binds_alias(&q, "TEMP"));
        assert_eq!(fresh_alias(&q), "TEMP1");
    }

    #[test]
    fn fresh_alias_sees_exists_subqueries() {
        let q = parse_query(
            "SELECT * FROM hotel WHERE EXISTS \
             (SELECT * FROM (SELECT * FROM confroom) AS TEMP)",
        )
        .unwrap();
        assert_eq!(fresh_alias(&q), "TEMP1");
    }
}
