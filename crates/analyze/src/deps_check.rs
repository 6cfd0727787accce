//! Pass 7: table→view dependency (lineage) analysis — the `XVC6xx` codes.
//!
//! Builds the static [`DependencyMap`] ([`xvc_core::deps`]) — every base
//! `(table, column)` each TVQ node reads, partitioned by role (scan
//! source, join key, pushdown predicate, emission guard, projected
//! output) and classified for update-safety — and reports what it implies
//! for maintenance:
//!
//! * **XVC601** — a single base column feeds more than
//!   [`WRITE_AMPLIFICATION_THRESHOLD`] distinct TVQ nodes: one `UPDATE`
//!   fans out across that many published regions (write amplification);
//! * **XVC602** — a dependency runs through a recursion cycle (cyclic
//!   CTG): no delta-publish path exists for it, every touch recomputes;
//! * **XVC603** — a catalog table no tag query reads: dead weight for
//!   this workload;
//! * **XVC604** — the per-table impact report: for each table with at
//!   least one recompute-required edge, how many view nodes an update
//!   can restructure. It is a report: `Session::republish_delta` asks
//!   each cached plan what it reads (`PreparedPlan::reads`) and how to
//!   narrow a change (`PreparedPlan::row_key`), not this map.
//!
//! Like the `XVC4xx`/`XVC5xx` passes, every finding carries the fact
//! chain that justifies it. The full inverted map is available from
//! `xvc deps`.

use std::collections::{BTreeMap, BTreeSet};

use xvc_core::deps::{DepRole, DependencyMap, UpdateSafety};
use xvc_rel::Catalog;
use xvc_view::SchemaTree;

use crate::diag::{Code, Diagnostic, Stage};
use crate::ComposedWorkload;

/// Distinct TVQ nodes a single base column may feed before XVC601 calls
/// the column write-amplifying.
pub const WRITE_AMPLIFICATION_THRESHOLD: usize = 3;

/// Runs the dependency pass on an acyclic workload: the map is built over
/// the TVQ of `composed`, the composition of `view` that passes 4–6 read.
pub fn check_deps(
    view: &SchemaTree,
    composed: &ComposedWorkload,
    catalog: &Catalog,
) -> Vec<Diagnostic> {
    let map = DependencyMap::of_tvq(&composed.tvq, view, catalog);
    map_diagnostics(&map, catalog)
}

/// Runs the dependency pass on a cyclic workload (§5.3): no TVQ exists,
/// so the map is built over the raw view with every edge marked
/// recompute-required — and each join-key/guard column additionally
/// surfaces as XVC602.
pub fn check_deps_recursive(view: &SchemaTree, catalog: &Catalog) -> Vec<Diagnostic> {
    let map = DependencyMap::of_view(view, catalog, true);
    map_diagnostics(&map, catalog)
}

/// Shared reporting over a built map.
fn map_diagnostics(map: &DependencyMap, catalog: &Catalog) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // XVC601: write-amplifying columns. Whole-table scan edges ("*")
    // describe row sets, not columns — only real columns amplify writes.
    for ((table, column), edges) in map.columns() {
        if column == "*" {
            continue;
        }
        let units: BTreeSet<&str> = edges.iter().map(|e| e.unit.as_str()).collect();
        if units.len() <= WRITE_AMPLIFICATION_THRESHOLD {
            continue;
        }
        let chain: Vec<String> = units
            .iter()
            .map(|u| format!("{table}.{column} feeds {u}"))
            .collect();
        out.push(
            Diagnostic::new(
                Code::Xvc601,
                Stage::General,
                format!(
                    "column {table}.{column} feeds {} distinct TVQ nodes: one UPDATE \
                     fans out across all of them (write amplification)",
                    units.len()
                ),
            )
            .with_help(crate::dataflow::fact_chain(&chain))
            .with_justification(chain),
        );
    }

    // XVC602: recursion-tainted structural dependencies (cyclic CTG only).
    if map.recursive {
        let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
        for e in &map.edges {
            if !matches!(e.role, DepRole::JoinKey | DepRole::Guard) {
                continue;
            }
            if !seen.insert((e.table.clone(), e.column.clone())) {
                continue;
            }
            out.push(
                Diagnostic::new(
                    Code::Xvc602,
                    Stage::General,
                    format!(
                        "{}.{} is a {} input of {} on a recursion cycle: any change to it \
                         forces a full recompute (no delta-publish path exists)",
                        e.table,
                        e.column,
                        e.role.as_str(),
                        e.unit
                    ),
                )
                .with_help(crate::dataflow::fact_chain(&e.chain))
                .with_justification(e.chain.clone()),
            );
        }
    }

    // XVC603: dead catalog tables.
    for table in map.dead_tables(catalog) {
        out.push(
            Diagnostic::new(
                Code::Xvc603,
                Stage::General,
                format!("table {table} is never read by any tag query in this workload"),
            )
            .with_help(
                "updates to it can skip republishing entirely; drop it from the catalog \
                 if the workload is complete",
            ),
        );
    }

    // XVC604: the per-table impact report, one diagnostic for the whole
    // workload (like XVC505), emitted only when some update actually
    // forces recomputation.
    let mut per_table: BTreeMap<&str, (BTreeSet<&str>, usize, usize)> = BTreeMap::new();
    for e in &map.edges {
        let entry = per_table.entry(e.table.as_str()).or_default();
        entry.0.insert(e.unit.as_str());
        if e.safety == UpdateSafety::RecomputeRequired {
            entry.1 += 1;
        }
        entry.2 += 1;
    }
    let any_recompute = per_table.values().any(|(_, recompute, _)| *recompute > 0);
    if any_recompute {
        let chain: Vec<String> = per_table
            .iter()
            .map(|(table, (units, recompute, total))| {
                format!(
                    "{table}: read by {} view node(s) via {total} edge(s), \
                     {recompute} recompute-required",
                    units.len()
                )
            })
            .collect();
        let worst = per_table
            .iter()
            .max_by_key(|(_, (units, recompute, _))| (*recompute, units.len()))
            .map(|(t, _)| *t)
            .unwrap_or_default();
        out.push(
            Diagnostic::new(
                Code::Xvc604,
                Stage::General,
                format!(
                    "dependency impact: {} table(s) carry recompute-required edges \
                     (worst: {worst}); `xvc deps` prints the full map",
                    per_table
                        .values()
                        .filter(|(_, recompute, _)| *recompute > 0)
                        .count()
                ),
            )
            .with_help(crate::dataflow::fact_chain(&chain))
            .with_justification(chain),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xvc_core::paper_fixtures::{figure1_view, figure2_catalog};
    use xvc_core::tvq::DEFAULT_TVQ_LIMIT;
    use xvc_xslt::parse::FIGURE4_XSLT;
    use xvc_xslt::parse_stylesheet;

    #[test]
    fn figure4_reports_dead_tables_and_impact() {
        let v = figure1_view();
        let x = parse_stylesheet(FIGURE4_XSLT).unwrap();
        let cat = figure2_catalog();
        let c = ComposedWorkload::new(&v, &x, None, &cat, DEFAULT_TVQ_LIMIT).unwrap();
        let ds = check_deps(&v, &c, &cat);
        let codes: Vec<_> = ds.iter().map(|d| d.code).collect();
        assert!(codes.contains(&Code::Xvc603), "{ds:?}");
        assert!(codes.contains(&Code::Xvc604), "{ds:?}");
        let dead: Vec<&Diagnostic> = ds.iter().filter(|d| d.code == Code::Xvc603).collect();
        assert!(
            dead.iter().any(|d| d.message.contains("hotelchain")),
            "{dead:?}"
        );
        // No recursion: XVC602 must not fire.
        assert!(!codes.contains(&Code::Xvc602), "{ds:?}");
    }

    #[test]
    fn recursive_walk_reports_xvc602() {
        let v = figure1_view();
        let ds = check_deps_recursive(&v, &figure2_catalog());
        let hits: Vec<&Diagnostic> = ds.iter().filter(|d| d.code == Code::Xvc602).collect();
        assert!(!hits.is_empty(), "{ds:?}");
        for d in &hits {
            assert!(d.help.as_deref().unwrap().contains("fact chain"), "{d:?}");
        }
    }
}
