//! Synthetic views and stylesheets for the §4.5 complexity experiments.
//!
//! * **Chains** ([`chain_view`] / [`chain_stylesheet`] / [`chain_database`])
//!   — a view of depth `n` (one table per level, linked by foreign keys)
//!   with a stylesheet of `n` rules, each selecting the next level. CTG and
//!   TVQ stay linear in `n`; composition time should track the paper's
//!   polynomial bound `O(|v|³ · max_a · max_b)` far below its worst case.
//! * **Fans** ([`fan_stylesheet`]) — every rule fires `k` apply-templates
//!   at the *same* child, so each CTG node has `k` incoming edges and the
//!   TVQ duplicates `k^depth` nodes: the §4.5 exponential case that the
//!   composition budget guards against.

use xvc_rel::{parse_query, ColumnDef, ColumnType, Database, TableSchema, Value};
use xvc_view::{SchemaTree, ViewNode};
use xvc_xpath::{parse_path, parse_pattern};
use xvc_xslt::{ApplyTemplates, OutputNode, Stylesheet, TemplateRule, DEFAULT_MODE};

/// Table name for chain level `k` (0-based).
pub(crate) fn level_table(k: usize) -> String {
    format!("t{k}")
}

/// Element tag for chain level `k`.
fn level_tag(k: usize) -> String {
    format!("level{k}")
}

/// A chain view of `depth` levels: `level0` rows at the top, each deeper
/// level keyed to its parent.
pub fn chain_view(depth: usize) -> SchemaTree {
    assert!(depth >= 1);
    let mut v = SchemaTree::new();
    let mut parent = v
        .add_root_node(ViewNode::new(
            1,
            level_tag(0),
            "b0",
            parse_query(&format!("SELECT id, val FROM {}", level_table(0))).unwrap(),
        ))
        .unwrap();
    for k in 1..depth {
        parent = v
            .add_child(
                parent,
                ViewNode::new(
                    (k + 1) as u32,
                    level_tag(k),
                    format!("b{k}"),
                    parse_query(&format!(
                        "SELECT id, val FROM {} WHERE parent_id = $b{}.id",
                        level_table(k),
                        k - 1
                    ))
                    .unwrap(),
                ),
            )
            .unwrap();
    }
    v
}

/// A stylesheet walking the chain: one rule per level, each wrapping its
/// result and applying templates to the next level.
pub fn chain_stylesheet(depth: usize) -> Stylesheet {
    fan_stylesheet(depth, 1)
}

/// Like [`chain_stylesheet`], but each rule fires `fan` identical
/// apply-templates nodes — `fan ≥ 2` triggers TVQ duplication (`fan^depth`
/// nodes).
pub fn fan_stylesheet(depth: usize, fan: usize) -> Stylesheet {
    let mut rules = vec![TemplateRule::new(
        parse_pattern("/").unwrap(),
        vec![OutputNode::Element {
            name: "root_out".into(),
            attrs: vec![],
            children: vec![OutputNode::ApplyTemplates(ApplyTemplates::new(
                parse_path(&level_tag(0)).unwrap(),
            ))],
        }],
    )];
    for k in 0..depth {
        let mut children: Vec<OutputNode> = Vec::new();
        if k + 1 < depth {
            for _ in 0..fan {
                children.push(OutputNode::ApplyTemplates(ApplyTemplates::new(
                    parse_path(&level_tag(k + 1)).unwrap(),
                )));
            }
        } else {
            children.push(OutputNode::ValueOf {
                select: xvc_xpath::parse_expr(".").unwrap(),
                span: Default::default(),
            });
        }
        let mut rule = TemplateRule::new(
            parse_pattern(&level_tag(k)).unwrap(),
            vec![OutputNode::Element {
                name: format!("out{k}"),
                attrs: vec![],
                children,
            }],
        );
        rule.mode = DEFAULT_MODE.to_owned();
        rules.push(rule);
    }
    Stylesheet { rules }
}

/// A database instance for a chain of `depth` levels with `fanout` child
/// rows per parent row (level 0 has `fanout` rows).
pub fn chain_database(depth: usize, fanout: usize) -> Database {
    let mut db = Database::new();
    for k in 0..depth {
        db.create_table(
            TableSchema::new(
                level_table(k),
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("parent_id", ColumnType::Int),
                    ColumnDef::new("val", ColumnType::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
    }
    let mut next_id = 1i64;
    let mut parents: Vec<i64> = vec![0];
    for k in 0..depth {
        let mut level_ids = Vec::new();
        for &p in &parents {
            for j in 0..fanout {
                let id = next_id;
                next_id += 1;
                db.insert(
                    &level_table(k),
                    vec![
                        Value::Int(id),
                        Value::Int(p),
                        Value::Int((id * 7 + j as i64) % 100),
                    ],
                )
                .unwrap();
                level_ids.push(id);
            }
        }
        parents = level_ids;
    }
    db
}

/// The catalog for [`chain_view`] of the given depth.
pub fn chain_catalog(depth: usize) -> xvc_rel::Catalog {
    chain_database(depth, 0).catalog()
}

/// A three-level "needle" instance for the access-path scale study:
/// `region → customer → orders`, sized by the three fan-outs
/// (total rows = `regions · (1 + customers · (1 + orders))`). The view
/// from [`needle_view`] touches one region's subtree, so a full scan pays
/// for the whole instance while an index lookup pays only for the needle.
pub fn needle_database(
    regions: usize,
    customers_per_region: usize,
    orders_per_customer: usize,
) -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "region",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("name", ColumnType::Str),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    db.create_table(
        TableSchema::new(
            "customer",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("region_id", ColumnType::Int),
                ColumnDef::new("name", ColumnType::Str),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    db.create_table(
        TableSchema::new(
            "orders",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("customer_id", ColumnType::Int),
                ColumnDef::new("total", ColumnType::Int),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    let mut customer_id = 0i64;
    let mut order_id = 0i64;
    for r in 0..regions as i64 {
        db.insert(
            "region",
            vec![Value::Int(r), Value::Str(format!("region-{r}"))],
        )
        .unwrap();
        for _ in 0..customers_per_region {
            let c = customer_id;
            customer_id += 1;
            db.insert(
                "customer",
                vec![
                    Value::Int(c),
                    Value::Int(r),
                    Value::Str(format!("customer-{c}")),
                ],
            )
            .unwrap();
            for _ in 0..orders_per_customer {
                let o = order_id;
                order_id += 1;
                db.insert(
                    "orders",
                    vec![
                        Value::Int(o),
                        Value::Int(c),
                        Value::Int((o * 7 + 13) % 1000),
                    ],
                )
                .unwrap();
            }
        }
    }
    db
}

/// The equality-pushdown view over [`needle_database`]: one region picked
/// by name, its customers by foreign key, their orders by foreign key —
/// every tag query is exactly the shape the planner's index-access
/// selection targets.
pub fn needle_view(region_name: &str) -> SchemaTree {
    let mut v = SchemaTree::new();
    let region = v
        .add_root_node(ViewNode::new(
            1,
            "region",
            "r",
            parse_query(&format!(
                "SELECT id, name FROM region WHERE name = '{region_name}'"
            ))
            .unwrap(),
        ))
        .unwrap();
    let customer = v
        .add_child(
            region,
            ViewNode::new(
                2,
                "customer",
                "c",
                parse_query("SELECT id, name FROM customer WHERE region_id = $r.id").unwrap(),
            ),
        )
        .unwrap();
    v.add_child(
        customer,
        ViewNode::new(
            3,
            "order",
            "o",
            parse_query("SELECT id, total FROM orders WHERE customer_id = $c.id").unwrap(),
        ),
    )
    .unwrap();
    v
}

/// The breadth variant of [`needle_view`] for the streaming-emission
/// study: *every* region, its customers and their orders. Document size
/// scales linearly with the region count while each root-level subtree
/// stays a fixed size — exactly the shape where streamed emission's peak
/// memory (bounded by the largest subtree) stays flat as the materialized
/// document grows.
pub fn all_regions_view() -> SchemaTree {
    let mut v = SchemaTree::new();
    let region = v
        .add_root_node(ViewNode::new(
            1,
            "region",
            "r",
            parse_query("SELECT id, name FROM region").unwrap(),
        ))
        .unwrap();
    let customer = v
        .add_child(
            region,
            ViewNode::new(
                2,
                "customer",
                "c",
                parse_query("SELECT id, name FROM customer WHERE region_id = $r.id").unwrap(),
            ),
        )
        .unwrap();
    v.add_child(
        customer,
        ViewNode::new(
            3,
            "order",
            "o",
            parse_query("SELECT id, total FROM orders WHERE customer_id = $c.id").unwrap(),
        ),
    )
    .unwrap();
    v
}

/// A copy of `db` carrying the scale study's secondary indexes: on the
/// region-name needle and on both foreign keys.
pub fn needle_indexed(db: &Database) -> Database {
    let mut out = db.clone();
    out.create_index("region", "name").unwrap();
    out.create_index("customer", "region_id").unwrap();
    out.create_index("orders", "customer_id").unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xvc_core::{Composer, Error};
    use xvc_view::Engine;
    use xvc_xml::documents_equal_unordered;
    use xvc_xslt::process;

    #[test]
    fn chain_composes_and_is_equivalent() {
        for depth in [1, 3, 6] {
            let v = chain_view(depth);
            let x = chain_stylesheet(depth);
            let db = chain_database(depth, 2);
            let composed = Composer::new(&v, &x, &db.catalog())
                .run()
                .unwrap_or_else(|e| panic!("depth {depth}: {e}"))
                .view;
            let full = Engine::new(&v).session().publish(&db).unwrap().document;
            let expected = process(&x, &full).unwrap();
            let actual = Engine::new(&composed)
                .session()
                .publish(&db)
                .unwrap()
                .document;
            assert!(
                documents_equal_unordered(&expected, &actual),
                "depth {depth}:\n{}\nvs\n{}",
                expected.to_xml(),
                actual.to_xml()
            );
        }
    }

    #[test]
    fn fan_duplicates_tvq_exponentially() {
        // fan 2, depth 3 → 2^0 + 2^1 + 2^2 = 7 level nodes (+1 root entry).
        let v = chain_view(3);
        let x = fan_stylesheet(3, 2);
        let ctg = xvc_core::build_ctg(&v, &x).unwrap();
        let tvq = xvc_core::build_tvq(&v, &x, &ctg, &chain_catalog(3), 10_000).unwrap();
        assert_eq!(tvq.nodes.len(), 1 + 7);
        // CTG itself stays linear.
        assert_eq!(ctg.nodes.len(), 1 + 3);
    }

    #[test]
    fn fan_equivalence_holds_despite_duplication() {
        let v = chain_view(3);
        let x = fan_stylesheet(3, 2);
        let db = chain_database(3, 2);
        let composed = Composer::new(&v, &x, &db.catalog()).run().unwrap().view;
        let full = Engine::new(&v).session().publish(&db).unwrap().document;
        let expected = process(&x, &full).unwrap();
        let actual = Engine::new(&composed)
            .session()
            .publish(&db)
            .unwrap()
            .document;
        assert!(documents_equal_unordered(&expected, &actual));
    }

    #[test]
    fn budget_stops_fan_blowup() {
        let v = chain_view(12);
        let x = fan_stylesheet(12, 2);
        let result = Composer::new(&v, &x, &chain_catalog(12))
            .tvq_limit(500)
            .run();
        assert!(matches!(result, Err(Error::TvqTooLarge { limit: 500 })));
    }

    #[test]
    fn chain_database_sizes() {
        let db = chain_database(3, 2);
        assert_eq!(db.table("t0").unwrap().len(), 2);
        assert_eq!(db.table("t1").unwrap().len(), 4);
        assert_eq!(db.table("t2").unwrap().len(), 8);
    }

    #[test]
    fn needle_workload_sizes_and_index_agreement() {
        let db = needle_database(5, 4, 3);
        assert_eq!(db.table("region").unwrap().len(), 5);
        assert_eq!(db.table("customer").unwrap().len(), 20);
        assert_eq!(db.table("orders").unwrap().len(), 60);

        let v = needle_view("region-2");
        let doc = Engine::new(&v).session().publish(&db).unwrap().document;
        // One region, its 4 customers, their 12 orders.
        assert_eq!(doc.to_xml().matches("<customer").count(), 4);
        assert_eq!(doc.to_xml().matches("<order").count(), 12);

        // The indexed instance publishes the identical document.
        let indexed = needle_indexed(&db);
        let idx_out = Engine::new(&v).session().publish(&indexed).unwrap();
        assert_eq!(doc.to_xml(), idx_out.document.to_xml());
        assert!(idx_out.eval.index_lookups > 0, "{:?}", idx_out.eval);
    }
}
