//! Static cardinality bounds over a schema tree.
//!
//! [`analyze_view_bounds`] runs the relational engine's cardinality
//! analysis ([`xvc_rel::query_cardinality`]) over every tag query of a
//! [`SchemaTree`], flowing parameter facts parent-to-child by the step
//! predicate-dataflow pruning takes too
//! ([`xvc_rel::facts::child_facts`]). The result bounds, per view node:
//!
//! * **fan-out** — element instances per parent instance (the tag query's
//!   row bound; exactly one for literal and context-copy nodes, at most
//!   one when an emission guard gates them);
//! * **per-task instances** — instances inside one root-level subtree
//!   task (the publisher cuts the document into one task per root
//!   element, so the task root itself counts as one);
//! * **global instances** — instances across the whole document.
//!
//! From these fall out the two whole-run bounds the publisher's batched
//! path is checked against: the largest batch any (view node, frontier
//! wave) can carry, and the total element count.
//!
//! This is the one walk that lifts row bounds over a tree. Over a
//! composed stylesheet view it bounds what is actually published, so its
//! readers are all reports: `xvc explain`, the analyzer's cardinality
//! diagnostics (XVC503, XVC505), `tests/prop_bounds.rs` and the
//! `figures -- fuzz` gate. Nothing executes from it: `prepare` computes
//! no bound, and each batch picks its strategy from the bindings it
//! actually holds ([`xvc_rel::PreparedPlan::execute_batch_shared`]).

use xvc_rel::facts::{analyze_query, child_facts, query_cardinality, FactSet};
use xvc_rel::{Card, CardBound, Catalog, SelectQuery};

use crate::schema_tree::{SchemaTree, ViewNodeId};

/// Cardinality bounds for one view node (see module docs).
#[derive(Debug, Clone)]
pub struct NodeBounds {
    /// Element instances per parent instance, with its justifying chain.
    pub fan_out: CardBound,
    /// Instances within one root-level subtree task.
    pub per_task: Card,
    /// Instances across the whole document.
    pub global: Card,
}

/// Whole-tree cardinality analysis: per-node bounds plus the derived
/// document-growth and batch-size bounds.
#[derive(Debug, Clone)]
pub struct ViewBounds {
    /// Indexed by arena id; `None` for the implied root.
    per_node: Vec<Option<NodeBounds>>,
    /// Arena parent of each node (`None` for the root), so batch bounds
    /// can be answered without re-walking the tree.
    parents: Vec<Option<ViewNodeId>>,
    /// Bound on total elements published (sum of global instances).
    pub document: Card,
    /// Bound on the largest binding batch any (view node, wave) carries.
    pub max_batch: Card,
}

impl ViewBounds {
    /// The bounds of one view node (`None` for the root).
    pub fn node(&self, vid: ViewNodeId) -> Option<&NodeBounds> {
        self.per_node.get(vid.index()).and_then(Option::as_ref)
    }

    /// Bound on the number of bindings a batched execution of `vid`'s tag
    /// query (or guard probe) can carry: the per-task instance bound of
    /// its parent. Root-level nodes run in the sequential root pass, one
    /// binding at a time.
    pub fn batch_bound(&self, vid: ViewNodeId) -> Card {
        match self.parent_of(vid) {
            Some(p) => self.node(p).map_or(Card::AtMostOne, |b| b.per_task),
            None => Card::AtMostOne,
        }
    }

    fn parent_of(&self, vid: ViewNodeId) -> Option<ViewNodeId> {
        self.parents.get(vid.index()).copied().flatten()
    }
}

/// The larger of two bounds (join of the `Card` lattice).
fn card_max(a: Card, b: Card) -> Card {
    match (a.as_limit(), b.as_limit()) {
        (Some(x), Some(y)) => {
            if x >= y {
                a
            } else {
                b
            }
        }
        _ => Card::Unbounded,
    }
}

/// Analyzes every node of `tree` against `catalog`, flowing parameter
/// facts down binding paths (a parent tag query's narrowed facts and
/// `$bv.column` output facts constrain every descendant's bound).
pub fn analyze_view_bounds(tree: &SchemaTree, catalog: &Catalog) -> ViewBounds {
    let ids = tree.ids();
    let n = ids.len();
    let mut bounds = ViewBounds {
        per_node: (0..n).map(|_| None).collect(),
        parents: (0..n).map(|_| None).collect(),
        document: Card::Zero,
        max_batch: Card::Zero,
    };
    let env = FactSet::new();
    for &child in tree.children(tree.root()) {
        // One task per root element instance: inside a task the root-level
        // node has exactly one instance, globally its tag query bounds it.
        visit(
            tree,
            catalog,
            child,
            &env,
            true,
            Card::AtMostOne,
            &mut bounds,
        );
    }
    for b in bounds.per_node.iter().flatten() {
        bounds.document = bounds.document.plus(b.global);
    }
    for vid in tree.node_ids() {
        // Root-level nodes never batch (sequential root pass).
        if tree.parent(vid) != Some(tree.root()) {
            bounds.max_batch = card_max(bounds.max_batch, bounds.batch_bound(vid));
        }
    }
    bounds
}

fn visit(
    tree: &SchemaTree,
    catalog: &Catalog,
    vid: ViewNodeId,
    env: &FactSet,
    is_task_root: bool,
    parent_global: Card,
    bounds: &mut ViewBounds,
) {
    let node = tree.node(vid).expect("non-root id");
    bounds.parents[vid.index()] = tree.parent(vid);

    // The node's own fan-out. Literal and context-copy nodes emit exactly
    // once per parent instance; a context copy re-binds the reused tuple
    // under bv.
    let query = (node.query.as_ref()).filter(|_| node.context_tuple_of.is_none());
    let card = query.map(|q| query_cardinality(q, catalog, env));
    // An emission guard can only suppress the node, never multiply it.
    // Its probe is the one the publisher executes, so the fact engine
    // analyzes the same conjuncts.
    let guard =
        (node.guard.as_ref()).map(|g| analyze_query(&SelectQuery::guard_probe(g), catalog, env));
    let fan_out = match (&guard, &card) {
        (Some(g), _) if g.empty => CardBound::new(Card::Zero, g.empty_chain.clone()),
        (_, Some(c)) => c.total.clone(),
        (_, None) => CardBound::new(
            Card::AtMostOne,
            vec!["literal/context node: one instance per parent".to_owned()],
        ),
    };
    let child_env = child_facts(
        query.zip(card.as_ref().map(|c| &c.analysis)),
        &node.bv,
        guard.as_ref(),
    );

    let per_task = if is_task_root {
        // The task is cut per root element instance.
        Card::AtMostOne
    } else {
        let parent_per_task = tree
            .parent(vid)
            .and_then(|p| bounds.per_node[p.index()].as_ref())
            .map_or(Card::AtMostOne, |b| b.per_task);
        parent_per_task.times(fan_out.card)
    };
    let global = parent_global.times(fan_out.card);

    bounds.per_node[vid.index()] = Some(NodeBounds {
        fan_out,
        per_task,
        global,
    });

    let env_ref = child_env.as_ref().unwrap_or(env);
    for &c in tree.children(vid) {
        visit(tree, catalog, c, env_ref, false, global, bounds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema_tree::ViewNode;
    use xvc_rel::{parse_query, ColumnDef, ColumnType, Database, ScalarExpr, TableSchema};

    fn catalog() -> Catalog {
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
                    ColumnDef::new("metro_id", ColumnType::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db.catalog()
    }

    fn node(id: u32, tag: &str, bv: &str, sql: &str) -> ViewNode {
        ViewNode::new(id, tag, bv, parse_query(sql).unwrap())
    }

    #[test]
    fn fan_out_flows_parent_to_child() {
        let mut t = SchemaTree::new();
        let metro = t
            .add_root_node(node(1, "metro", "m", "SELECT metroid FROM metroarea"))
            .unwrap();
        let hotel = t
            .add_child(
                metro,
                node(
                    2,
                    "hotel",
                    "h",
                    "SELECT * FROM hotel WHERE metro_id=$m.metroid",
                ),
            )
            .unwrap();
        // Pinned on the full metroarea key through the $h binding.
        let home = t
            .add_child(
                hotel,
                node(
                    3,
                    "home",
                    "x",
                    "SELECT metroname FROM metroarea WHERE metroid=$h.metro_id",
                ),
            )
            .unwrap();
        let b = analyze_view_bounds(&t, &catalog());
        assert_eq!(b.node(metro).unwrap().fan_out.card, Card::Unbounded);
        assert_eq!(b.node(hotel).unwrap().fan_out.card, Card::Unbounded);
        assert_eq!(b.node(home).unwrap().fan_out.card, Card::AtMostOne);
        // Hotel batches over the task root's single instance; home batches
        // over the task's (unbounded) hotel instances.
        assert_eq!(b.batch_bound(hotel), Card::AtMostOne);
        assert_eq!(b.batch_bound(home), Card::Unbounded);
        assert_eq!(b.max_batch, Card::Unbounded);
        assert_eq!(b.document, Card::Unbounded);
    }

    #[test]
    fn implicit_aggregate_bounds_to_one() {
        let mut t = SchemaTree::new();
        let metro = t
            .add_root_node(node(1, "metro", "m", "SELECT metroid FROM metroarea"))
            .unwrap();
        let stat = t
            .add_child(
                metro,
                node(
                    2,
                    "stat",
                    "s",
                    "SELECT COUNT(*) FROM hotel WHERE metro_id=$m.metroid",
                ),
            )
            .unwrap();
        let b = analyze_view_bounds(&t, &catalog());
        let nb = b.node(stat).unwrap();
        assert_eq!(nb.fan_out.card, Card::AtMostOne);
        assert!(
            nb.fan_out.chain.iter().any(|c| c.contains("aggregat")),
            "{:?}",
            nb.fan_out.chain
        );
        // One stat per task (the task root has one instance), but the
        // root fans out freely across the document.
        assert_eq!(nb.per_task, Card::AtMostOne);
        assert_eq!(nb.global, Card::Unbounded);
    }

    #[test]
    fn literal_nodes_and_dead_guards() {
        use xvc_rel::BinOp;
        let mut t = SchemaTree::new();
        let metro = t
            .add_root_node(node(1, "metro", "m", "SELECT metroid FROM metroarea"))
            .unwrap();
        let badge = t.add_child(metro, ViewNode::literal(2, "badge")).unwrap();
        let mut dead = ViewNode::literal(3, "never");
        dead.guard = Some(ScalarExpr::binary(
            BinOp::Eq,
            ScalarExpr::int(1),
            ScalarExpr::int(2),
        ));
        let dead = t.add_child(metro, dead).unwrap();
        let b = analyze_view_bounds(&t, &catalog());
        assert_eq!(b.node(badge).unwrap().fan_out.card, Card::AtMostOne);
        assert_eq!(b.node(dead).unwrap().fan_out.card, Card::Zero);
        assert_eq!(b.node(dead).unwrap().global, Card::Zero);
    }

    #[test]
    fn single_root_key_pin_bounds_whole_document() {
        // Root pinned to one metroarea row by its primary key; the child
        // is pinned on hotel's key through a literal. Every level <= 1.
        let mut t = SchemaTree::new();
        let metro = t
            .add_root_node(node(
                1,
                "metro",
                "m",
                "SELECT metroid FROM metroarea WHERE metroid = 7",
            ))
            .unwrap();
        let hotel = t
            .add_child(
                metro,
                node(2, "hotel", "h", "SELECT * FROM hotel WHERE hotelid = 3"),
            )
            .unwrap();
        let b = analyze_view_bounds(&t, &catalog());
        assert!(b.node(metro).unwrap().fan_out.card.at_most_one());
        assert!(b.node(hotel).unwrap().fan_out.card.at_most_one());
        assert_eq!(b.document, Card::Bounded(2));
        assert_eq!(b.max_batch, Card::AtMostOne);
    }
}
