//! A seeded generator of random `XSLT_basic` stylesheets over a given
//! schema-tree view — the fuzzing companion to the equivalence property:
//! whatever composable stylesheet the generator produces, the composed
//! view must agree with the reference engine on every instance.
//!
//! The generator builds a random *rule tree*: starting from the root rule,
//! each rule targets a view node and fires apply-templates at
//! schema-reachable nodes (child descents, optionally with a parent-axis
//! zigzag through a sibling), each in a fresh mode — fresh modes make the
//! stylesheet conflict-free by construction (`XSLT_basic` restriction
//! (6)). Bodies wrap results in literal elements and end in
//! `value-of "."` copies or `@column` projections drawn from the target's
//! actual output columns.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xvc_rel::{Catalog, ColumnType, ScalarExpr, SelectItem, TableRef};
use xvc_view::{SchemaTree, ViewNodeId};
use xvc_xpath::{Axis, Expr, NodeTest, PathExpr, Step};
use xvc_xslt::{ApplyTemplates, OutputNode, Stylesheet, TemplateRule};

/// Tuning knobs for the generator.
#[derive(Debug, Clone, Copy)]
pub struct StylesheetConfig {
    /// Maximum rule-tree depth below the root rule.
    pub max_depth: usize,
    /// Maximum apply-templates per rule.
    pub max_fanout: usize,
    /// Probability of a parent-axis zigzag (`../sibling`) in a select.
    pub zigzag_prob: f64,
    /// Probability that a leaf body is a `value-of "."` copy (vs. a
    /// `@column` projection).
    pub copy_prob: f64,
    /// Probability of a descendant-axis (`.//tag`) select.
    pub descendant_prob: f64,
    /// Probability of a comparison predicate on a select's endpoint.
    pub predicate_prob: f64,
}

impl Default for StylesheetConfig {
    fn default() -> Self {
        StylesheetConfig {
            max_depth: 3,
            max_fanout: 2,
            zigzag_prob: 0.25,
            copy_prob: 0.5,
            descendant_prob: 0.2,
            predicate_prob: 0.3,
        }
    }
}

impl StylesheetConfig {
    /// Recursion-heavy preset: deep rule trees with frequent parent-axis
    /// zigzags and descendant jumps, so the same view region is
    /// re-expanded over and over down a long rule chain — the closest
    /// `XSLT_basic`'s conflict-free fragment gets to recursion, and the
    /// worst case for the TVQ's duplication and the cardinality
    /// analysis's bound propagation.
    pub fn recursion_heavy() -> Self {
        StylesheetConfig {
            max_depth: 6,
            max_fanout: 2,
            zigzag_prob: 0.6,
            copy_prob: 0.5,
            descendant_prob: 0.35,
            predicate_prob: 0.3,
        }
    }

    /// Wide-fanout preset: shallow rule trees firing many sibling
    /// apply-templates per rule, so frontier waves carry many bindings —
    /// the stress case for the set-oriented batcher and the per-wave
    /// batch-size bounds.
    pub fn wide_fanout() -> Self {
        StylesheetConfig {
            max_depth: 2,
            max_fanout: 6,
            zigzag_prob: 0.1,
            copy_prob: 0.5,
            descendant_prob: 0.1,
            predicate_prob: 0.4,
        }
    }
}

/// Generates a random composable stylesheet over `view`.
pub fn random_stylesheet(
    view: &SchemaTree,
    catalog: &Catalog,
    seed: u64,
    cfg: StylesheetConfig,
) -> Stylesheet {
    let mut g = Gen {
        view,
        catalog,
        rng: StdRng::seed_from_u64(seed),
        cfg,
        rules: Vec::new(),
        mode_counter: 0,
    };
    // Root rule: fire at 1..=max_fanout top-level nodes.
    let mut root_body = Vec::new();
    let tops: Vec<ViewNodeId> = g.view.children(g.view.root()).to_vec();
    let fires = g.rng.gen_range(1..=g.cfg.max_fanout.max(1));
    for _ in 0..fires {
        let target = tops[g.rng.gen_range(0..tops.len())];
        let select = PathExpr {
            absolute: false,
            steps: vec![Step::child(g.view.tag(target).expect("non-root"))],
        };
        let mode = g.fresh_mode();
        root_body.push(OutputNode::ApplyTemplates(ApplyTemplates {
            select,
            mode: mode.clone(),
            with_params: Vec::new(),
            select_span: Default::default(),
        }));
        g.emit_rule(target, mode, 0);
    }
    let mut rules = vec![TemplateRule::new(
        PathExpr::root(),
        vec![OutputNode::Element {
            name: "gen_root".into(),
            attrs: Vec::new(),
            children: root_body,
        }],
    )];
    rules.extend(g.rules);
    Stylesheet { rules }
}

struct Gen<'a> {
    view: &'a SchemaTree,
    catalog: &'a Catalog,
    rng: StdRng,
    cfg: StylesheetConfig,
    rules: Vec<TemplateRule>,
    mode_counter: usize,
}

impl Gen<'_> {
    fn fresh_mode(&mut self) -> String {
        self.mode_counter += 1;
        format!("g{}", self.mode_counter)
    }

    /// Emits a rule matching `target`'s tag in `mode`, with a random body.
    fn emit_rule(&mut self, target: ViewNodeId, mode: String, depth: usize) {
        let tag = self.view.tag(target).expect("non-root").to_owned();
        let mut children: Vec<OutputNode> = Vec::new();

        // Terminal payload.
        if self.rng.gen_bool(self.cfg.copy_prob) {
            children.push(OutputNode::ValueOf {
                select: Expr::Path(PathExpr {
                    absolute: false,
                    steps: vec![Step::self_step()],
                }),
                span: Default::default(),
            });
        } else if let Some(col) = self.random_column(target) {
            children.push(OutputNode::ValueOf {
                select: Expr::Path(PathExpr {
                    absolute: false,
                    steps: vec![Step {
                        axis: Axis::Attribute,
                        test: NodeTest::Name(col),
                        predicates: Vec::new(),
                    }],
                }),
                span: Default::default(),
            });
        }

        // Recursive applies.
        if depth < self.cfg.max_depth {
            let fanout = self.rng.gen_range(0..=self.cfg.max_fanout);
            for _ in 0..fanout {
                if let Some((select, next)) = self.random_select(target) {
                    let mode = self.fresh_mode();
                    children.push(OutputNode::ApplyTemplates(ApplyTemplates {
                        select,
                        mode: mode.clone(),
                        with_params: Vec::new(),
                        select_span: Default::default(),
                    }));
                    self.emit_rule(next, mode, depth + 1);
                }
            }
        }

        let body = vec![OutputNode::Element {
            name: format!("out_{tag}"),
            attrs: Vec::new(),
            children,
        }];
        let mut rule = TemplateRule::new(
            PathExpr {
                absolute: false,
                steps: vec![Step::child(tag)],
            },
            body,
        );
        rule.mode = mode;
        self.rules.push(rule);
    }

    /// A random output column of the target's tag query (for `@col`
    /// projections); `None` when the columns cannot be determined
    /// statically.
    fn random_column(&mut self, target: ViewNodeId) -> Option<String> {
        let node = self.view.node(target)?;
        let q = node.query.as_ref()?;
        let cols = q.output_columns(&|n| self.catalog.get(n)).ok()?;
        if cols.is_empty() {
            return None;
        }
        let i = self.rng.gen_range(0..cols.len());
        Some(cols[i].clone())
    }

    /// A random endpoint predicate (`@col OP const`) over the node's
    /// *numeric* columns — comparing a string column against a number is
    /// type coercion, which `XSLT_basic` restriction (1) excludes (XPath
    /// would coerce through NaN while SQL yields NULL). Constants are
    /// small so both branches occur in practice.
    fn random_predicate(&mut self, target: ViewNodeId) -> Option<Expr> {
        if !self.rng.gen_bool(self.cfg.predicate_prob) {
            return None;
        }
        let numeric = self.numeric_columns(target);
        if numeric.is_empty() {
            return None;
        }
        let col = numeric[self.rng.gen_range(0..numeric.len())].clone();
        let ops = [
            xvc_xpath::ast::BinOp::Gt,
            xvc_xpath::ast::BinOp::Le,
            xvc_xpath::ast::BinOp::Ne,
        ];
        let op = ops[self.rng.gen_range(0..ops.len())];
        let bound = [0i64, 1, 2, 5, 100, 1000][self.rng.gen_range(0..6usize)];
        Some(Expr::Binary {
            op,
            lhs: Box::new(Expr::Path(PathExpr {
                absolute: false,
                steps: vec![Step {
                    axis: Axis::Attribute,
                    test: NodeTest::Name(col),
                    predicates: Vec::new(),
                }],
            })),
            rhs: Box::new(Expr::Number(bound as f64)),
        })
    }

    /// The target's output columns that are statically numeric: plain
    /// columns of INT/FLOAT type, or aggregate outputs.
    fn numeric_columns(&self, target: ViewNodeId) -> Vec<String> {
        let Some(node) = self.view.node(target) else {
            return Vec::new();
        };
        let Some(q) = &node.query else {
            return Vec::new();
        };
        // Column name → type across the FROM tables.
        let mut types: Vec<(String, ColumnType)> = Vec::new();
        for t in &q.from {
            if let TableRef::Named { name, .. } = t {
                if let Ok(schema) = self.catalog.get(name) {
                    for c in &schema.columns {
                        types.push((c.name.clone(), c.ty));
                    }
                }
            }
        }
        let numeric_base = |name: &str| {
            types
                .iter()
                .any(|(n, ty)| n == name && matches!(ty, ColumnType::Int | ColumnType::Float))
        };
        let mut out = Vec::new();
        for item in &q.select {
            match item {
                SelectItem::Star => {
                    for (n, ty) in &types {
                        if matches!(ty, ColumnType::Int | ColumnType::Float) && !out.contains(n) {
                            out.push(n.clone());
                        }
                    }
                }
                SelectItem::QualifiedStar(_) => {}
                SelectItem::Expr { expr, alias } => {
                    let (name, numeric) = match expr {
                        ScalarExpr::Column { name, .. } => (name.clone(), numeric_base(name)),
                        ScalarExpr::Aggregate { func, .. } => {
                            (func.default_column_name().to_owned(), true)
                        }
                        _ => continue,
                    };
                    let name = alias.clone().unwrap_or(name);
                    if numeric && !out.contains(&name) {
                        out.push(name);
                    }
                }
            }
        }
        out
    }

    /// A random schema-navigable select from `target`: a 1–2-step child
    /// descent, a `../sibling` zigzag, or a `.//descendant` jump (the
    /// lifted restriction (9)); endpoints may carry a value predicate.
    /// Returns the path and its (unique) endpoint; `None` when the node
    /// has nowhere to go.
    fn random_select(&mut self, target: ViewNodeId) -> Option<(PathExpr, ViewNodeId)> {
        if self.rng.gen_bool(self.cfg.descendant_prob) {
            if let Some(hit) = self.random_descendant_select(target) {
                return Some(hit);
            }
        }
        let zigzag = self.rng.gen_bool(self.cfg.zigzag_prob);
        if zigzag {
            // ../sibling (a sibling with a tag unique among siblings, so
            // the walk is deterministic).
            let parent = self.view.parent(target)?;
            if self.view.is_root(parent) {
                return None;
            }
            let siblings: Vec<ViewNodeId> = self
                .view
                .children(parent)
                .iter()
                .copied()
                .filter(|&s| s != target)
                .filter(|&s| {
                    let tag = self.view.tag(s);
                    self.view
                        .children(parent)
                        .iter()
                        .filter(|&&x| self.view.tag(x) == tag)
                        .count()
                        == 1
                })
                .collect();
            if siblings.is_empty() {
                return None;
            }
            let sib = siblings[self.rng.gen_range(0..siblings.len())];
            let mut last = Step::child(self.view.tag(sib).expect("non-root"));
            if let Some(pred) = self.random_predicate(sib) {
                last.predicates.push(pred);
            }
            let path = PathExpr {
                absolute: false,
                steps: vec![Step::parent(), last],
            };
            return Some((path, sib));
        }
        // Child descent of length 1 or 2.
        let kids: Vec<ViewNodeId> = self.view.children(target).to_vec();
        if kids.is_empty() {
            return None;
        }
        let first = kids[self.rng.gen_range(0..kids.len())];
        let mut steps = vec![Step::child(self.view.tag(first).expect("non-root"))];
        let mut end = first;
        if self.rng.gen_bool(0.4) {
            let grand: Vec<ViewNodeId> = self.view.children(first).to_vec();
            if !grand.is_empty() {
                let g = grand[self.rng.gen_range(0..grand.len())];
                steps.push(Step::child(self.view.tag(g).expect("non-root")));
                end = g;
            }
        }
        if let Some(pred) = self.random_predicate(end) {
            steps.last_mut().expect("non-empty").predicates.push(pred);
        }
        Some((
            PathExpr {
                absolute: false,
                steps,
            },
            end,
        ))
    }

    /// `.//tag` where `tag` is unique among the target's strict
    /// descendants (so the walk has a single endpoint, keeping the
    /// generated stylesheet's rule tree simple).
    fn random_descendant_select(&mut self, target: ViewNodeId) -> Option<(PathExpr, ViewNodeId)> {
        let mut descendants: Vec<ViewNodeId> = Vec::new();
        let mut stack: Vec<ViewNodeId> = self.view.children(target).to_vec();
        while let Some(n) = stack.pop() {
            descendants.push(n);
            stack.extend(self.view.children(n).iter().copied());
        }
        let unique: Vec<ViewNodeId> = descendants
            .iter()
            .copied()
            .filter(|&d| {
                let tag = self.view.tag(d);
                descendants
                    .iter()
                    .filter(|&&x| self.view.tag(x) == tag)
                    .count()
                    == 1
            })
            .collect();
        if unique.is_empty() {
            return None;
        }
        let end = unique[self.rng.gen_range(0..unique.len())];
        let mut step = Step {
            axis: Axis::Descendant,
            test: NodeTest::Name(self.view.tag(end).expect("non-root").to_owned()),
            predicates: Vec::new(),
        };
        if let Some(pred) = self.random_predicate(end) {
            step.predicates.push(pred);
        }
        Some((
            PathExpr {
                absolute: false,
                steps: vec![step],
            },
            end,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xvc_core::paper_fixtures::{figure1_view, figure2_catalog, sample_database};
    use xvc_core::Composer;
    use xvc_view::Engine;
    use xvc_xml::documents_equal_unordered;
    use xvc_xslt::{check_basic, process};

    #[test]
    fn generated_stylesheets_stay_in_the_composable_fragment() {
        // Predicates (restriction 4) and descendant selects (restriction
        // 9) are the deliberately-exercised extensions; everything else —
        // flow control, conflicts, variables, general value-of — must be
        // absent.
        let v = figure1_view();
        let c = figure2_catalog();
        for seed in 0..20 {
            let s = random_stylesheet(&v, &c, seed, StylesheetConfig::default());
            for violation in check_basic(&s) {
                assert!(
                    matches!(violation.restriction, 4 | 9),
                    "seed {seed}: {violation}"
                );
            }
        }
    }

    #[test]
    fn generated_stylesheets_compose_equivalently() {
        let v = figure1_view();
        let c = figure2_catalog();
        let db = sample_database();
        for seed in 0..40 {
            let s = random_stylesheet(&v, &c, seed, StylesheetConfig::default());
            let composed = Composer::new(&v, &s, &c)
                .run()
                .unwrap_or_else(|e| panic!("seed {seed}: compose: {e}\n{}", s.to_xslt()))
                .view;
            let full = Engine::new(&v).session().publish(&db).unwrap().document;
            let expected = process(&s, &full).unwrap();
            let actual = Engine::new(&composed)
                .session()
                .publish(&db)
                .unwrap()
                .document;
            assert!(
                documents_equal_unordered(&expected, &actual),
                "seed {seed}:\n{}\nexpected:\n{}\nactual:\n{}",
                s.to_xslt(),
                expected.to_pretty_xml(),
                actual.to_pretty_xml()
            );
        }
    }

    #[test]
    fn preset_configs_compose_equivalently() {
        let v = figure1_view();
        let c = figure2_catalog();
        let db = sample_database();
        let full = Engine::new(&v).session().publish(&db).unwrap().document;
        for cfg in [
            StylesheetConfig::recursion_heavy(),
            StylesheetConfig::wide_fanout(),
        ] {
            for seed in 0..12 {
                let s = random_stylesheet(&v, &c, seed, cfg);
                let composed = Composer::new(&v, &s, &c)
                    .run()
                    .unwrap_or_else(|e| panic!("seed {seed}: compose: {e}\n{}", s.to_xslt()))
                    .view;
                let expected = process(&s, &full).unwrap();
                let actual = Engine::new(&composed)
                    .session()
                    .publish(&db)
                    .unwrap()
                    .document;
                assert!(
                    documents_equal_unordered(&expected, &actual),
                    "cfg {cfg:?} seed {seed}:\n{}",
                    s.to_xslt()
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let v = figure1_view();
        let c = figure2_catalog();
        let a = random_stylesheet(&v, &c, 7, StylesheetConfig::default());
        let b = random_stylesheet(&v, &c, 7, StylesheetConfig::default());
        assert_eq!(a, b);
    }
}
