//! Textual rendering of schema-tree queries, in the style of the paper's
//! Figure 1 / Figure 7 artwork: one node per line with tag, binding
//! variable, parameters and the tag query indented beneath.

use crate::schema_tree::{SchemaTree, ViewNodeId};

impl SchemaTree {
    /// Renders the whole tree (used by the `figures` binary and golden
    /// tests).
    pub fn render(&self) -> String {
        let mut out = String::from("/\n");
        for &c in self.children(self.root()) {
            self.render_node(c, 1, &mut out);
        }
        out
    }

    fn render_node(&self, vid: ViewNodeId, depth: usize, out: &mut String) {
        let n = self.node(vid).expect("non-root");
        let indent = "  ".repeat(depth);
        let Some(query) = &n.query else {
            let marker = match &n.context_tuple_of {
                Some(var) => format!("[copy of ${var}]"),
                None => "[literal]".to_owned(),
            };
            let guard = match &n.guard {
                Some(g) => format!("  [guard: {}]", g.to_condition_inline()),
                None => String::new(),
            };
            out.push_str(&format!(
                "{indent}({id}) <{tag}>  {marker}{guard}\n",
                id = n.id,
                tag = n.tag,
            ));
            for &c in self.children(vid) {
                self.render_node(c, depth + 1, out);
            }
            return;
        };
        let params = query.parameters();
        let params_str = if params.is_empty() {
            String::new()
        } else {
            format!(
                "  [params: {}]",
                params
                    .iter()
                    .map(|p| format!("${p}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        };
        out.push_str(&format!(
            "{indent}({id}) <{tag}> ${bv}{params_str}\n",
            id = n.id,
            tag = n.tag,
            bv = n.bv,
        ));
        let q_indent = format!("{indent}    ");
        out.push_str(&format!("{q_indent}Q_{} =\n", n.bv));
        for line in query.to_sql().lines() {
            out.push_str(&q_indent);
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
        for &c in self.children(vid) {
            self.render_node(c, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::schema_tree::{SchemaTree, ViewNode};
    use xvc_rel::parse_query;

    #[test]
    fn renders_tree_with_queries_and_params() {
        let mut t = SchemaTree::new();
        let metro = t
            .add_root_node(ViewNode::new(
                1,
                "metro",
                "m",
                parse_query("SELECT metroid, metroname FROM metroarea").unwrap(),
            ))
            .unwrap();
        t.add_child(
            metro,
            ViewNode::new(
                3,
                "hotel",
                "h",
                parse_query("SELECT * FROM hotel WHERE metro_id=$m.metroid").unwrap(),
            ),
        )
        .unwrap();
        let r = t.render();
        assert!(r.starts_with("/\n  (1) <metro> $m\n"));
        assert!(r.contains("(3) <hotel> $h  [params: $m]"));
        assert!(r.contains("SELECT metroid, metroname"));
        assert!(r.contains("WHERE metro_id = $m.metroid"));
    }

    #[test]
    fn renders_a_guard_as_its_condition() {
        let mut t = SchemaTree::new();
        let metro = t
            .add_root_node(ViewNode::new(
                1,
                "metro",
                "m",
                parse_query("SELECT metroid, metroname FROM metroarea").unwrap(),
            ))
            .unwrap();
        let mut big = ViewNode::literal(2, "big");
        big.guard = parse_query(
            "SELECT 1 FROM metroarea WHERE $m.metroid > 1 AND $m.metroid < 9 \
             AND ($m.metroname = 'a' OR $m.metroname = 'it''s')",
        )
        .unwrap()
        .where_clause;
        t.add_child(metro, big).unwrap();
        let r = t.render();
        assert!(
            r.ends_with(
                "\n    (2) <big>  [literal]  [guard: $m.metroid > 1 AND $m.metroid < 9 \
                 AND ($m.metroname = 'a' OR $m.metroname = 'it''s')]\n"
            ),
            "{r}"
        );
    }
}
