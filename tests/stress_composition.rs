//! Stress tests for the composition algorithm beyond the paper's fixtures:
//! conflicting rules, ambiguous tag names (one select expression reaching
//! several schema-tree nodes), rebind chains from flow-control rewrites,
//! and views with static attributes.

use xvc::prelude::*;

// Local shims over the builder API: the deprecated free functions are
// exercised only by the dedicated compat tests.
fn compose(v: &SchemaTree, x: &Stylesheet, c: &Catalog) -> xvc::core::Result<SchemaTree> {
    Composer::new(v, x, c).run().map(|c| c.view)
}

fn publish(v: &SchemaTree, db: &Database) -> xvc::view::Result<(Document, PublishStats)> {
    Engine::new(v)
        .session()
        .publish(db)
        .map(|p| (p.document, p.stats))
}

/// A view where one select expression reaches *two* schema-tree nodes with
/// the same tag under one parent — the multigraph case: one CTG node per
/// (node, rule) but several TVQ children for one apply-templates.
fn twin_tag_view_and_db() -> (SchemaTree, Database) {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "dept",
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
            "emp",
            vec![
                ColumnDef::new("eid", ColumnType::Int),
                ColumnDef::new("dept_id", ColumnType::Int),
                ColumnDef::new("senior", ColumnType::Int),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    for (id, name) in [(1, "eng"), (2, "ops")] {
        db.insert("dept", vec![Value::Int(id), Value::Str(name.into())])
            .unwrap();
    }
    for (eid, d, s) in [(10, 1, 1), (11, 1, 0), (12, 2, 1)] {
        db.insert("emp", vec![Value::Int(eid), Value::Int(d), Value::Int(s)])
            .unwrap();
    }

    let mut v = SchemaTree::new();
    let dept = v
        .add_root_node(ViewNode::new(
            1,
            "dept",
            "d",
            parse_query("SELECT id, name FROM dept").unwrap(),
        ))
        .unwrap();
    // Two children with the SAME tag: seniors and juniors.
    v.add_child(
        dept,
        ViewNode::new(
            2,
            "person",
            "p1",
            parse_query("SELECT eid FROM emp WHERE dept_id = $d.id AND senior = 1").unwrap(),
        ),
    )
    .unwrap();
    v.add_child(
        dept,
        ViewNode::new(
            3,
            "person",
            "p2",
            parse_query("SELECT eid FROM emp WHERE dept_id = $d.id AND senior = 0").unwrap(),
        ),
    )
    .unwrap();
    (v, db)
}

fn assert_equiv(v: &SchemaTree, xslt: &str, db: &Database, rewrites: bool) {
    let x = parse_stylesheet(xslt).unwrap();
    let composed = Composer::new(v, &x, &db.catalog())
        .rewrites(rewrites)
        .run()
        .unwrap()
        .view;
    let (full, _) = publish(v, db).unwrap();
    let expected = process(&x, &full).unwrap();
    let (actual, _) = publish(&composed, db).unwrap();
    assert!(
        documents_equal_unordered(&expected, &actual),
        "expected:\n{}\nactual:\n{}\ncomposed:\n{}",
        expected.to_pretty_xml(),
        actual.to_pretty_xml(),
        composed.render()
    );
}

#[test]
fn one_select_reaching_two_view_nodes() {
    let (v, db) = twin_tag_view_and_db();
    // "person" from dept selects instances of BOTH view nodes 2 and 3: the
    // CTG has two edges for one apply-templates, the TVQ two children.
    assert_equiv(
        &v,
        r#"<xsl:stylesheet>
             <xsl:template match="/"><r><xsl:apply-templates select="dept"/></r></xsl:template>
             <xsl:template match="dept"><d><xsl:apply-templates select="person"/></d></xsl:template>
             <xsl:template match="person"><xsl:value-of select="."/></xsl:template>
           </xsl:stylesheet>"#,
        &db,
        false,
    );
}

#[test]
fn conflicting_rules_compose_via_rewrites() {
    let (v, db) = twin_tag_view_and_db();
    // Two same-mode rules both matching <person>: the engine resolves by
    // priority; composition needs the Figure 24 rewrite first.
    assert_equiv(
        &v,
        r#"<xsl:stylesheet>
             <xsl:template match="/"><r><xsl:apply-templates select="dept/person"/></r></xsl:template>
             <xsl:template match="person[@eid&gt;11]" priority="2"><vip/></xsl:template>
             <xsl:template match="person"><regular/></xsl:template>
           </xsl:stylesheet>"#,
        &db,
        true,
    );
}

#[test]
fn chained_ifs_build_rebind_chains() {
    let (v, db) = twin_tag_view_and_db();
    // Nested xsl:if lowers to a chain of `.[guard]` transitions: rebind
    // nodes stacked on rebind nodes.
    assert_equiv(
        &v,
        r#"<xsl:stylesheet>
             <xsl:template match="/"><r><xsl:apply-templates select="dept"/></r></xsl:template>
             <xsl:template match="dept">
               <d>
                 <xsl:if test="@name='eng'">
                   <eng_badge/>
                   <xsl:if test="@id=1"><primary/></xsl:if>
                 </xsl:if>
               </d>
             </xsl:template>
           </xsl:stylesheet>"#,
        &db,
        true,
    );
}

#[test]
fn static_attributes_survive_composition() {
    let (v, db) = twin_tag_view_and_db();
    let x = parse_stylesheet(
        r#"<xsl:stylesheet>
             <xsl:template match="/"><r lang="en"><xsl:apply-templates select="dept"/></r></xsl:template>
             <xsl:template match="dept"><d class="department"><xsl:value-of select="@name"/></d></xsl:template>
           </xsl:stylesheet>"#,
    )
    .unwrap();
    let composed = compose(&v, &x, &db.catalog()).unwrap();
    let (doc, _) = publish(&composed, &db).unwrap();
    let xml = doc.to_xml();
    assert!(xml.starts_with("<r lang=\"en\">"), "{xml}");
    assert!(
        xml.contains("<d class=\"department\" name=\"eng\"/>"),
        "{xml}"
    );
    // And it matches the engine.
    let (full, _) = publish(&v, &db).unwrap();
    let expected = process(&x, &full).unwrap();
    assert!(documents_equal_unordered(&expected, &doc));
}

#[test]
fn empty_stylesheet_with_root_rule_only() {
    let (v, db) = twin_tag_view_and_db();
    assert_equiv(
        &v,
        r#"<xsl:stylesheet>
             <xsl:template match="/"><empty_result/></xsl:template>
           </xsl:stylesheet>"#,
        &db,
        false,
    );
}

#[test]
fn mode_fanout_duplicates_subtrees() {
    let (v, db) = twin_tag_view_and_db();
    // The same node processed in two modes: two TVQ subtrees over one
    // schema-tree node.
    assert_equiv(
        &v,
        r#"<xsl:stylesheet>
             <xsl:template match="/">
               <r>
                 <xsl:apply-templates select="dept" mode="brief"/>
                 <xsl:apply-templates select="dept" mode="full"/>
               </r>
             </xsl:template>
             <xsl:template match="dept" mode="brief"><b><xsl:value-of select="@name"/></b></xsl:template>
             <xsl:template match="dept" mode="full">
               <f><xsl:apply-templates select="person"/></f>
             </xsl:template>
             <xsl:template match="person"><xsl:value-of select="."/></xsl:template>
           </xsl:stylesheet>"#,
        &db,
        false,
    );
}

#[test]
fn multi_element_fragments_share_the_carrier() {
    let (v, db) = twin_tag_view_and_db();
    // Two top-level elements in one rule body: both iterate the rule's
    // tuples (each gets its own uniquified binding variable).
    assert_equiv(
        &v,
        r#"<xsl:stylesheet>
             <xsl:template match="/"><r><xsl:apply-templates select="dept"/></r></xsl:template>
             <xsl:template match="dept">
               <header><xsl:value-of select="@name"/></header>
               <body><xsl:apply-templates select="person"/></body>
             </xsl:template>
             <xsl:template match="person"><xsl:value-of select="."/></xsl:template>
           </xsl:stylesheet>"#,
        &db,
        false,
    );
}

#[test]
fn negated_existence_composes() {
    // not(path) predicates become NOT EXISTS; uses the Figure 1 view where
    // the branch path is unambiguous.
    use xvc::core::paper_fixtures::{figure1_view, sample_database};
    let v = figure1_view();
    let db = sample_database();
    let x = parse_stylesheet(
        r#"<xsl:stylesheet>
             <xsl:template match="/"><r><xsl:apply-templates select="metro/hotel[not(confroom[@capacity&gt;200])]"/></r></xsl:template>
             <xsl:template match="hotel"><small_rooms_only><xsl:value-of select="@hotelname"/></small_rooms_only></xsl:template>
           </xsl:stylesheet>"#,
    )
    .unwrap();
    let composed = compose(&v, &x, &db.catalog()).unwrap();
    // The generated SQL contains a NOT EXISTS.
    assert!(
        composed.render().contains("NOT (EXISTS ("),
        "{}",
        composed.render()
    );
    let (full, _) = publish(&v, &db).unwrap();
    let expected = process(&x, &full).unwrap();
    let (actual, _) = publish(&composed, &db).unwrap();
    assert!(
        documents_equal_unordered(&expected, &actual),
        "expected:
{}
actual:
{}",
        expected.to_pretty_xml(),
        actual.to_pretty_xml()
    );
}

#[test]
fn for_each_composes_via_rewrites() {
    let (v, db) = twin_tag_view_and_db();
    assert_equiv(
        &v,
        r#"<xsl:stylesheet>
             <xsl:template match="/"><r><xsl:apply-templates select="dept"/></r></xsl:template>
             <xsl:template match="dept">
               <d>
                 <xsl:for-each select="person"><row><xsl:value-of select="."/></row></xsl:for-each>
               </d>
             </xsl:template>
           </xsl:stylesheet>"#,
        &db,
        true,
    );
}

#[test]
fn descendant_selects_compose() {
    // `//` in selects is outside XSLT_basic (restriction (9)); the
    // abstract walk lifts it by expanding each schema-reachable endpoint
    // into an explicit chain.
    use xvc::core::paper_fixtures::{figure1_view, sample_database};
    let v = figure1_view();
    let db = sample_database();
    for xslt in [
        // Both confstat levels through one select.
        r#"<xsl:stylesheet>
             <xsl:template match="/"><r><xsl:apply-templates select="metro//confstat"/></r></xsl:template>
             <xsl:template match="confstat"><s><xsl:value-of select="@sum"/></s></xsl:template>
           </xsl:stylesheet>"#,
        // Deep jump straight to the grandchild.
        r#"<xsl:stylesheet>
             <xsl:template match="/"><r><xsl:apply-templates select="//metro_available"/></r></xsl:template>
             <xsl:template match="metro_available"><xsl:value-of select="."/></xsl:template>
           </xsl:stylesheet>"#,
        // Descendant with a predicate on the endpoint.
        r#"<xsl:stylesheet>
             <xsl:template match="/"><r><xsl:apply-templates select="metro//confroom[@capacity&gt;200]"/></r></xsl:template>
             <xsl:template match="confroom"><big/></xsl:template>
           </xsl:stylesheet>"#,
    ] {
        let x = parse_stylesheet(xslt).unwrap();
        let composed = compose(&v, &x, &db.catalog()).unwrap();
        let (full, _) = publish(&v, &db).unwrap();
        let expected = process(&x, &full).unwrap();
        let (actual, _) = publish(&composed, &db).unwrap();
        assert!(
            documents_equal_unordered(&expected, &actual),
            "{xslt}\nexpected:\n{}\nactual:\n{}",
            expected.to_pretty_xml(),
            actual.to_pretty_xml()
        );
    }
}

#[test]
fn deep_literal_nesting_around_applies() {
    let (v, db) = twin_tag_view_and_db();
    assert_equiv(
        &v,
        r#"<xsl:stylesheet>
             <xsl:template match="/">
               <html><body><table><tbody>
                 <xsl:apply-templates select="dept"/>
               </tbody></table></body></html>
             </xsl:template>
             <xsl:template match="dept">
               <tr><td><xsl:value-of select="@name"/></td><td><xsl:apply-templates select="person"/></td></tr>
             </xsl:template>
             <xsl:template match="person"><span><xsl:value-of select="@eid"/></span></xsl:template>
           </xsl:stylesheet>"#,
        &db,
        false,
    );
}
