//! Quickstart: define a relational database, publish it as XML through a
//! schema-tree view, and compose an XSLT stylesheet away into SQL.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use xvc::prelude::*;

fn main() {
    // 1. A tiny relational database.
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "city",
            vec![
                ColumnDef::new("id", ColumnType::Int),
                ColumnDef::new("name", ColumnType::Str),
                ColumnDef::new("population", ColumnType::Int),
            ],
        )
        .expect("valid schema"),
    )
    .expect("valid table");
    for (id, name, pop) in [
        (1, "chicago", 2_700_000),
        (2, "nyc", 8_300_000),
        (3, "galena", 3_200),
    ] {
        db.insert(
            "city",
            vec![Value::Int(id), Value::Str(name.into()), Value::Int(pop)],
        )
        .expect("row fits schema");
    }

    // 2. An XML-publishing view (Definition 1): one <city> element per row.
    let mut view = SchemaTree::new();
    view.add_root_node(ViewNode::new(
        1,
        "city",
        "c",
        parse_query("SELECT id, name, population FROM city").expect("valid SQL"),
    ))
    .expect("valid view");

    println!("== the publishing view v ==\n{}", view.render());
    let published = Engine::new(&view).session().publish(&db).expect("publish");
    let (doc, stats) = (published.document, published.stats);
    println!("== v(I) ==\n{}", doc.to_pretty_xml());
    println!("(materialized {} elements)\n", stats.elements);

    // 3. An XSLT stylesheet: select big cities, restructure, project a
    //    single attribute.
    let xslt = parse_stylesheet(
        r#"<xsl:stylesheet>
             <xsl:template match="/">
               <big_cities><xsl:apply-templates select="city[@population&gt;1000000]"/></big_cities>
             </xsl:template>
             <xsl:template match="city">
               <metropolis><xsl:value-of select="@name"/></metropolis>
             </xsl:template>
           </xsl:stylesheet>"#,
    )
    .expect("valid stylesheet");

    // 4. The naive strategy: materialize v(I), run the stylesheet.
    let expected = process(&xslt, &doc).expect("engine");
    println!("== x(v(I)) — naive ==\n{}", expected.to_pretty_xml());

    // 5. Composition: the stylesheet disappears into SQL.
    let composed = Composer::new(&view, &xslt, &db.catalog())
        .run()
        .expect("composable")
        .view;
    println!("== the stylesheet view v' ==\n{}", composed.render());
    let published = Engine::new(&composed)
        .session()
        .publish(&db)
        .expect("publish v'");
    let (direct, stats) = (published.document, published.stats);
    println!("== v'(I) — composed ==\n{}", direct.to_pretty_xml());
    println!(
        "(materialized {} elements — the result only)",
        stats.elements
    );

    assert!(documents_equal_unordered(&expected, &direct));
    println!("\nv'(I) = x(v(I))  ✓");
}
