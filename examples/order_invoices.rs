//! A second domain — order/invoice publishing — showing that nothing in
//! the library is tied to the paper's hotel example. Builds a fresh
//! relational schema, a two-branch publishing view (line items and a
//! per-order total, mirroring the paper's detail/summary split), and an
//! invoice stylesheet with flow control and predicates; composes it and
//! prints the invoice XML straight from SQL.
//!
//! ```text
//! cargo run --example order_invoices
//! ```

use xvc::prelude::*;

fn build_database() -> Database {
    let mut db = Database::new();
    db.create_table(
        TableSchema::new(
            "customer",
            vec![
                ColumnDef::new("cid", ColumnType::Int),
                ColumnDef::new("cname", ColumnType::Str),
                ColumnDef::new("tier", ColumnType::Str),
            ],
        )
        .expect("valid schema"),
    )
    .expect("valid table");
    db.create_table(
        TableSchema::new(
            "orders",
            vec![
                ColumnDef::new("oid", ColumnType::Int),
                ColumnDef::new("o_cid", ColumnType::Int),
                ColumnDef::new("odate", ColumnType::Str),
            ],
        )
        .expect("valid schema"),
    )
    .expect("valid table");
    db.create_table(
        TableSchema::new(
            "lineitem",
            vec![
                ColumnDef::new("lid", ColumnType::Int),
                ColumnDef::new("l_oid", ColumnType::Int),
                ColumnDef::new("product", ColumnType::Str),
                ColumnDef::new("qty", ColumnType::Int),
                ColumnDef::new("price", ColumnType::Int),
            ],
        )
        .expect("valid schema"),
    )
    .expect("valid table");
    let i = Value::Int;
    let s = |x: &str| Value::Str(x.into());
    for (cid, name, tier) in [(1, "acme", "gold"), (2, "initech", "basic")] {
        db.insert("customer", vec![i(cid), s(name), s(tier)])
            .unwrap();
    }
    for (oid, cid, date) in [
        (100, 1, "2026-07-01"),
        (101, 1, "2026-07-03"),
        (102, 2, "2026-07-04"),
    ] {
        db.insert("orders", vec![i(oid), i(cid), s(date)]).unwrap();
    }
    for (lid, oid, product, qty, price) in [
        (1, 100, "widget", 3, 40),
        (2, 100, "sprocket", 1, 250),
        (3, 101, "widget", 10, 40),
        (4, 102, "gadget", 2, 99),
    ] {
        db.insert(
            "lineitem",
            vec![i(lid), i(oid), s(product), i(qty), i(price)],
        )
        .unwrap();
    }
    db
}

fn build_view() -> SchemaTree {
    let mut v = SchemaTree::new();
    let customer = v
        .add_root_node(ViewNode::new(
            1,
            "customer",
            "c",
            parse_query("SELECT cid, cname, tier FROM customer").expect("valid SQL"),
        ))
        .expect("valid view");
    let order = v
        .add_child(
            customer,
            ViewNode::new(
                2,
                "order",
                "o",
                parse_query("SELECT oid, odate FROM orders WHERE o_cid = $c.cid")
                    .expect("valid SQL"),
            ),
        )
        .expect("valid view");
    // Detail branch: one <item> per line item.
    v.add_child(
        order,
        ViewNode::new(
            3,
            "item",
            "li",
            parse_query("SELECT product, qty, price FROM lineitem WHERE l_oid = $o.oid")
                .expect("valid SQL"),
        ),
    )
    .expect("valid view");
    // Summary branch: per-order total (implicit aggregation — always one
    // row, even for empty orders).
    v.add_child(
        order,
        ViewNode::new(
            4,
            "total",
            "t",
            parse_query("SELECT SUM(qty * price) FROM lineitem WHERE l_oid = $o.oid")
                .expect("valid SQL"),
        ),
    )
    .expect("valid view");
    v
}

fn main() {
    let db = build_database();
    let view = build_view();
    println!("== publishing view ==\n{}", view.render());

    // Invoices for gold customers only; big orders get a badge; each
    // invoice lists items over a threshold plus the order total.
    let stylesheet = parse_stylesheet(
        r#"<xsl:stylesheet>
             <xsl:template match="/">
               <invoices><xsl:apply-templates select="customer[@tier='gold']"/></invoices>
             </xsl:template>
             <xsl:template match="customer">
               <invoice_set>
                 <xsl:value-of select="@cname"/>
                 <xsl:apply-templates select="order"/>
               </invoice_set>
             </xsl:template>
             <xsl:template match="order">
               <invoice>
                 <xsl:value-of select="@odate"/>
                 <xsl:apply-templates select="item[@qty&gt;1]"/>
                 <xsl:apply-templates select="total"/>
               </invoice>
             </xsl:template>
             <xsl:template match="item">
               <xsl:choose>
                 <xsl:when test="@price&gt;100"><line premium="yes"><xsl:value-of select="."/></line></xsl:when>
                 <xsl:otherwise><line><xsl:value-of select="."/></line></xsl:otherwise>
               </xsl:choose>
             </xsl:template>
             <xsl:template match="total">
               <amount_due><xsl:value-of select="@sum"/></amount_due>
             </xsl:template>
           </xsl:stylesheet>"#,
    )
    .expect("valid stylesheet");

    let composition = Composer::new(&view, &stylesheet, &db.catalog())
        .rewrites(true)
        .run()
        .expect("composable");
    let (composed, lowered) = (&composition.view, &composition.stylesheet);
    println!(
        "== composed stylesheet view ({} lowered rules) ==\n{}",
        lowered.len(),
        composed.render()
    );

    let published = Engine::new(composed)
        .session()
        .publish(&db)
        .expect("publish v'");
    let (invoices, stats) = (published.document, published.stats);
    println!(
        "== invoices, straight from SQL ==\n{}",
        invoices.to_pretty_xml()
    );

    // Cross-check against the reference pipeline.
    let naive = Engine::new(&view)
        .session()
        .publish(&db)
        .expect("publish v");
    let (full, naive_stats) = (naive.document, naive.stats);
    let expected = process(&stylesheet, &full).expect("engine");
    assert!(documents_equal_unordered(&expected, &invoices));
    println!(
        "v'(I) = x(v(I))  ✓   (composed: {} elements / naive view alone: {})",
        stats.elements, naive_stats.elements
    );
}
