//! The paper's running artifacts, reconstructed verbatim:
//!
//! * [`figure2_catalog`] — the hotel-reservation relational schema, read
//!   from `examples/files/paper/figure2.sql`;
//! * [`figure1_view`] — the conference-planning schema-tree view query,
//!   read from `examples/files/paper/figure1.view`;
//! * [`FIGURE15_XSLT`], [`FIGURE17_XSLT`], [`FIGURE25_XSLT`] — the example
//!   stylesheets of §4.4, §5.1 and §5.3 (Figure 4 lives in
//!   [`xvc_xslt::parse::FIGURE4_XSLT`], read from
//!   `examples/files/paper/figure4.xsl`);
//! * [`sample_database`] — a small deterministic instance of the hotel
//!   schema used by unit and golden tests (benchmark-scale data lives in
//!   `xvc-bench`).
//!
//! The files are the one copy: `xvc check`, the walkthroughs and every
//! test read the same text.

use xvc_rel::{database_from_ddl, parse_ddl, Catalog, Database, Value};
use xvc_view::{parse_view, SchemaTree};

/// The DDL of Figure 2.
const FIGURE2_SQL: &str = include_str!("../../../examples/files/paper/figure2.sql");

/// The view definition of Figure 1.
const FIGURE1_VIEW: &str = include_str!("../../../examples/files/paper/figure1.view");

/// The hotel reservation schema of Figure 2.
pub fn figure2_catalog() -> Catalog {
    parse_ddl(FIGURE2_SQL).expect("figure2.sql is well-formed DDL")
}

/// An empty database over the Figure 2 schema.
pub fn figure2_database() -> Database {
    database_from_ddl(FIGURE2_SQL).expect("figure2.sql is well-formed DDL")
}

/// The schema-tree view query of Figure 1 (conference planning).
pub fn figure1_view() -> SchemaTree {
    parse_view(FIGURE1_VIEW).expect("figure1.view is a well-formed view")
}

/// Figure 15: like Figure 4, but rule R2 has no literal output — the
/// apply-templates sits at the top of the rule body, triggering *forced
/// unbinding* (§4.4).
pub const FIGURE15_XSLT: &str = r#"<xsl:stylesheet>
  <xsl:template match="/">
    <HTML>
      <HEAD></HEAD>
      <BODY>
        <xsl:apply-templates select="metro"/>
      </BODY>
    </HTML>
  </xsl:template>
  <xsl:template match="metro">
    <xsl:apply-templates select="hotel/confstat"/>
  </xsl:template>
  <xsl:template match="confstat">
    <result_confstat>
      <B></B>
      <xsl:apply-templates select="../hotel_available/../confroom"/>
    </result_confstat>
  </xsl:template>
  <xsl:template match="metro/hotel/confroom">
    <xsl:value-of select="."/>
  </xsl:template>
</xsl:stylesheet>"#;

/// Figure 17: Figure 4 with predicates (§5.1). R3's select carries value
/// and existence predicates; R4's match pattern tests `@metroname`.
pub const FIGURE17_XSLT: &str = r#"<xsl:stylesheet>
  <xsl:template match="/">
    <HTML>
      <HEAD></HEAD>
      <BODY>
        <xsl:apply-templates select="metro"/>
      </BODY>
    </HTML>
  </xsl:template>
  <xsl:template match="metro">
    <result_metro>
      <A></A>
      <xsl:apply-templates select="hotel/confstat"/>
    </result_metro>
  </xsl:template>
  <xsl:template match="confstat">
    <result_confstat>
      <B/>
      <xsl:apply-templates select=".[@sum&lt;200]/../hotel_available/../confroom[../confstat[@sum&gt;100]][@capacity&gt;250]"/>
    </result_confstat>
  </xsl:template>
  <xsl:template match="metro[@metroname=&quot;chicago&quot;]/hotel/confroom">
    <xsl:value-of select="."/>
  </xsl:template>
</xsl:stylesheet>"#;

/// Figure 25: the recursive stylesheet of §5.3 (mutual recursion between
/// `/metro` and `metro_available` through the parent axis, bounded by the
/// `$idx` parameter).
pub const FIGURE25_XSLT: &str = r#"<xsl:stylesheet>
  <xsl:template match="/metro">
    <xsl:param name="idx" select="10"/>
    <result_metro>
      <xsl:apply-templates select="hotel/hotel_available[@count&gt;10]/metro_available[@count&lt;$idx]">
        <xsl:with-param name="idx" select="$idx"/>
      </xsl:apply-templates>
    </result_metro>
  </xsl:template>
  <xsl:template match="metro_available">
    <xsl:param name="idx"/>
    <xsl:choose>
      <xsl:when test="$idx&lt;=1">
        <xsl:value-of select="."/>
      </xsl:when>
      <xsl:otherwise>
        <result_metroavail>
          <xsl:apply-templates select="self::*[@count&gt;50]/../../..">
            <xsl:with-param name="idx" select="$idx - 1"/>
          </xsl:apply-templates>
        </result_metroavail>
      </xsl:otherwise>
    </xsl:choose>
  </xsl:template>
</xsl:stylesheet>"#;

/// A small deterministic instance of the hotel schema: two metro areas,
/// four hotels (three above four stars), conference rooms, guest rooms and
/// availability records. Designed so that every node of the Figure 1 view
/// produces elements and the Figure 4/15/17 stylesheets exercise both the
/// populated and the empty branches.
pub fn sample_database() -> Database {
    let mut db = figure2_database();
    let i = Value::Int;
    let s = |x: &str| Value::Str(x.to_owned());

    db.insert("hotelchain", vec![i(1), s("Grand Chain"), s("IL")])
        .unwrap();
    for (id, name) in [(1, "chicago"), (2, "nyc")] {
        db.insert("metroarea", vec![i(id), s(name)]).unwrap();
    }
    // hotel(hotelid, hotelname, starrating, chain_id, metro_id, state_id,
    //       city, pool, gym)
    for (hid, name, stars, metro, pool, gym) in [
        (10, "palmer", 5, 1, "yes", "yes"),
        (11, "drake", 4, 1, "no", "yes"), // filtered out by starrating > 4
        (12, "plaza", 5, 2, "yes", "no"),
        (13, "ritz", 5, 1, "no", "no"),
    ] {
        db.insert(
            "hotel",
            vec![
                i(hid),
                s(name),
                i(stars),
                i(1),
                i(metro),
                i(1),
                s("city"),
                s(pool),
                s(gym),
            ],
        )
        .unwrap();
    }
    // guestroom(r_id, rhotel_id, roomnumber, type, rackrate)
    for (rid, hid, num) in [
        (100, 10, 101),
        (101, 10, 102),
        (102, 11, 201),
        (103, 12, 301),
        (104, 13, 401),
    ] {
        db.insert("guestroom", vec![i(rid), i(hid), i(num), s("king"), i(250)])
            .unwrap();
    }
    // confroom(c_id, chotel_id, croomnumber, capacity, rackrate)
    for (cid, hid, num, cap) in [
        (200, 10, 1, 300),
        (201, 10, 2, 150),
        (202, 11, 1, 500),
        (203, 12, 1, 120),
    ] {
        db.insert("confroom", vec![i(cid), i(hid), i(num), i(cap), i(900)])
            .unwrap();
    }
    // availability(a_id, a_r_id, startdate, enddate, price): hotel 10 has
    // availability on two dates; hotel 12 has none (so its confroom is not
    // selected by R3's parent-axis path); hotel 13 has one.
    for (aid, rid, start) in [
        (300, 100, "2003-06-09"),
        (301, 101, "2003-06-09"),
        (302, 100, "2003-06-10"),
        (303, 104, "2003-06-09"),
    ] {
        db.insert(
            "availability",
            vec![i(aid), i(rid), s(start), s("2003-06-12"), i(199)],
        )
        .unwrap();
    }
    db
}

/// Like [`sample_database`], with dense availability for hotel 10 (60
/// bookable room-days on one date): enough to clear the Figure 25
/// thresholds (`@count > 10` at the hotel level, `@count > 50` at the
/// metro level) so the §5.3 recursion actually recurses.
pub fn dense_availability_database() -> Database {
    let mut db = sample_database();
    let i = Value::Int;
    let s = |x: &str| Value::Str(x.to_owned());
    for k in 0..60 {
        let room = if k % 2 == 0 { 100 } else { 101 };
        db.insert(
            "availability",
            vec![
                i(400 + k),
                i(room),
                s("2003-07-01"),
                s("2003-07-04"),
                i(150),
            ],
        )
        .unwrap();
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use xvc_view::Engine;

    #[test]
    fn figure1_view_is_well_formed() {
        figure1_view().validate().unwrap();
        assert_eq!(figure1_view().len(), 7);
    }

    #[test]
    fn figure2_catalog_has_all_tables() {
        let c = figure2_catalog();
        for t in [
            "hotelchain",
            "metroarea",
            "hotel",
            "guestroom",
            "confroom",
            "availability",
        ] {
            assert!(c.contains(t), "{t}");
        }
    }

    #[test]
    fn sample_database_publishes_figure1() {
        let published = Engine::new(&figure1_view())
            .session()
            .publish(&sample_database())
            .unwrap();
        let (doc, stats) = (published.document, published.stats);
        let xml = doc.to_xml();
        // Two metros; three hotels pass the starrating filter.
        assert_eq!(xml.matches("<metro ").count(), 2);
        assert_eq!(xml.matches("<hotel ").count(), 3);
        // Each hotel has a confstat child; metro-level confstats also
        // appear (ids 2 and 4 share the tag).
        assert!(xml.matches("<confstat").count() >= 4);
        // hotel_available groups by startdate: hotel 10 → 2 dates.
        assert!(xml.contains("hotel_available"));
        assert!(xml.contains("metro_available"));
        assert!(stats.elements > 10);
    }

    #[test]
    fn paper_stylesheets_parse() {
        for (name, src) in [
            ("fig15", FIGURE15_XSLT),
            ("fig17", FIGURE17_XSLT),
            ("fig25", FIGURE25_XSLT),
        ] {
            xvc_xslt::parse_stylesheet(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}
