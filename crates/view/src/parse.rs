//! A textual format for schema-tree view definitions, so views can live in
//! files next to stylesheets (used by the `xvc` CLI).
//!
//! ```text
//! # conference planning view (Figure 1)
//! node metro $m {
//!     query: SELECT metroid, metroname FROM metroarea;
//!     node confstat $cs {
//!         query: SELECT SUM(capacity) FROM confroom, hotel
//!                WHERE chotel_id = hotelid AND metro_id = $m.metroid;
//!     }
//!     node hotel $h {
//!         query: SELECT * FROM hotel WHERE metro_id = $m.metroid;
//!     }
//! }
//! ```
//!
//! Grammar: `node TAG $BV { query: SQL ; child-nodes... }`, with `#`
//! line comments outside tag queries. A tag query is SQL up to the SQL
//! lexer's first `;` token ([`xvc_rel::parse::statement_end`]), so a `;`
//! or `#` inside a string literal or a `--` comment stays part of the
//! query, and a `#` anywhere else in it is a SQL lex error. Paper-level
//! ids are assigned in definition order (1-based).

use xvc_rel::parse::statement_end;
use xvc_rel::parse_query;
use xvc_xml::{Span, SpanInfo};

use crate::error::{Error, Result};
use crate::schema_tree::{SchemaTree, ViewNode, ViewNodeId};

/// Parses a view definition (see module docs).
pub fn parse_view(input: &str) -> Result<SchemaTree> {
    let mut p = Parser {
        src: input,
        pos: 0,
        tree: SchemaTree::new(),
        next_id: 1,
    };
    p.skip_ws();
    while !p.at_end() {
        let root = p.tree.root();
        p.node(root)?;
        p.skip_ws();
    }
    if p.tree.is_empty() {
        return Err(Error::ViewSyntax {
            reason: "the view definition declares no nodes".into(),
            span: None,
        });
    }
    p.tree.validate()?;
    Ok(p.tree)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    tree: SchemaTree,
    next_id: u32,
}

impl Parser<'_> {
    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn rest(&self) -> &str {
        &self.src[self.pos..]
    }

    /// Skips whitespace and `#` comments.
    fn skip_ws(&mut self) {
        let src = self.src;
        loop {
            let trimmed = src[self.pos..].trim_start();
            self.pos = src.len() - trimmed.len();
            if !trimmed.starts_with('#') {
                return;
            }
            self.pos += trimmed.find('\n').unwrap_or(trimmed.len());
        }
    }

    /// Span covering the next `n` characters (for error reporting).
    fn span_here(&self, n: usize) -> Option<Span> {
        let len: usize = self.rest().chars().take(n.max(1)).map(char::len_utf8).sum();
        let end = (self.pos + len.max(1)).min(self.src.len());
        Some(Span::new(self.pos, end.max(self.pos)))
    }

    fn expect_word(&mut self, word: &str) -> Result<()> {
        self.skip_ws();
        if self.rest().starts_with(word) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(Error::ViewSyntax {
                reason: format!(
                    "expected `{word}` near `{}`",
                    self.rest().chars().take(30).collect::<String>()
                ),
                span: self.span_here(1),
            })
        }
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        self.skip_ws();
        let ident: String = self
            .rest()
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if ident.is_empty() {
            return Err(Error::ViewSyntax {
                reason: format!(
                    "expected {what} near `{}`",
                    self.rest().chars().take(30).collect::<String>()
                ),
                span: self.span_here(1),
            });
        }
        self.pos += ident.len();
        Ok(ident)
    }

    fn node(&mut self, parent: ViewNodeId) -> Result<()> {
        self.expect_word("node")?;
        let tag = self.ident("a tag name")?;
        self.expect_word("$")?;
        let bv = self.ident("a binding variable")?;
        self.expect_word("{")?;
        self.expect_word("query")?;
        self.expect_word(":")?;
        // SQL runs until the SQL lexer's first `;` token.
        self.skip_ws();
        let sql_start = self.pos;
        let missing = |lexed: String, span| Error::ViewSyntax {
            reason: format!("missing `;` after the query of <{tag}>{lexed}"),
            span: Some(span),
        };
        let sql_end = match statement_end(self.rest()) {
            Ok(Some(end)) => end,
            Ok(None) => return Err(missing(String::new(), Span::new(sql_start, self.src.len()))),
            // The lexer stopped on a character no SQL token starts with,
            // before any `;`: report it where it stands in the view text.
            Err(xvc_rel::Error::Lex { found, offset }) => {
                let at = sql_start + offset;
                return Err(missing(
                    format!(": unexpected character {found:?} at byte {at}"),
                    Span::new(at, at + found.len_utf8()),
                ));
            }
            Err(e) => {
                return Err(missing(
                    format!(": {e}"),
                    Span::new(sql_start, self.src.len()),
                ))
            }
        };
        let raw = &self.rest()[..sql_end];
        let trimmed_start = sql_start + (raw.len() - raw.trim_start().len());
        let trimmed_end = sql_start + raw.trim_end().len();
        let query_span = Span::new(trimmed_start, trimmed_end.max(trimmed_start));
        let sql = raw.trim().to_owned();
        self.pos += sql_end + 1;
        let query = parse_query(&sql).map_err(|e| Error::ViewSyntax {
            reason: format!("tag query of <{tag}>: {e}"),
            span: Some(query_span),
        })?;
        let id = self.next_id;
        self.next_id += 1;
        let mut vn = ViewNode::new(id, tag, bv, query);
        vn.query_span = SpanInfo::new(query_span);
        let vid = self.tree.add_child(parent, vn)?;
        loop {
            self.skip_ws();
            if self.rest().starts_with('}') {
                self.pos += 1;
                return Ok(());
            }
            if self.rest().starts_with("node") {
                self.node(vid)?;
            } else {
                return Err(Error::ViewSyntax {
                    reason: format!(
                        "expected `node` or `}}` near `{}`",
                        self.rest().chars().take(30).collect::<String>()
                    ),
                    span: self.span_here(1),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG1_SUBSET: &str = r#"
        # two levels of the Figure 1 view
        node metro $m {
            query: SELECT metroid, metroname FROM metroarea;
            node hotel $h {
                query: SELECT * FROM hotel
                       WHERE metro_id = $m.metroid AND starrating > 4;
                node confstat $s {
                    query: SELECT SUM(capacity) FROM confroom
                           WHERE chotel_id = $h.hotelid;
                }
            }
        }
    "#;

    #[test]
    fn parses_nested_view() {
        let v = parse_view(FIG1_SUBSET).unwrap();
        assert_eq!(v.len(), 3);
        let metro = v.find_by_paper_id(1).unwrap();
        assert_eq!(v.tag(metro), Some("metro"));
        let hotel = v.find_by_paper_id(2).unwrap();
        assert_eq!(v.parent(hotel), Some(metro));
        assert_eq!(v.bv(hotel), Some("h"));
        let stat = v.find_by_paper_id(3).unwrap();
        assert_eq!(v.parent(stat), Some(hotel));
    }

    #[test]
    fn roundtrips_through_render_semantics() {
        // Not a textual round-trip (render is a display format), but the
        // parsed tree publishes exactly like a hand-built one.
        let parsed = parse_view(FIG1_SUBSET).unwrap();
        let mut built = SchemaTree::new();
        let m = built
            .add_root_node(ViewNode::new(
                1,
                "metro",
                "m",
                parse_query("SELECT metroid, metroname FROM metroarea").unwrap(),
            ))
            .unwrap();
        let h = built
            .add_child(
                m,
                ViewNode::new(
                    2,
                    "hotel",
                    "h",
                    parse_query(
                        "SELECT * FROM hotel WHERE metro_id = $m.metroid AND starrating > 4",
                    )
                    .unwrap(),
                ),
            )
            .unwrap();
        built
            .add_child(
                h,
                ViewNode::new(
                    3,
                    "confstat",
                    "s",
                    parse_query("SELECT SUM(capacity) FROM confroom WHERE chotel_id = $h.hotelid")
                        .unwrap(),
                ),
            )
            .unwrap();
        assert_eq!(parsed, built);
    }

    #[test]
    fn multiple_roots() {
        let v = parse_view(
            "node a $x { query: SELECT metroid FROM metroarea; }\n\
             node b $y { query: SELECT metroid FROM metroarea; }",
        )
        .unwrap();
        assert_eq!(v.children(v.root()).len(), 2);
    }

    #[test]
    fn syntax_errors_are_descriptive() {
        let e = parse_view("node metro { query: SELECT 1 FROM t; }").unwrap_err();
        assert!(e.to_string().contains("expected `$`"), "{e}");
        let e = parse_view("node metro $m { query: SELECT metroid FROM metroarea }").unwrap_err();
        assert!(e.to_string().contains("missing `;`"), "{e}");
        let e = parse_view("").unwrap_err();
        assert!(e.to_string().contains("no nodes"), "{e}");
        let e = parse_view("node m $m { query: NOT SQL; }").unwrap_err();
        assert!(e.to_string().contains("tag query"), "{e}");
    }

    #[test]
    fn records_query_spans_and_error_spans() {
        let src =
            "# leading comment\nnode metro $m {\n    query: SELECT metroid FROM metroarea;\n}";
        let v = parse_view(src).unwrap();
        let metro = v.find_by_paper_id(1).unwrap();
        let span = v.node(metro).unwrap().query_span.get().unwrap();
        assert_eq!(&src[span.start..span.end], "SELECT metroid FROM metroarea");

        let bad = "node metro { query: SELECT 1 FROM t; }";
        let e = parse_view(bad).unwrap_err();
        let span = e.span().expect("syntax errors carry spans");
        assert_eq!(&bad[span.start..span.start + 1], "{");
    }

    #[test]
    fn query_ends_at_the_sql_lexers_first_semicolon() {
        // A `;` or `#` inside a string literal, and a `;` inside a `--`
        // comment, belong to the query; `#` comments around it are the
        // view's, and a multi-byte character in one shifts no span.
        for (query, sql) in [
            (
                "SELECT metroname FROM metroarea WHERE metroname <> 'a;b';",
                "SELECT metroname FROM metroarea WHERE metroname <> 'a;b'",
            ),
            (
                "SELECT metroname FROM metroarea WHERE metroname <> 'a#b';",
                "SELECT metroname FROM metroarea WHERE metroname <> 'a#b'",
            ),
            (
                "SELECT metroname -- all; of them\n           FROM metroarea;",
                "SELECT metroname FROM metroarea",
            ),
        ] {
            let src =
                format!("# view §1\nnode metro $m {{ # the metros\n    query: {query} # done\n}}");
            let v = parse_view(&src).unwrap_or_else(|e| panic!("{query}: {e}"));
            let metro = v.find_by_paper_id(1).unwrap();
            let node = v.node(metro).unwrap();
            assert_eq!(node.query, Some(parse_query(sql).unwrap()), "{query}");
            let span = node.query_span.get().unwrap();
            assert_eq!(Some(&src[span.start..span.end]), query.strip_suffix(';'));
        }
        // Anywhere else in a query, `#` is no SQL token.
        let src = "node m $m { query: SELECT metroid # id\n FROM metroarea; }";
        let e = parse_view(src).unwrap_err();
        assert!(e.to_string().contains("unexpected character '#'"), "{e}");
        let span = e.span().unwrap();
        assert_eq!(&src[span.start..span.end], "#");
    }

    #[test]
    fn validation_errors_propagate() {
        // $ghost is bound by no ancestor.
        let e =
            parse_view("node a $x { query: SELECT * FROM t WHERE c = $ghost.id; }").unwrap_err();
        assert!(matches!(e, Error::UnboundViewParameter { .. }));
    }
}
