//! Parsing stylesheets from XSLT/XML text.

use xvc_xml::{Document, NodeId, NodeKind, SpanInfo};
use xvc_xpath::{parse_expr, parse_path, parse_pattern};

use crate::error::{Error, Result};
use crate::model::{
    ApplyTemplates, OutputNode, ParamDecl, Stylesheet, TemplateRule, WithParam, DEFAULT_MODE,
};

/// Parses a stylesheet from XSLT text.
///
/// The root element must be `xsl:stylesheet` or `xsl:transform`; its
/// `xsl:template` children become the rules. Top-level elements other than
/// templates are rejected (the paper's stylesheets consist of template
/// rules only, with built-in rules assumed overridden).
pub fn parse_stylesheet(text: &str) -> Result<Stylesheet> {
    let doc = xvc_xml::parse(text)?;
    let root = doc.document_element().ok_or(Error::NotAStylesheet {
        found: "(multiple top-level elements)".to_owned(),
        span: None,
    })?;
    let root_name = doc.name(root).unwrap_or_default();
    if root_name != "xsl:stylesheet" && root_name != "xsl:transform" {
        return Err(Error::NotAStylesheet {
            found: root_name.to_owned(),
            span: doc.span(root),
        });
    }
    let mut rules = Vec::new();
    for child in doc.child_elements(root) {
        match doc.name(child) {
            Some("xsl:template") => rules.push(parse_template(&doc, child)?),
            Some(other) => {
                return Err(Error::UnknownXslElement {
                    name: other.to_owned(),
                    span: doc.span(child),
                })
            }
            None => unreachable!("child_elements yields elements"),
        }
    }
    Ok(Stylesheet { rules })
}

fn parse_template(doc: &Document, elem: NodeId) -> Result<TemplateRule> {
    let match_text = doc.attr(elem, "match").ok_or(Error::MissingMatch {
        span: doc.span(elem),
    })?;
    let match_pattern = parse_pattern(match_text)?;
    let match_span = SpanInfo::from(doc.attr_span(elem, "match"));
    let mode = doc.attr(elem, "mode").unwrap_or(DEFAULT_MODE).to_owned();
    let explicit_priority = match doc.attr(elem, "priority") {
        None => None,
        Some(p) => Some(p.trim().parse::<f64>().map_err(|_| Error::BadPriority {
            text: p.to_owned(),
            span: doc.attr_span(elem, "priority"),
        })?),
    };

    // Leading xsl:param declarations.
    let mut params = Vec::new();
    let mut body_nodes = Vec::new();
    let mut in_params = true;
    for &child in doc.children(elem) {
        if in_params && doc.is_element_named(child, "xsl:param") {
            let name = doc
                .attr(child, "name")
                .ok_or(Error::MissingAttribute {
                    element: "xsl:param",
                    attribute: "name",
                    span: doc.span(child),
                })?
                .to_owned();
            let default = match doc.attr(child, "select") {
                Some(s) => Some(parse_expr(s)?),
                None => None,
            };
            params.push(ParamDecl { name, default });
        } else {
            in_params = false;
            body_nodes.push(child);
        }
    }

    let mut output = Vec::new();
    for child in body_nodes {
        if let Some(node) = parse_output_node(doc, child)? {
            output.push(node);
        }
    }
    Ok(TemplateRule {
        match_pattern,
        mode,
        explicit_priority,
        params,
        output,
        match_span,
    })
}

fn parse_output_node(doc: &Document, id: NodeId) -> Result<Option<OutputNode>> {
    match doc.kind(id) {
        NodeKind::Text(t) => {
            if t.trim().is_empty() {
                Ok(None)
            } else {
                Ok(Some(OutputNode::Text(t.clone())))
            }
        }
        NodeKind::Root => unreachable!("output nodes live under a template"),
        NodeKind::Element { name, attrs } => match name.as_str() {
            "xsl:apply-templates" => {
                let select_text = doc.attr(id, "select").unwrap_or("*");
                let select = parse_path(select_text)?;
                let select_span =
                    SpanInfo::from(doc.attr_span(id, "select").or_else(|| doc.span(id)));
                let mode = doc.attr(id, "mode").unwrap_or(DEFAULT_MODE).to_owned();
                let mut with_params = Vec::new();
                for child in doc.child_elements(id) {
                    if doc.is_element_named(child, "xsl:with-param") {
                        let name = doc
                            .attr(child, "name")
                            .ok_or(Error::MissingAttribute {
                                element: "xsl:with-param",
                                attribute: "name",
                                span: doc.span(child),
                            })?
                            .to_owned();
                        let select_text =
                            doc.attr(child, "select").ok_or(Error::MissingAttribute {
                                element: "xsl:with-param",
                                attribute: "select",
                                span: doc.span(child),
                            })?;
                        with_params.push(WithParam {
                            name,
                            select: parse_expr(select_text)?,
                        });
                    } else {
                        return Err(Error::UnknownXslElement {
                            name: doc.name(child).unwrap_or_default().to_owned(),
                            span: doc.span(child),
                        });
                    }
                }
                Ok(Some(OutputNode::ApplyTemplates(ApplyTemplates {
                    select,
                    mode,
                    with_params,
                    select_span,
                })))
            }
            "xsl:value-of" => {
                let select = doc.attr(id, "select").ok_or(Error::MissingAttribute {
                    element: "xsl:value-of",
                    attribute: "select",
                    span: doc.span(id),
                })?;
                Ok(Some(OutputNode::ValueOf {
                    select: parse_expr(select)?,
                    span: SpanInfo::from(doc.attr_span(id, "select")),
                }))
            }
            "xsl:copy-of" => {
                let select = doc.attr(id, "select").ok_or(Error::MissingAttribute {
                    element: "xsl:copy-of",
                    attribute: "select",
                    span: doc.span(id),
                })?;
                Ok(Some(OutputNode::CopyOf {
                    select: parse_expr(select)?,
                    span: SpanInfo::from(doc.attr_span(id, "select")),
                }))
            }
            "xsl:if" => {
                let test = doc.attr(id, "test").ok_or(Error::MissingAttribute {
                    element: "xsl:if",
                    attribute: "test",
                    span: doc.span(id),
                })?;
                Ok(Some(OutputNode::If {
                    test: parse_expr(test)?,
                    children: parse_children(doc, id)?,
                    span: SpanInfo::from(doc.span(id)),
                }))
            }
            "xsl:choose" => {
                let mut whens = Vec::new();
                let mut otherwise = Vec::new();
                for child in doc.child_elements(id) {
                    match doc.name(child) {
                        Some("xsl:when") => {
                            let test = doc.attr(child, "test").ok_or(Error::MissingAttribute {
                                element: "xsl:when",
                                attribute: "test",
                                span: doc.span(child),
                            })?;
                            whens.push((parse_expr(test)?, parse_children(doc, child)?));
                        }
                        Some("xsl:otherwise") => {
                            otherwise = parse_children(doc, child)?;
                        }
                        Some(other) => {
                            return Err(Error::UnknownXslElement {
                                name: other.to_owned(),
                                span: doc.span(child),
                            })
                        }
                        None => unreachable!(),
                    }
                }
                Ok(Some(OutputNode::Choose {
                    whens,
                    otherwise,
                    span: SpanInfo::from(doc.span(id)),
                }))
            }
            "xsl:for-each" => {
                let select = doc.attr(id, "select").ok_or(Error::MissingAttribute {
                    element: "xsl:for-each",
                    attribute: "select",
                    span: doc.span(id),
                })?;
                Ok(Some(OutputNode::ForEach {
                    select: parse_path(select)?,
                    children: parse_children(doc, id)?,
                    span: SpanInfo::from(doc.span(id)),
                }))
            }
            "xsl:text" => Ok(Some(OutputNode::Text(doc.text_content(id)))),
            other if other.starts_with("xsl:") => Err(Error::UnknownXslElement {
                name: other.to_owned(),
                span: doc.span(id),
            }),
            // Literal result element.
            _ => {
                for (n, v) in attrs {
                    if v.contains('{') {
                        return Err(Error::AttributeValueTemplate {
                            value: v.clone(),
                            span: doc.attr_span(id, n),
                        });
                    }
                }
                Ok(Some(OutputNode::Element {
                    name: name.clone(),
                    attrs: attrs.clone(),
                    children: parse_children(doc, id)?,
                }))
            }
        },
    }
}

fn parse_children(doc: &Document, id: NodeId) -> Result<Vec<OutputNode>> {
    let mut out = Vec::new();
    for &child in doc.children(id) {
        if let Some(node) = parse_output_node(doc, child)? {
            out.push(node);
        }
    }
    Ok(out)
}

/// The paper's Figure 4 stylesheet, verbatim (used by tests, examples and
/// the figure-regeneration harness): `examples/files/paper/figure4.xsl`,
/// the file `xvc check` and the walkthroughs read.
pub const FIGURE4_XSLT: &str = include_str!("../../../examples/files/paper/figure4.xsl");

#[cfg(test)]
mod tests {
    use super::*;
    use xvc_xpath::Axis;

    #[test]
    fn parses_figure4() {
        let s = parse_stylesheet(FIGURE4_XSLT).unwrap();
        assert_eq!(s.len(), 4);
        // R1 matches "/".
        assert!(s.rules[0].match_pattern.absolute);
        assert!(s.rules[0].match_pattern.steps.is_empty());
        // R2's single apply-templates selects hotel/confstat.
        let applies = s.rules[1].apply_templates();
        assert_eq!(applies.len(), 1);
        assert_eq!(applies[0].select.to_string(), "hotel/confstat");
        // R3's select uses the parent axis.
        let applies = s.rules[2].apply_templates();
        assert_eq!(applies[0].select.steps[0].axis, Axis::Parent);
        // R4 is a value-of ".".
        assert!(matches!(s.rules[3].output[0], OutputNode::ValueOf { .. }));
        assert_eq!(s.max_apply_per_rule(), 1);
    }

    #[test]
    fn parses_modes_and_priority() {
        let s = parse_stylesheet(
            r#"<xsl:stylesheet>
                 <xsl:template match="a" mode="m7" priority="2.5"><x/></xsl:template>
               </xsl:stylesheet>"#,
        )
        .unwrap();
        assert_eq!(s.rules[0].mode, "m7");
        assert_eq!(s.rules[0].priority(), 2.5);
    }

    #[test]
    fn parses_params_and_with_params() {
        let s = parse_stylesheet(
            r#"<xsl:stylesheet>
                 <xsl:template match="/metro">
                   <xsl:param name="idx" select="10"/>
                   <result>
                     <xsl:apply-templates select="hotel">
                       <xsl:with-param name="idx" select="$idx - 1"/>
                     </xsl:apply-templates>
                   </result>
                 </xsl:template>
               </xsl:stylesheet>"#,
        )
        .unwrap();
        let r = &s.rules[0];
        assert_eq!(r.params.len(), 1);
        assert_eq!(r.params[0].name, "idx");
        assert!(r.params[0].default.is_some());
        let a = r.apply_templates()[0];
        assert_eq!(a.with_params.len(), 1);
        assert_eq!(a.with_params[0].name, "idx");
    }

    #[test]
    fn parses_flow_control() {
        let s = parse_stylesheet(
            r#"<xsl:stylesheet>
                 <xsl:template match="a">
                   <xsl:if test="@x &gt; 1"><y/></xsl:if>
                   <xsl:choose>
                     <xsl:when test="@x = 1"><one/></xsl:when>
                     <xsl:when test="@x = 2"><two/></xsl:when>
                     <xsl:otherwise><other/></xsl:otherwise>
                   </xsl:choose>
                   <xsl:for-each select="b"><z/></xsl:for-each>
                 </xsl:template>
               </xsl:stylesheet>"#,
        )
        .unwrap();
        let out = &s.rules[0].output;
        assert!(matches!(out[0], OutputNode::If { .. }));
        let OutputNode::Choose {
            whens, otherwise, ..
        } = &out[1]
        else {
            panic!("expected choose");
        };
        assert_eq!(whens.len(), 2);
        assert_eq!(otherwise.len(), 1);
        assert!(matches!(out[2], OutputNode::ForEach { .. }));
    }

    #[test]
    fn literal_elements_keep_attrs() {
        let s = parse_stylesheet(
            r#"<xsl:stylesheet>
                 <xsl:template match="a"><A href="x">hi</A></xsl:template>
               </xsl:stylesheet>"#,
        )
        .unwrap();
        let OutputNode::Element {
            name,
            attrs,
            children,
        } = &s.rules[0].output[0]
        else {
            panic!();
        };
        assert_eq!(name, "A");
        assert_eq!(attrs[0], ("href".to_owned(), "x".to_owned()));
        assert!(matches!(&children[0], OutputNode::Text(t) if t == "hi"));
    }

    #[test]
    fn rejects_missing_match_and_unknown_elements() {
        assert!(matches!(
            parse_stylesheet("<xsl:stylesheet><xsl:template/></xsl:stylesheet>"),
            Err(Error::MissingMatch { .. })
        ));
        assert!(matches!(
            parse_stylesheet(
                "<xsl:stylesheet><xsl:template match=\"a\"><xsl:frob/></xsl:template></xsl:stylesheet>"
            ),
            Err(Error::UnknownXslElement { .. })
        ));
        assert!(matches!(
            parse_stylesheet("<not_a_stylesheet/>"),
            Err(Error::NotAStylesheet { .. })
        ));
    }

    #[test]
    fn rejects_attribute_value_templates() {
        assert!(matches!(
            parse_stylesheet(
                "<xsl:stylesheet><xsl:template match=\"a\"><x y=\"{@z}\"/></xsl:template></xsl:stylesheet>"
            ),
            Err(Error::AttributeValueTemplate { .. })
        ));
    }

    #[test]
    fn rejects_bad_priority() {
        assert!(matches!(
            parse_stylesheet(
                "<xsl:stylesheet><xsl:template match=\"a\" priority=\"high\"/></xsl:stylesheet>"
            ),
            Err(Error::BadPriority { .. })
        ));
    }

    #[test]
    fn records_match_and_select_spans() {
        let src = r#"<xsl:stylesheet>
  <xsl:template match="metro">
    <xsl:apply-templates select="hotel/confstat"/>
  </xsl:template>
</xsl:stylesheet>"#;
        let s = parse_stylesheet(src).unwrap();
        let m = s.rules[0].match_span.get().unwrap();
        assert_eq!(&src[m.start..m.end], "metro");
        let a = s.rules[0].apply_templates()[0].select_span.get().unwrap();
        assert_eq!(&src[a.start..a.end], "hotel/confstat");
    }

    #[test]
    fn parse_errors_carry_spans() {
        let src = "<xsl:stylesheet><xsl:template/></xsl:stylesheet>";
        let err = parse_stylesheet(src).unwrap_err();
        let span = err.span().unwrap();
        assert_eq!(&src[span.start..span.end], "<xsl:template/>");
    }

    #[test]
    fn default_select_for_apply_templates() {
        let s = parse_stylesheet(
            "<xsl:stylesheet><xsl:template match=\"a\"><xsl:apply-templates/></xsl:template></xsl:stylesheet>",
        )
        .unwrap();
        let a = s.rules[0].apply_templates()[0];
        assert_eq!(a.select.to_string(), "*");
    }
}
