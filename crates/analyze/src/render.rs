//! Rustc-style rendering of diagnostics with source context.
//!
//! ```text
//! warning[XVC001]: rule 1: match pattern `city[@population>1000000]` contains predicates
//!   --> guide.xsl:3:42
//!    |
//!  3 |     <guide><xsl:apply-templates select="city[@population&gt;1000000]"/></guide>
//!    |                                          ^^^^^^^^^^^^^^^^^^^^^^^^^^^
//!    = help: predicates compose directly (§5.1); no rewrite needed
//! ```

use xvc_xml::line_col;

use crate::diag::{Diagnostic, Severity, Stage};

/// The source texts a report's spans point into, with display names.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sources<'a> {
    /// `(display name, text)` of the view definition, when checking one.
    pub view: Option<(&'a str, &'a str)>,
    /// `(display name, text)` of the stylesheet, when checking one.
    pub stylesheet: Option<(&'a str, &'a str)>,
}

impl<'a> Sources<'a> {
    /// The source a diagnostic of this stage points into.
    fn for_stage(&self, stage: Stage) -> Option<(&'a str, &'a str)> {
        match stage {
            Stage::Stylesheet => self.stylesheet,
            Stage::View => self.view,
            Stage::Composed | Stage::General => None,
        }
    }
}

/// Renders one diagnostic, with a caret-underlined source excerpt when the
/// span and source are available.
pub fn render(d: &Diagnostic, sources: &Sources<'_>) -> String {
    let mut out = format!("{d}\n");
    let located = d.span.and_then(|span| {
        sources
            .for_stage(d.stage)
            .map(|(name, text)| (span, name, text))
    });
    if let Some((span, name, text)) = located {
        let (line, col) = line_col(text, span.start);
        out.push_str(&format!("  --> {name}:{line}:{col}\n"));
        if let Some(src_line) = text.lines().nth(line - 1) {
            let gutter = line.to_string().len();
            out.push_str(&format!("{:gutter$} |\n", ""));
            out.push_str(&format!("{line} | {src_line}\n"));
            // Caret width: span chars, clamped to the rest of the line.
            let prefix: String = src_line.chars().take(col - 1).collect();
            let line_remaining = src_line.chars().count() - (col - 1);
            let span_chars = text
                .get(span.start..span.end)
                .map_or(1, |s| s.chars().take_while(|&c| c != '\n').count());
            let width = span_chars.clamp(1, line_remaining.max(1));
            let pad: String = prefix
                .chars()
                .map(|c| if c == '\t' { '\t' } else { ' ' })
                .collect();
            out.push_str(&format!("{:gutter$} | {pad}{}\n", "", "^".repeat(width)));
        }
    } else if let Some((name, _)) = sources.for_stage(d.stage) {
        out.push_str(&format!("  --> {name}\n"));
    }
    if let Some(help) = &d.help {
        out.push_str(&format!("  = help: {help}\n"));
    }
    for j in &d.justification {
        out.push_str(&format!("  = note: {j}\n"));
    }
    out
}

/// Orders diagnostics for display — by source file (view first, then
/// stylesheet, then the sourceless composed/general stages), span offset
/// (spanless findings last within their file), and code — and drops exact
/// duplicates. Emission order (pass order) is left to the [`crate::Report`];
/// this is applied at the presentation layer only, so tests asserting
/// pass order keep working.
pub fn sort_for_display(diagnostics: &[Diagnostic]) -> Vec<Diagnostic> {
    let stage_rank = |s: Stage| match s {
        Stage::View => 0usize,
        Stage::Stylesheet => 1,
        Stage::Composed => 2,
        Stage::General => 3,
    };
    let mut out: Vec<Diagnostic> = diagnostics.to_vec();
    out.sort_by(|a, b| {
        (
            stage_rank(a.stage),
            a.span.map_or(usize::MAX, |s| s.start),
            a.code,
            &a.message,
        )
            .cmp(&(
                stage_rank(b.stage),
                b.span.map_or(usize::MAX, |s| s.start),
                b.code,
                &b.message,
            ))
    });
    out.dedup();
    out
}

/// Renders the `N error(s); M warning(s)` trailer line.
pub fn render_summary(diagnostics: &[Diagnostic]) -> String {
    let errors = diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diagnostics.len() - errors;
    match (errors, warnings) {
        (0, 0) => "check: no problems found".to_owned(),
        (0, w) => format!("check: {w} warning{} emitted", plural(w)),
        (e, 0) => format!("check: {e} error{} emitted", plural(e)),
        (e, w) => format!(
            "check: {e} error{} and {w} warning{} emitted",
            plural(e),
            plural(w)
        ),
    }
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{Code, Diagnostic, Stage};
    use xvc_xml::Span;

    #[test]
    fn renders_span_with_caret() {
        let src = "line one\nnode metro $m {\n";
        let span_start = src.find("metro").unwrap();
        let d = Diagnostic::new(Code::Xvc110, Stage::View, "bad tag")
            .with_span(Some(Span::new(span_start, span_start + 5)));
        let sources = Sources {
            view: Some(("v.view", src)),
            stylesheet: None,
        };
        let r = render(&d, &sources);
        assert!(r.contains("error[XVC110]: bad tag"), "{r}");
        assert!(r.contains("--> v.view:2:6"), "{r}");
        assert!(r.contains("2 | node metro $m {"), "{r}");
        assert!(r.contains("^^^^^"), "{r}");
    }

    #[test]
    fn renders_without_span() {
        let d = Diagnostic::new(Code::Xvc008, Stage::Stylesheet, "no root rule")
            .with_help("add <xsl:template match=\"/\">");
        let sources = Sources {
            view: None,
            stylesheet: Some(("s.xsl", "<xsl:stylesheet/>")),
        };
        let r = render(&d, &sources);
        assert!(r.contains("error[XVC008]"), "{r}");
        assert!(r.contains("--> s.xsl\n"), "{r}");
        assert!(r.contains("= help: add <xsl:template"), "{r}");
    }

    #[test]
    fn sort_for_display_orders_and_dedupes() {
        let a = Diagnostic::new(Code::Xvc102, Stage::View, "later in file")
            .with_span(Some(Span::new(40, 45)));
        let b = Diagnostic::new(Code::Xvc101, Stage::View, "earlier in file")
            .with_span(Some(Span::new(4, 9)));
        let c = Diagnostic::new(Code::Xvc001, Stage::Stylesheet, "xslt");
        let g = Diagnostic::new(Code::Xvc407, Stage::General, "summary");
        let spanless_view = Diagnostic::new(Code::Xvc103, Stage::View, "no span");
        let input = vec![
            g.clone(),
            c.clone(),
            a.clone(),
            b.clone(),
            b.clone(), // exact duplicate
            spanless_view.clone(),
        ];
        let sorted = sort_for_display(&input);
        assert_eq!(sorted, vec![b, a, spanless_view, c, g]);
    }

    #[test]
    fn summary_counts() {
        let w = Diagnostic::new(Code::Xvc001, Stage::Stylesheet, "w");
        let e = Diagnostic::new(Code::Xvc101, Stage::View, "e");
        assert_eq!(render_summary(&[]), "check: no problems found");
        assert_eq!(
            render_summary(std::slice::from_ref(&w)),
            "check: 1 warning emitted"
        );
        assert_eq!(
            render_summary(&[w, e]),
            "check: 1 error and 1 warning emitted"
        );
    }
}
