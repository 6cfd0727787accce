//! Streaming tree builder.
//!
//! The XML publisher (`xvc-view`) and the XSLT engine (`xvc-xslt`) assemble
//! result documents top-down while iterating over SQL result tuples or
//! template output. [`TreeBuilder`] keeps an explicit element stack so those
//! components never juggle raw [`NodeId`]s.

use std::io;

use crate::arena::{Document, NodeId};
use crate::writer::XmlSink;

/// A stack-based builder producing a [`Document`].
///
/// ```
/// use xvc_xml::TreeBuilder;
/// let mut b = TreeBuilder::new();
/// b.open("metro");
/// b.attr("metroname", "chicago");
/// b.open("hotel");
/// b.text("Palmer House");
/// b.close();
/// b.close();
/// let doc = b.finish();
/// assert_eq!(doc.to_xml(), "<metro metroname=\"chicago\"><hotel>Palmer House</hotel></metro>");
/// ```
#[derive(Debug)]
pub struct TreeBuilder {
    doc: Document,
    stack: Vec<NodeId>,
}

impl Default for TreeBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TreeBuilder {
    /// Creates a builder positioned at the document root.
    pub fn new() -> Self {
        let doc = Document::new();
        let root = doc.root();
        TreeBuilder {
            doc,
            stack: vec![root],
        }
    }

    /// Current insertion point (the innermost open element, or the root).
    pub fn current(&self) -> NodeId {
        *self.stack.last().expect("stack never empty")
    }

    /// Opens a new element as a child of the current node and descends into
    /// it. Returns its id.
    pub fn open(&mut self, tag: impl Into<String>) -> NodeId {
        let e = self.doc.create_element(tag);
        self.doc.append_child(self.current(), e);
        self.stack.push(e);
        e
    }

    /// Adds an attribute to the innermost open element.
    ///
    /// # Panics
    /// Panics if no element is open (i.e. at the document root).
    pub fn attr(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let cur = self.current();
        assert!(
            !self.doc.is_root(cur),
            "attr() requires an open element, not the document root"
        );
        self.doc
            .set_attr(cur, name, value)
            .expect("open node is an element");
    }

    /// Appends a text node under the current node.
    pub fn text(&mut self, text: impl Into<String>) {
        let t = self.doc.create_text(text);
        self.doc.append_child(self.current(), t);
    }

    /// Appends an empty element (open + immediate close). Returns its id.
    pub fn leaf(&mut self, tag: impl Into<String>) -> NodeId {
        let e = self.open(tag);
        self.close();
        e
    }

    /// Deep-copies a subtree from another document under the current node.
    pub fn import(&mut self, src_doc: &Document, src: NodeId) -> NodeId {
        let copy = self.doc.import_subtree(src_doc, src);
        self.doc.append_child(self.current(), copy);
        copy
    }

    /// Closes the innermost open element.
    ///
    /// # Panics
    /// Panics if no element is open.
    pub fn close(&mut self) {
        assert!(self.stack.len() > 1, "close() without matching open()");
        self.stack.pop();
    }

    /// Depth of open elements (0 at the document root).
    pub fn depth(&self) -> usize {
        self.stack.len() - 1
    }

    /// Finishes building and returns the document.
    ///
    /// # Panics
    /// Panics if elements are still open, which indicates a builder bug in
    /// the caller.
    pub fn finish(self) -> Document {
        assert_eq!(
            self.stack.len(),
            1,
            "finish() with {} unclosed element(s)",
            self.stack.len() - 1
        );
        self.doc
    }

    /// Access to the document under construction (e.g. for node inspection).
    pub fn doc(&self) -> &Document {
        &self.doc
    }
}

/// A builder is an event sink: anything that emits [`XmlSink`] events can
/// materialize them as a [`Document`] (the publisher builds `v(I)` this
/// way). Building never fails.
impl XmlSink for TreeBuilder {
    fn start_element(&mut self, name: &str) -> io::Result<()> {
        self.open(name);
        Ok(())
    }

    fn attr(&mut self, name: &str, value: &str) -> io::Result<()> {
        TreeBuilder::attr(self, name, value);
        Ok(())
    }

    fn text(&mut self, text: &str) -> io::Result<()> {
        TreeBuilder::text(self, text);
        Ok(())
    }

    fn end_element(&mut self, _name: &str) -> io::Result<()> {
        self.close();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_nested_structure() {
        let mut b = TreeBuilder::new();
        b.open("a");
        b.attr("x", "1");
        b.leaf("b");
        b.open("c");
        b.text("t");
        b.close();
        b.close();
        assert_eq!(b.finish().to_xml(), "<a x=\"1\"><b/><c>t</c></a>");
    }

    #[test]
    fn depth_tracks_open_elements() {
        let mut b = TreeBuilder::new();
        assert_eq!(b.depth(), 0);
        b.open("a");
        b.open("b");
        assert_eq!(b.depth(), 2);
        b.close();
        assert_eq!(b.depth(), 1);
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn finish_with_open_elements_panics() {
        let mut b = TreeBuilder::new();
        b.open("a");
        let _ = b.finish();
    }

    #[test]
    #[should_panic(expected = "close() without matching open()")]
    fn close_at_root_panics() {
        let mut b = TreeBuilder::new();
        b.close();
    }

    #[test]
    fn import_copies_subtree() {
        let src = crate::parse("<x><y z=\"1\">t</y></x>").unwrap();
        let sx = src.document_element().unwrap();
        let mut b = TreeBuilder::new();
        b.open("root");
        b.import(&src, sx);
        b.close();
        assert_eq!(b.finish().to_xml(), "<root><x><y z=\"1\">t</y></x></root>");
    }

    #[test]
    fn replaying_events_rebuilds_the_document() {
        let src = crate::parse("<r><a x=\"1\"><b/><c y=\"2\">t</c></a><d/></r>").unwrap();
        let mut b = TreeBuilder::new();
        src.emit(&mut b).unwrap();
        assert_eq!(b.finish().to_xml(), src.to_xml());
    }

    #[test]
    fn multiple_top_level_elements() {
        let mut b = TreeBuilder::new();
        b.leaf("a");
        b.leaf("a");
        let d = b.finish();
        assert_eq!(d.to_xml(), "<a/><a/>");
        assert!(d.document_element().is_none());
    }
}
