//! A miniature DOM: enough tree structure for the paper's apps (buttons,
//! canvases, result divs) and for snapshots to rebuild the screen on the
//! other side of a migration — the paper notes that offloaded execution can
//! even update the client's screen because DOM changes ride along in the
//! snapshot.

use crate::WebError;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Handle to a DOM node in the document arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomNodeId(pub(crate) usize);

impl DomNodeId {
    /// Arena index.
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DomNode {
    pub(crate) tag: String,
    // Attribute names are arbitrary app data, not identifiers. Values
    // are shared with the script strings they were set from or read into.
    // lint: allow(string-keyed-map)
    pub(crate) attrs: BTreeMap<String, Rc<str>>,
    pub(crate) text: String,
    pub(crate) children: Vec<DomNodeId>,
    /// Canvas pixel payload (`CHW` floats), set by the embedder when the
    /// user "loads an image" — the stand-in for `getImageData`.
    pub(crate) image_data: Option<Vec<f32>>,
}

/// The document: a tree of elements rooted at `<body>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Document {
    nodes: Vec<DomNode>,
    root: DomNodeId,
}

impl Default for Document {
    fn default() -> Self {
        Document::new()
    }
}

impl Document {
    /// An empty document with a `<body>` root.
    pub fn new() -> Document {
        Document {
            nodes: vec![DomNode {
                tag: "body".to_string(),
                attrs: BTreeMap::new(),
                text: String::new(),
                children: Vec::new(),
                image_data: None,
            }],
            root: DomNodeId(0),
        }
    }

    /// The `<body>` element.
    pub fn body(&self) -> DomNodeId {
        self.root
    }

    /// Number of nodes in the document.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub(crate) fn node(&self, id: DomNodeId) -> Result<&DomNode, WebError> {
        self.nodes
            .get(id.0)
            .ok_or_else(|| WebError::Dom(format!("dangling dom handle #{}", id.0)))
    }

    pub(crate) fn node_mut(&mut self, id: DomNodeId) -> Result<&mut DomNode, WebError> {
        self.nodes
            .get_mut(id.0)
            .ok_or_else(|| WebError::Dom(format!("dangling dom handle #{}", id.0)))
    }

    /// Creates a detached element.
    pub fn create_element(&mut self, tag: &str) -> DomNodeId {
        self.nodes.push(DomNode {
            tag: tag.to_string(),
            attrs: BTreeMap::new(),
            text: String::new(),
            children: Vec::new(),
            image_data: None,
        });
        DomNodeId(self.nodes.len() - 1)
    }

    /// Appends `child` to `parent`'s children.
    ///
    /// # Errors
    ///
    /// Returns [`WebError::Dom`] for dangling handles or when the append
    /// would create a cycle.
    pub fn append_child(&mut self, parent: DomNodeId, child: DomNodeId) -> Result<(), WebError> {
        self.node(child)?;
        // Reject cycles: walk down from child looking for parent.
        let mut stack = vec![child];
        while let Some(n) = stack.pop() {
            if n == parent {
                return Err(WebError::Dom("appendChild would create a cycle".into()));
            }
            stack.extend(self.node(n)?.children.iter().copied());
        }
        self.node_mut(parent)?.children.push(child);
        Ok(())
    }

    /// Finds an element by its `id` attribute.
    pub fn get_element_by_id(&self, id: &str) -> Option<DomNodeId> {
        self.nodes
            .iter()
            .position(|n| n.attrs.get("id").map(|v| &**v) == Some(id))
            .map(DomNodeId)
    }

    /// The element's tag name.
    ///
    /// # Errors
    ///
    /// Returns [`WebError::Dom`] for dangling handles.
    pub fn tag(&self, id: DomNodeId) -> Result<&str, WebError> {
        Ok(self.node(id)?.tag.as_str())
    }

    /// Gets an attribute value.
    ///
    /// # Errors
    ///
    /// Returns [`WebError::Dom`] for dangling handles.
    pub fn attr(&self, id: DomNodeId, name: &str) -> Result<Option<&str>, WebError> {
        Ok(self.attr_shared(id, name)?.map(|v| &**v))
    }

    /// [`Document::attr`] as the shared string itself: a clone of it is
    /// the same allocation (`getAttribute` reads the image this way).
    pub(crate) fn attr_shared(
        &self,
        id: DomNodeId,
        name: &str,
    ) -> Result<Option<&Rc<str>>, WebError> {
        Ok(self.node(id)?.attrs.get(name))
    }

    /// Sets an attribute value to a copy of `value`.
    ///
    /// # Errors
    ///
    /// Returns [`WebError::Dom`] for dangling handles.
    pub fn set_attr(&mut self, id: DomNodeId, name: &str, value: &str) -> Result<(), WebError> {
        self.set_attr_shared(id, name, value.into())
    }

    /// Sets an attribute value to `value` itself, not a copy: a string
    /// the caller (or a script) already holds is shared with the DOM.
    ///
    /// # Errors
    ///
    /// Returns [`WebError::Dom`] for dangling handles.
    pub fn set_attr_shared(
        &mut self,
        id: DomNodeId,
        name: &str,
        value: Rc<str>,
    ) -> Result<(), WebError> {
        self.insert_attr(id, name.to_string(), value)
    }

    /// [`Document::set_attr_shared`] for a name the caller already owns
    /// (the HTML parser's attributes move in without a second copy).
    pub(crate) fn insert_attr(
        &mut self,
        id: DomNodeId,
        name: String,
        value: Rc<str>,
    ) -> Result<(), WebError> {
        self.node_mut(id)?.attrs.insert(name, value);
        Ok(())
    }

    /// Every attribute value in node, then name, order, to swap for an
    /// equal one (a restore shares its long strings this way).
    pub(crate) fn attr_values_mut(&mut self) -> impl Iterator<Item = &mut Rc<str>> {
        self.nodes
            .iter_mut()
            .flat_map(|node| node.attrs.values_mut())
    }

    /// Removes an attribute (no-op when absent).
    ///
    /// # Errors
    ///
    /// Returns [`WebError::Dom`] for dangling handles.
    pub fn remove_attr(&mut self, id: DomNodeId, name: &str) -> Result<(), WebError> {
        self.node_mut(id)?.attrs.remove(name);
        Ok(())
    }

    /// The element's text content.
    ///
    /// # Errors
    ///
    /// Returns [`WebError::Dom`] for dangling handles.
    pub fn text(&self, id: DomNodeId) -> Result<&str, WebError> {
        Ok(self.node(id)?.text.as_str())
    }

    /// Replaces the element's text content.
    ///
    /// # Errors
    ///
    /// Returns [`WebError::Dom`] for dangling handles.
    pub fn set_text(&mut self, id: DomNodeId, text: &str) -> Result<(), WebError> {
        self.node_mut(id)?.text = text.to_string();
        Ok(())
    }

    /// Canvas pixel payload, if any.
    ///
    /// # Errors
    ///
    /// Returns [`WebError::Dom`] for dangling handles.
    pub fn image_data(&self, id: DomNodeId) -> Result<Option<&[f32]>, WebError> {
        Ok(self.node(id)?.image_data.as_deref())
    }

    /// Attaches canvas pixel data (what the paper's apps read with
    /// `getImageData` after the user loads an image). `None` clears it.
    ///
    /// # Errors
    ///
    /// Returns [`WebError::Dom`] for dangling handles.
    pub fn set_image_data(
        &mut self,
        id: DomNodeId,
        data: Option<Vec<f32>>,
    ) -> Result<(), WebError> {
        self.node_mut(id)?.image_data = data;
        Ok(())
    }

    /// Children of an element.
    ///
    /// # Errors
    ///
    /// Returns [`WebError::Dom`] for dangling handles.
    pub fn children(&self, id: DomNodeId) -> Result<&[DomNodeId], WebError> {
        Ok(&self.node(id)?.children)
    }

    /// Depth-first iterator over all nodes reachable from the body.
    pub fn walk(&self) -> Vec<DomNodeId> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            out.push(id);
            if let Ok(node) = self.node(id) {
                for &c in node.children.iter().rev() {
                    stack.push(c);
                }
            }
        }
        out
    }

    /// Ensures every node reachable from the body has an `id` attribute,
    /// inventing `__sdomN` ids where missing — snapshots address elements by
    /// id, so capture calls this first. The body root is skipped: snapshots
    /// address it as `document.body`.
    pub fn ensure_ids(&mut self) {
        let ids = self.walk();
        let mut counter = 0usize;
        for id in ids {
            if id == self.root {
                continue;
            }
            let has = self
                .node(id)
                .map(|n| n.attrs.contains_key("id"))
                .unwrap_or(true);
            if !has {
                loop {
                    let candidate = format!("__sdom{counter}");
                    counter += 1;
                    if self.get_element_by_id(&candidate).is_none() {
                        if let Ok(node) = self.node_mut(id) {
                            node.attrs.insert("id".to_string(), candidate.into());
                        }
                        break;
                    }
                }
            }
        }
    }

    /// Structural equality of the *reachable* trees (ignores detached
    /// nodes and arena numbering) — used to verify snapshot round-trips.
    pub fn tree_eq(&self, other: &Document) -> bool {
        fn eq(a: &Document, an: DomNodeId, b: &Document, bn: DomNodeId) -> bool {
            let (na, nb) = match (a.node(an), b.node(bn)) {
                (Ok(x), Ok(y)) => (x, y),
                _ => return false,
            };
            na.tag == nb.tag
                && na.attrs == nb.attrs
                && na.text == nb.text
                && na.image_data == nb.image_data
                && na.children.len() == nb.children.len()
                && na
                    .children
                    .iter()
                    .zip(&nb.children)
                    .all(|(&x, &y)| eq(a, x, b, y))
        }
        eq(self, self.root, other, other.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_find_by_id() {
        let mut doc = Document::new();
        let btn = doc.create_element("button");
        doc.set_attr(btn, "id", "go").unwrap();
        doc.append_child(doc.body(), btn).unwrap();
        assert_eq!(doc.get_element_by_id("go"), Some(btn));
        assert_eq!(doc.get_element_by_id("missing"), None);
    }

    #[test]
    fn append_rejects_cycles() {
        let mut doc = Document::new();
        let a = doc.create_element("div");
        let b = doc.create_element("div");
        doc.append_child(a, b).unwrap();
        assert!(doc.append_child(b, a).is_err());
        assert!(doc.append_child(a, a).is_err());
    }

    #[test]
    fn text_and_attrs() {
        let mut doc = Document::new();
        let div = doc.create_element("div");
        doc.set_text(div, "hello").unwrap();
        doc.set_attr(div, "class", "result").unwrap();
        assert_eq!(doc.text(div).unwrap(), "hello");
        assert_eq!(doc.attr(div, "class").unwrap(), Some("result"));
        assert_eq!(doc.attr(div, "nope").unwrap(), None);
    }

    #[test]
    fn image_data_roundtrip() {
        let mut doc = Document::new();
        let canvas = doc.create_element("canvas");
        doc.set_image_data(canvas, Some(vec![0.1, 0.2])).unwrap();
        assert_eq!(doc.image_data(canvas).unwrap(), Some(&[0.1f32, 0.2][..]));
        doc.set_image_data(canvas, None).unwrap();
        assert_eq!(doc.image_data(canvas).unwrap(), None);
    }

    #[test]
    fn ensure_ids_covers_reachable_nodes() {
        let mut doc = Document::new();
        let a = doc.create_element("div");
        let b = doc.create_element("span");
        doc.append_child(doc.body(), a).unwrap();
        doc.append_child(a, b).unwrap();
        doc.ensure_ids();
        for id in doc.walk() {
            if id == doc.body() {
                continue; // body is addressed as document.body, not by id
            }
            assert!(doc.attr(id, "id").unwrap().is_some());
        }
    }

    #[test]
    fn ensure_ids_does_not_collide_with_existing() {
        let mut doc = Document::new();
        let a = doc.create_element("div");
        doc.set_attr(a, "id", "__sdom0").unwrap();
        doc.append_child(doc.body(), a).unwrap();
        let b = doc.create_element("div");
        doc.append_child(doc.body(), b).unwrap();
        doc.ensure_ids();
        let id_a = doc.attr(a, "id").unwrap().unwrap().to_string();
        let id_b = doc.attr(b, "id").unwrap().unwrap().to_string();
        assert_ne!(id_a, id_b);
    }

    #[test]
    fn tree_eq_ignores_arena_layout() {
        let mut d1 = Document::new();
        let x = d1.create_element("div");
        d1.append_child(d1.body(), x).unwrap();

        let mut d2 = Document::new();
        let _detached = d2.create_element("span"); // different arena layout
        let y = d2.create_element("div");
        d2.append_child(d2.body(), y).unwrap();

        assert!(d1.tree_eq(&d2));
        d2.set_text(y, "different").unwrap();
        assert!(!d1.tree_eq(&d2));
    }

    #[test]
    fn walk_visits_in_document_order() {
        let mut doc = Document::new();
        let a = doc.create_element("a");
        let b = doc.create_element("b");
        let c = doc.create_element("c");
        doc.append_child(doc.body(), a).unwrap();
        doc.append_child(doc.body(), c).unwrap();
        doc.append_child(a, b).unwrap();
        let tags: Vec<&str> = doc
            .walk()
            .into_iter()
            .map(|id| doc.tag(id).unwrap())
            .collect();
        assert_eq!(tags, vec!["body", "a", "b", "c"]);
    }
}
