//! A miniature HTML parser: elements, attributes, text and `<script>`
//! blocks — the subset the paper's apps (and generated snapshots) use.

use crate::dom::{Document, DomNode, DomNodeId};
use crate::WebError;
use std::rc::Rc;

/// Result of parsing an HTML document.
#[derive(Debug)]
pub struct ParsedDocument {
    /// The DOM (body subtree).
    pub document: Document,
    /// The contents of each `<script>` block, in document order.
    pub scripts: Vec<String>,
}

const LANES_LO: u64 = 0x0101_0101_0101_0101;
const LANES_HI: u64 = 0x8080_8080_8080_8080;

/// Index of the first byte at or after `from` that is in `set`, or
/// `bytes.len()` when there is none.
///
/// Eight bytes a step: a lane of `word ^ splat(b)` is zero exactly where
/// the text holds `b`, and `(x - LO) & !x & HI` flags zero lanes. Its
/// borrow can flag lanes *above* a zero lane, never below one, so the
/// lowest flag is always a true hit. The set holds ASCII bytes only, which
/// never occur inside a multi-byte UTF-8 sequence, so on a `str`'s bytes
/// the answer is a char boundary.
pub(crate) fn find_set<const N: usize>(bytes: &[u8], from: usize, set: &[u8; N]) -> usize {
    debug_assert!(N <= 4 && set.is_ascii());
    let rest = bytes.get(from..).unwrap_or_default();
    let (words, tail) = rest.as_chunks::<8>();
    for (i, word) in words.iter().enumerate() {
        let word = u64::from_le_bytes(*word);
        let mut hits = 0;
        for &b in set {
            let x = word ^ (LANES_LO * u64::from(b));
            hits |= x.wrapping_sub(LANES_LO) & !x & LANES_HI;
        }
        if hits != 0 {
            return from + i * 8 + (hits.trailing_zeros() / 8) as usize;
        }
    }
    let tail_start = bytes.len() - tail.len();
    tail.iter()
        .position(|b| set.contains(b))
        .map_or(bytes.len(), |p| tail_start + p)
}

/// Appends `s` to `out`, escaped for HTML text and double-quoted
/// attribute values: runs without `&<>"` are copied whole.
pub(crate) fn escape_html_into(s: &str, out: &mut String) {
    let bytes = s.as_bytes();
    let mut start = 0;
    loop {
        let at = find_set(bytes, start, b"&<>\"");
        out.push_str(&s[start..at]);
        let entity = match bytes.get(at) {
            None => return,
            Some(b'&') => "&amp;",
            Some(b'<') => "&lt;",
            Some(b'>') => "&gt;",
            Some(_) => "&quot;",
        };
        out.push_str(entity);
        start = at + 1;
    }
}

/// The entities [`escape_html_into`] writes, and the characters they stand
/// for.
const ENTITIES: [(&str, char); 4] = [
    ("&lt;", '<'),
    ("&gt;", '>'),
    ("&quot;", '"'),
    ("&amp;", '&'),
];

/// Appends `s` to `out` with the four [`ENTITIES`] decoded, left to right
/// in one pass. Every entity holds one `&`, first, so no two matches can
/// overlap and a decoded `&` is never read again: the output is what
/// replacing each entity in turn (`&amp;` last) would give.
fn unescape_html_into(s: &str, out: &mut String) {
    let bytes = s.as_bytes();
    let mut start = 0;
    let mut at = find_set(bytes, 0, b"&");
    while at < bytes.len() {
        let rest = &s[at..];
        match ENTITIES.iter().find(|(name, _)| rest.starts_with(name)) {
            Some((name, c)) => {
                out.push_str(&s[start..at]);
                out.push(*c);
                start = at + name.len();
                at = find_set(bytes, start, b"&");
            }
            None => at = find_set(bytes, at + 1, b"&"),
        }
    }
    out.push_str(&s[start..]);
}

/// `s` with its entities decoded, as the string an attribute holds: text
/// without an `&` (a data URL) is copied once, straight from the source.
fn unescape_html_shared(s: &str) -> Rc<str> {
    if find_set(s.as_bytes(), 0, b"&") == s.len() {
        return Rc::from(s);
    }
    let mut out = String::with_capacity(s.len());
    unescape_html_into(s, &mut out);
    Rc::from(out)
}

/// Parsed opening tag: name, attributes, and whether it was self-closing.
type OpeningTag = (String, Vec<(String, Rc<str>)>, bool);

struct HtmlParser<'a> {
    html: &'a str,
    src: &'a [u8],
    pos: usize,
}

/// Parses an HTML document into a DOM plus its scripts.
///
/// Accepted shape: optional `<html>` wrapper, optional `<body>` (created if
/// absent), nested elements with double-quoted attributes, text content,
/// and `<script>` blocks (captured raw, run by the caller). `<script>`
/// elements may appear anywhere at top level or inside `<html>`.
///
/// # Errors
///
/// Returns [`WebError::Html`] for mismatched or malformed tags.
pub fn parse_document(html: &str) -> Result<ParsedDocument, WebError> {
    let mut parser = HtmlParser {
        html,
        src: html.as_bytes(),
        pos: 0,
    };
    let mut doc = Document::new();
    let mut scripts = Vec::new();
    let body = doc.body();
    parser.parse_children(&mut doc, body, &mut scripts, None)?;
    Ok(ParsedDocument {
        document: doc,
        scripts,
    })
}

impl<'a> HtmlParser<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s.as_bytes())
    }

    fn error(&self, message: &str) -> WebError {
        WebError::Html(format!("{message} (at byte {})", self.pos))
    }

    /// The source from `start` to the current position. Every scan stops
    /// at an ASCII byte or the end, so this is a char boundary; the error
    /// is for the type, not for any input.
    fn since(&self, start: usize) -> Result<&'a str, WebError> {
        self.html
            .get(start..self.pos)
            .ok_or_else(|| self.error("split a utf-8 character"))
    }

    /// Parses children until `</closing>` (or EOF when `closing` is None).
    fn parse_children(
        &mut self,
        doc: &mut Document,
        parent: DomNodeId,
        scripts: &mut Vec<String>,
        closing: Option<&str>,
    ) -> Result<(), WebError> {
        let mut text = String::new();
        loop {
            match self.peek() {
                None => {
                    if let Some(tag) = closing {
                        return Err(self.error(&format!("missing </{tag}>")));
                    }
                    break;
                }
                Some(b'<') => {
                    if self.starts_with("</") {
                        let end = self.read_closing_tag()?;
                        match closing {
                            Some(tag) if tag.eq_ignore_ascii_case(&end) => break,
                            Some(tag) => {
                                return Err(
                                    self.error(&format!("expected </{tag}>, found </{end}>"))
                                )
                            }
                            None => return Err(self.error(&format!("unexpected </{end}>"))),
                        }
                    }
                    let (tag, attrs, self_closed) = self.read_opening_tag()?;
                    let tag_lower = tag.to_ascii_lowercase();
                    if tag_lower == "script" {
                        let body = self.read_raw_until("</script>")?;
                        scripts.push(body);
                        continue;
                    }
                    if tag_lower == "html" || tag_lower == "body" {
                        // Transparent wrappers: their children attach to the
                        // current parent (our Document always has a body).
                        if !self_closed {
                            self.parse_children(doc, parent, scripts, Some(&tag_lower))?;
                        }
                        continue;
                    }
                    let node = doc.create_element(&tag_lower);
                    for (k, v) in attrs {
                        doc.insert_attr(node, k, v)?;
                    }
                    doc.append_child(parent, node)?;
                    if !self_closed {
                        self.parse_children(doc, node, scripts, Some(&tag_lower))?;
                    }
                }
                Some(_) => {
                    let start = self.pos;
                    self.pos = find_set(self.src, start, b"<");
                    unescape_html_into(self.since(start)?, &mut text);
                }
            }
        }
        let trimmed = text.trim();
        if !trimmed.is_empty() {
            doc.set_text(parent, trimmed)?;
        }
        Ok(())
    }

    fn read_opening_tag(&mut self) -> Result<OpeningTag, WebError> {
        debug_assert_eq!(self.peek(), Some(b'<'));
        self.pos += 1;
        let tag = self.read_name()?;
        let mut attrs = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    return Ok((tag, attrs, false));
                }
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() == Some(b'>') {
                        self.pos += 1;
                        return Ok((tag, attrs, true));
                    }
                    return Err(self.error("expected '>' after '/'"));
                }
                Some(_) => {
                    let name = self.read_name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        attrs.push((name, Rc::from("")));
                        continue;
                    }
                    self.pos += 1;
                    self.skip_ws();
                    if self.peek() != Some(b'"') {
                        return Err(self.error("attribute values must be double-quoted"));
                    }
                    self.pos += 1;
                    let start = self.pos;
                    self.pos = find_set(self.src, start, b"\"");
                    if self.peek().is_none() {
                        return Err(self.error("unterminated attribute value"));
                    }
                    attrs.push((name, unescape_html_shared(self.since(start)?)));
                    self.pos += 1; // closing quote
                }
                None => return Err(self.error("unterminated tag")),
            }
        }
    }

    fn read_closing_tag(&mut self) -> Result<String, WebError> {
        self.pos += 2; // "</"
        let name = self.read_name()?;
        self.skip_ws();
        if self.peek() != Some(b'>') {
            return Err(self.error("malformed closing tag"));
        }
        self.pos += 1;
        Ok(name)
    }

    fn read_name(&mut self) -> Result<String, WebError> {
        let start = self.pos;
        while self
            .peek()
            .map(|c| c.is_ascii_alphanumeric() || c == b'-' || c == b'_')
            .unwrap_or(false)
        {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.error("expected a name"));
        }
        Ok(self.since(start)?.to_string())
    }

    /// Everything up to the first `marker` (ASCII case-insensitive, which
    /// starts with `<`), consuming the marker too.
    fn read_raw_until(&mut self, marker: &str) -> Result<String, WebError> {
        let needle = marker.as_bytes();
        debug_assert_eq!(needle.first(), Some(&b'<'));
        let mut at = self.pos;
        loop {
            at = find_set(self.src, at, b"<");
            match self.src.get(at..at + needle.len()) {
                Some(w) if w.eq_ignore_ascii_case(needle) => break,
                Some(_) => at += 1,
                None => return Err(self.error(&format!("missing {marker}"))),
            }
        }
        let start = self.pos;
        self.pos = at;
        let body = self.since(start)?.to_string();
        self.pos += needle.len();
        Ok(body)
    }

    fn skip_ws(&mut self) {
        while self
            .peek()
            .map(|c| c.is_ascii_whitespace())
            .unwrap_or(false)
        {
            self.pos += 1;
        }
    }
}

/// Serializes the reachable DOM back to HTML body markup (no scripts).
pub fn serialize_body(doc: &Document) -> String {
    let mut out = String::new();
    serialize_body_into(doc, &mut out);
    out
}

/// [`serialize_body`] appended to `out`: a snapshot writes its markup
/// straight into the buffer it ships.
pub(crate) fn serialize_body_into(doc: &Document, out: &mut String) {
    fn write_children(doc: &Document, node: &DomNode, out: &mut String) {
        for &c in &node.children {
            if let Ok(child) = doc.node(c) {
                write_node(doc, child, out);
            }
        }
    }
    fn write_node(doc: &Document, node: &DomNode, out: &mut String) {
        out.push('<');
        out.push_str(&node.tag);
        // Deterministic attribute order (the attributes are a BTreeMap).
        for (k, v) in &node.attrs {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            escape_html_into(v, out);
            out.push('"');
        }
        out.push('>');
        escape_html_into(&node.text, out);
        write_children(doc, node, out);
        out.push_str("</");
        out.push_str(&node.tag);
        out.push('>');
    }
    if let Ok(body) = doc.node(doc.body()) {
        escape_html_into(&body.text, out);
        write_children(doc, body, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_document() {
        let parsed = parse_document(
            r#"<html><body>
                <button id="btn">Run</button>
                <div id="out" class="result">waiting</div>
            </body></html>"#,
        )
        .unwrap();
        let doc = &parsed.document;
        let btn = doc.get_element_by_id("btn").unwrap();
        assert_eq!(doc.tag(btn).unwrap(), "button");
        assert_eq!(doc.text(btn).unwrap(), "Run");
        let out = doc.get_element_by_id("out").unwrap();
        assert_eq!(doc.attr(out, "class").unwrap(), Some("result"));
        assert_eq!(doc.text(out).unwrap(), "waiting");
    }

    #[test]
    fn captures_scripts_in_order() {
        let parsed = parse_document(
            "<html><script>var a = 1;</script><body></body><script>var b = 2;</script></html>",
        )
        .unwrap();
        assert_eq!(parsed.scripts, vec!["var a = 1;", "var b = 2;"]);
    }

    #[test]
    fn script_content_is_raw() {
        // `<` inside scripts must not be parsed as a tag.
        let parsed = parse_document("<script>if (a < b) { x = \"<div>\"; }</script>").unwrap();
        assert_eq!(parsed.scripts[0], "if (a < b) { x = \"<div>\"; }");
    }

    #[test]
    fn self_closing_and_nested() {
        let parsed =
            parse_document(r#"<div id="a"><img src="x.png"/><span id="b"></span></div>"#).unwrap();
        let doc = &parsed.document;
        let a = doc.get_element_by_id("a").unwrap();
        assert_eq!(doc.children(a).unwrap().len(), 2);
    }

    #[test]
    fn rejects_mismatched_tags() {
        assert!(parse_document("<div><span></div></span>").is_err());
        assert!(parse_document("<div>").is_err());
    }

    #[test]
    fn entity_roundtrip() {
        let parsed = parse_document("<div id=\"d\">a &lt;b&gt; &amp;&quot;c&quot;</div>").unwrap();
        let doc = &parsed.document;
        let d = doc.get_element_by_id("d").unwrap();
        assert_eq!(doc.text(d).unwrap(), "a <b> &\"c\"");
    }

    #[test]
    fn serialize_body_roundtrips() {
        let html =
            r#"<div id="a" title="x &amp; y">hello &lt;world&gt;<span id="b">inner</span></div>"#;
        let parsed = parse_document(html).unwrap();
        let serialized = serialize_body(&parsed.document);
        let reparsed = parse_document(&serialized).unwrap();
        assert!(parsed.document.tree_eq(&reparsed.document));
    }

    /// The char-at-a-time escape [`escape_html_into`] replaced: the
    /// reference its tests compare against.
    fn escape_html_by_chars(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '&' => out.push_str("&amp;"),
                '<' => out.push_str("&lt;"),
                '>' => out.push_str("&gt;"),
                '"' => out.push_str("&quot;"),
                other => out.push(other),
            }
        }
        out
    }

    /// The chained replaces [`unescape_html_into`] replaced: the reference
    /// its tests compare against.
    fn unescape_html_by_replace(s: &str) -> String {
        s.replace("&lt;", "<")
            .replace("&gt;", ">")
            .replace("&quot;", "\"")
            .replace("&amp;", "&")
    }

    fn escaped(s: &str) -> String {
        let mut out = String::new();
        escape_html_into(s, &mut out);
        out
    }

    fn unescaped(s: &str) -> String {
        let mut out = String::new();
        unescape_html_into(s, &mut out);
        out
    }

    /// Each byte set the module scans for.
    fn check_every_set(bytes: &[u8], from: usize) -> [usize; 3] {
        fn one<const N: usize>(bytes: &[u8], from: usize, set: &[u8; N]) -> usize {
            let want = bytes[from..]
                .iter()
                .position(|b| set.contains(b))
                .map_or(bytes.len(), |p| from + p);
            let got = find_set(bytes, from, set);
            assert_eq!(got, want, "{set:?} in {bytes:?} from {from}");
            got
        }
        [
            one(bytes, from, b"&<>\""),
            one(bytes, from, b"\""),
            one(bytes, from, b"<"),
        ]
    }

    #[test]
    fn find_set_is_position_for_every_byte_at_every_offset() {
        // Backgrounds next to the has-zero test's edge cases: a zero lane,
        // a high-bit lane, and each needle's neighbours by one bit.
        let mut backgrounds = vec![b'a', 0x00, 0x80, 0xff];
        for &b in b"&<>\"" {
            backgrounds.extend([b ^ 1, b ^ 0x80, b.wrapping_sub(1)]);
        }
        for &background in &backgrounds {
            for len in 0..=24usize {
                for at in 0..len {
                    for value in 0..=255u8 {
                        let mut hay = vec![background; len];
                        hay[at] = value;
                        for from in 0..=len {
                            check_every_set(&hay, from);
                        }
                    }
                }
            }
        }
        assert_eq!(find_set(b"abc", 7, b"<"), 3, "from past the end");
    }

    #[test]
    fn find_set_stops_on_char_boundaries_in_utf8_text() {
        const PIECES: &[&str] = &[
            "a", "é", "€", "😀", "\u{80}", "\u{7ff}", "<", "&", "\"", ">", " ", "\u{ffff}",
        ];
        for case in 0..500u64 {
            let mut rng = snapedge_rng::Rng::seed_from_u64(27_000 + case);
            let text: String = (0..rng.gen_range_usize(0, 40))
                .map(|_| *rng.choose(PIECES))
                .collect();
            for from in (0..=text.len()).filter(|&i| text.is_char_boundary(i)) {
                for hit in check_every_set(text.as_bytes(), from) {
                    assert!(text.is_char_boundary(hit), "{text:?} from {from}");
                }
            }
        }
    }

    /// Entity-dense text: whole and broken entities, doubled `&`, and
    /// multi-byte characters.
    fn entity_soup(rng: &mut snapedge_rng::Rng, max_pieces: usize) -> String {
        const PIECES: &[&str] = &[
            "&amp;lt;", "&&quot;", "&", "&lt", "&lt;", "&gt;", "&quot;", "&amp;", "&amp", ";", "<",
            ">", "\"", "lt;", "quot;", "a", "b c", "é", "€", "😀",
        ];
        (0..rng.gen_range_usize(0, max_pieces + 1))
            .map(|_| *rng.choose(PIECES))
            .collect()
    }

    #[test]
    fn escape_and_unescape_match_their_references() {
        for named in ["", "&amp;lt;", "&&quot;", "&", "&lt", "a&b", "&quot;&amp;"] {
            assert_eq!(escaped(named), escape_html_by_chars(named), "{named:?}");
            assert_eq!(
                unescaped(named),
                unescape_html_by_replace(named),
                "{named:?}"
            );
        }
        for case in 0..2_000u64 {
            let mut rng = snapedge_rng::Rng::seed_from_u64(27_500 + case);
            let s = entity_soup(&mut rng, 24);
            assert_eq!(escaped(&s), escape_html_by_chars(&s), "{s:?}");
            assert_eq!(unescaped(&s), unescape_html_by_replace(&s), "{s:?}");
            assert_eq!(unescaped(&escaped(&s)), s, "{s:?}");
        }
    }

    /// A random tree of elements whose text and attribute values are
    /// entity soup, in the shapes the parser reads back: lower-case tags,
    /// trimmed text.
    fn random_document(rng: &mut snapedge_rng::Rng) -> Document {
        const TAGS: &[&str] = &["div", "span", "p", "img", "button"];
        const ATTRS: &[&str] = &["id", "class", "src", "data-x", "title_2"];
        let mut doc = Document::new();
        let mut nodes = vec![doc.body()];
        for _ in 0..rng.gen_range_usize(0, 12) {
            let tag = *rng.choose(TAGS);
            let node = doc.create_element(tag);
            for _ in 0..rng.gen_range_usize(0, 3) {
                let name = *rng.choose(ATTRS);
                let value = entity_soup(rng, 6);
                doc.set_attr(node, name, &value).unwrap();
            }
            let parent = *rng.choose(&nodes);
            doc.append_child(parent, node).unwrap();
            nodes.push(node);
        }
        for &node in &nodes {
            if rng.next_bool() {
                let text = entity_soup(rng, 6);
                doc.set_text(node, text.trim()).unwrap();
            }
        }
        doc
    }

    #[test]
    fn serialized_documents_parse_back_to_the_same_tree() {
        for case in 0..500u64 {
            let mut rng = snapedge_rng::Rng::seed_from_u64(28_000 + case);
            let doc = random_document(&mut rng);
            let html = serialize_body(&doc);
            let reparsed = parse_document(&html).unwrap();
            assert!(doc.tree_eq(&reparsed.document), "case {case}: {html}");
            assert!(reparsed.scripts.is_empty());
        }
    }

    #[test]
    fn script_end_matches_in_any_case() {
        let parsed = parse_document("<script>a = 1;</ScRiPt><script>b</SCRIPT>").unwrap();
        assert_eq!(parsed.scripts, vec!["a = 1;", "b"]);
    }

    #[test]
    fn script_body_keeps_near_miss_markers() {
        let body = "if (a < b) { x = \"</scr\" + \"ipt\"; y = \"</script \"; } <";
        let parsed = parse_document(&format!("<script>{body}</script>")).unwrap();
        assert_eq!(parsed.scripts, vec![body]);
    }

    #[test]
    fn script_end_cut_off_at_end_of_input_is_an_html_error() {
        for cut in [
            "<script>a",
            "<script>a<",
            "<script>a</scri",
            "<script>a</script",
        ] {
            match parse_document(cut) {
                Err(WebError::Html(message)) => {
                    assert!(message.starts_with("missing </script>"), "{cut}: {message}")
                }
                other => panic!("{cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn empty_script_is_an_empty_body() {
        let parsed = parse_document("<script></script><div id=\"d\">x</div>").unwrap();
        assert_eq!(parsed.scripts, vec![""]);
        assert!(parsed.document.get_element_by_id("d").is_some());
    }
}
