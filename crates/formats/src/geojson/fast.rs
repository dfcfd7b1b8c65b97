//! The optimised block-local GeoJSON parser used in PAT mode.
//!
//! This plays the role RapidJSON plays in the paper's prototype
//! (§4.4: "the parsing stage consists of a wrapper around an
//! off-the-shelf parser, which inputs well-formed data blocks"): a
//! non-speculative recursive-descent parser that assumes its block
//! starts at a `{"type":"Feature"` marker, i.e. in a known parser
//! state (§3.5).
//!
//! One cursor parses a whole block, so its flat coordinates buffer
//! (see `geojson/coords.rs`) is allocated once per block and reused by
//! every feature in it.

use crate::feature::{MetadataFilter, RawFeature};
use crate::points::{parse_f64, parse_id};
use crate::split::find_marker;
use crate::{ParseError, MAX_NESTING};
use atgis_geometry::Geometry;

use super::coords::{interpret_geometry, CoordBuf};
use super::FEATURE_MARKER;

/// Parses every feature whose object starts in `[start, end)` of
/// `input`, appending accepted features to `out`. Objects may extend
/// past `end` (they never do when blocks are marker-aligned, except
/// for the final block's closing `]}`).
pub fn parse_block(
    input: &[u8],
    start: usize,
    end: usize,
    filter: &MetadataFilter,
    out: &mut Vec<RawFeature>,
) -> Result<(), ParseError> {
    let mut pos = start;
    let mut cur = Cursor {
        input,
        pos,
        coords: CoordBuf::default(),
    };
    while let Some(at) = find_marker(input, FEATURE_MARKER, pos) {
        if at >= end {
            break;
        }
        cur.pos = at;
        if let Some(feature) = cur.parse_feature(filter)? {
            out.push(feature);
        }
        pos = cur.pos.max(at + 1);
    }
    Ok(())
}

/// Byte-level cursor with the usual recursive-descent helpers.
struct Cursor<'a> {
    input: &'a [u8],
    pos: usize,
    /// The current feature's `coordinates` values, interpreted per
    /// geometry type once the whole geometry object is read (this
    /// makes the parser independent of member order).
    coords: CoordBuf,
}

impl<'a> Cursor<'a> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::syntax(self.pos as u64, msg)
    }

    fn too_deep(&self) -> ParseError {
        ParseError::TooDeep {
            offset: self.pos as u64,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {:?}, found {:?}",
                b as char,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Parses a string literal, returning its raw (un-unescaped)
    /// contents. The scan jumps straight to the next quote or escape
    /// via the SWAR [`crate::split::memchr2`], so plain string bytes
    /// cost 1/8th of a comparison each.
    fn parse_string(&mut self) -> Result<&'a str, ParseError> {
        self.expect(b'"')?;
        let content_start = self.pos;
        loop {
            match crate::split::memchr2(b'"', b'\\', self.input, self.pos) {
                Some(at) if self.input[at] == b'"' => {
                    let s = &self.input[content_start..at];
                    self.pos = at + 1;
                    return std::str::from_utf8(s).map_err(|_| self.err("non-UTF8 string"));
                }
                Some(at) => self.pos = at + 2, // Escape: skip the pair.
                None => {
                    self.pos = self.input.len();
                    return Err(self.err("unterminated string"));
                }
            }
        }
    }

    /// Parses a JSON number (or bare literal like `true`/`null`) and
    /// returns its text.
    fn parse_scalar_text(&mut self) -> Result<&'a str, ParseError> {
        self.skip_ws();
        let start = self.pos;
        // Lane-at-a-time scalar-run scan: number bytes plus lowercase
        // letters (`true` / `false` / `null`).
        self.pos += atgis_transducer::scan::json_scalar_span(self.input, self.pos);
        if start == self.pos {
            return Err(self.err("expected a scalar value"));
        }
        std::str::from_utf8(&self.input[start..self.pos]).map_err(|_| self.err("non-UTF8 scalar"))
    }

    fn parse_number(&mut self) -> Result<f64, ParseError> {
        let at = self.pos;
        let text = self.parse_scalar_text()?;
        parse_f64(text)
            .map_err(|e| ParseError::syntax(at as u64, format!("bad number {text:?}: {e}")))
    }

    /// Parses an `id` member's value (exact for integer literals).
    fn parse_id(&mut self) -> Result<u64, ParseError> {
        let at = self.pos;
        let text = self.parse_scalar_text()?;
        parse_id(text)
            .map_err(|e| ParseError::syntax(at as u64, format!("bad number {text:?}: {e}")))
    }

    /// Skips one arbitrary JSON value, itself inside `depth` arrays or
    /// objects of the value being skipped.
    fn skip_value(&mut self, depth: usize) -> Result<(), ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => {
                self.parse_string()?;
                Ok(())
            }
            Some(b'{' | b'[') if depth >= MAX_NESTING => Err(self.too_deep()),
            Some(b'{') => {
                self.expect(b'{')?;
                if self.eat(b'}') {
                    return Ok(());
                }
                loop {
                    self.parse_string()?;
                    self.expect(b':')?;
                    self.skip_value(depth + 1)?;
                    if !self.eat(b',') {
                        break;
                    }
                }
                self.expect(b'}')
            }
            Some(b'[') => {
                self.expect(b'[')?;
                if self.eat(b']') {
                    return Ok(());
                }
                loop {
                    self.skip_value(depth + 1)?;
                    if !self.eat(b',') {
                        break;
                    }
                }
                self.expect(b']')
            }
            Some(_) => {
                self.parse_scalar_text()?;
                Ok(())
            }
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parses one feature object starting at the cursor. Returns
    /// `None` when the metadata filter rejects it.
    fn parse_feature(&mut self, filter: &MetadataFilter) -> Result<Option<RawFeature>, ParseError> {
        let offset = self.pos;
        self.coords.clear();
        self.expect(b'{')?;
        let mut geometry = None;
        let mut id = 0u64;
        let mut tags_ok = !filter.needs_tags();
        if self.eat(b'}') {
            return Err(self.err("empty feature object"));
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            match key {
                "type" => {
                    let t = self.parse_string()?;
                    if t != "Feature" {
                        return Err(self.err(format!("expected Feature, got {t:?}")));
                    }
                }
                "geometry" => geometry = Some(self.parse_geometry(1)?),
                "id" => id = self.parse_id()?,
                "properties" => {
                    self.skip_ws();
                    let span_start = self.pos;
                    let pair_match = self.parse_properties(filter)?;
                    tags_ok = if filter.needs_raw_properties() {
                        filter.accepts_properties_json(&self.input[span_start..self.pos])
                    } else {
                        pair_match || tags_ok
                    };
                }
                _ => self.skip_value(0)?,
            }
            if !self.eat(b',') {
                break;
            }
        }
        self.expect(b'}')?;
        let geometry = geometry.ok_or_else(|| self.err("feature without geometry"))?;
        let len = (self.pos - offset) as u32;
        if !filter.accepts_id(id) || !tags_ok {
            return Ok(None);
        }
        Ok(Some(RawFeature {
            id,
            geometry,
            offset: offset as u64,
            len,
        }))
    }

    /// Parses the properties object, returning whether the filter's
    /// key/value predicate matched (always true for filters that do
    /// not inspect tags).
    fn parse_properties(&mut self, filter: &MetadataFilter) -> Result<bool, ParseError> {
        self.expect(b'{')?;
        let mut matched = !filter.needs_tags();
        if self.eat(b'}') {
            return Ok(matched);
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            self.skip_ws();
            match self.peek() {
                Some(b'"') => {
                    let value = self.parse_string()?;
                    if filter.accepts_tags(std::iter::once((key, value))) && filter.needs_tags() {
                        matched = true;
                    }
                }
                _ => self.skip_value(0)?,
            }
            if !self.eat(b',') {
                break;
            }
        }
        self.expect(b'}')?;
        Ok(matched)
    }

    /// Parses a geometry object, itself the `depth`-th level of
    /// `geometries` nesting.
    fn parse_geometry(&mut self, depth: usize) -> Result<Geometry, ParseError> {
        if depth > MAX_NESTING {
            return Err(self.too_deep());
        }
        self.expect(b'{')?;
        let mut kind: Option<&str> = None;
        let mut coords: Option<usize> = None;
        let mut members: Option<Vec<Geometry>> = None;
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            match key {
                "type" => kind = Some(self.parse_string()?),
                "coordinates" => coords = Some(self.parse_coords()?),
                "geometries" => {
                    let mut gs = Vec::new();
                    self.expect(b'[')?;
                    if !self.eat(b']') {
                        loop {
                            gs.push(self.parse_geometry(depth + 1)?);
                            if !self.eat(b',') {
                                break;
                            }
                        }
                        self.expect(b']')?;
                    }
                    members = Some(gs);
                }
                _ => self.skip_value(0)?,
            }
            if !self.eat(b',') {
                break;
            }
        }
        self.expect(b'}')?;
        let kind = kind.ok_or_else(|| self.err("geometry without type"))?;
        interpret_geometry(kind, coords.map(|root| self.coords.value(root)), members)
            .map_err(|m| self.err(m))
    }

    /// Appends one `coordinates` value to the buffer and returns the
    /// index of its root. Iterative: the buffer's open-array stack
    /// replaces recursion, and bounds it at [`MAX_NESTING`].
    fn parse_coords(&mut self) -> Result<usize, ParseError> {
        let root = self.coords.next_index();
        self.skip_ws();
        if self.peek() != Some(b'[') {
            let v = self.parse_number()?;
            self.coords.num(v);
            return Ok(root);
        }
        loop {
            // At the start of an element: an array opens, anything
            // else is a numeric leaf.
            self.skip_ws();
            if self.peek() == Some(b'[') {
                if self.coords.open().is_err() {
                    return Err(self.too_deep());
                }
                self.pos += 1;
                if !self.eat(b']') {
                    continue;
                }
                self.coords.close();
            } else {
                let v = self.parse_number()?;
                self.coords.num(v);
            }
            // After an element: `,` starts its sibling; otherwise its
            // array (and possibly enclosing ones) must close.
            loop {
                if self.coords.depth() == 0 {
                    return Ok(root);
                }
                if self.eat(b',') {
                    break;
                }
                self.expect(b']')?;
                self.coords.close();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atgis_geometry::Point;

    fn one(doc: &str) -> RawFeature {
        let mut out = Vec::new();
        parse_block(doc.as_bytes(), 0, doc.len(), &MetadataFilter::All, &mut out).unwrap();
        assert_eq!(out.len(), 1, "expected one feature in {doc}");
        out.into_iter().next().unwrap()
    }

    #[test]
    fn parses_polygon_with_hole() {
        let f = one(
            r#"{"type":"Feature","geometry":{"type":"Polygon","coordinates":[[[0.0,0.0],[4.0,0.0],[4.0,4.0],[0.0,4.0]],[[1.0,1.0],[2.0,1.0],[2.0,2.0],[1.0,2.0]]]},"id":9,"properties":{}}"#,
        );
        match f.geometry {
            Geometry::Polygon(p) => {
                assert_eq!(p.holes.len(), 1);
                assert!((p.area() - 15.0).abs() < 1e-12);
            }
            g => panic!("got {g:?}"),
        }
    }

    #[test]
    fn member_order_is_irrelevant() {
        let f = one(
            r#"{"type":"Feature","id":3,"geometry":{"coordinates":[1.5,2.5],"type":"Point"},"properties":{"a":1}}"#,
        );
        assert_eq!(f.id, 3);
        assert_eq!(f.geometry, Geometry::Point(Point::new(1.5, 2.5)));
    }

    #[test]
    fn skips_unknown_members_and_nested_metadata() {
        let f = one(
            r#"{"type":"Feature","bbox":[0,0,1,1],"geometry":{"type":"Point","coordinates":[1.0,2.0]},"id":5,"properties":{"nested":{"deep":[1,{"x":"y"}]},"flag":true}}"#,
        );
        assert_eq!(f.id, 5);
    }

    #[test]
    fn marker_inside_string_is_not_a_feature() {
        // The marker bytes appear inside a properties string; the naive
        // scan finds them but the parse fails mid-string... it must not
        // *miscount*. We place the tricky feature alone so the scan
        // directly shows the behaviour.
        let doc = r#"{"type":"Feature","geometry":{"type":"Point","coordinates":[0.0,0.0]},"id":1,"properties":{"note":"x"}}"#;
        let f = one(doc);
        assert_eq!(f.len as usize, doc.len());
    }

    #[test]
    fn escaped_quotes_in_properties() {
        let f = one(
            r#"{"type":"Feature","geometry":{"type":"Point","coordinates":[0.0,1.0]},"id":2,"properties":{"name":"say \"hi\" {[,:]}"}}"#,
        );
        assert_eq!(f.id, 2);
    }

    #[test]
    fn rejects_malformed_feature() {
        let doc = r#"{"type":"Feature","geometry":{"type":"Point","coordinates":}}"#;
        let mut out = Vec::new();
        let err = parse_block(doc.as_bytes(), 0, doc.len(), &MetadataFilter::All, &mut out);
        assert!(err.is_err());
    }

    #[test]
    fn rejects_feature_without_geometry() {
        let doc = r#"{"type":"Feature","id":1,"properties":{}}"#;
        let mut out = Vec::new();
        assert!(parse_block(doc.as_bytes(), 0, doc.len(), &MetadataFilter::All, &mut out).is_err());
    }

    #[test]
    fn negative_and_exponent_coordinates() {
        let f = one(
            r#"{"type":"Feature","geometry":{"type":"Point","coordinates":[-1.5e2,2.5E-1]},"id":1,"properties":{}}"#,
        );
        assert_eq!(f.geometry, Geometry::Point(Point::new(-150.0, 0.25)));
    }
}
