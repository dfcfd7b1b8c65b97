//! OpenStreetMap XML — the OSM-X dataset flavour.
//!
//! "OpenStreetMap XML is the most complex format to support because it
//! separates the data into multiple sections: first it lists all the
//! nodes that link a numeric identifier to a point in space; followed
//! by the ways that relate multiple nodes; and finally relations that
//! link nodes and ways to describe complex polygons. AT-GIS handles
//! the separation of point and polygon data by keeping a temporary
//! table of all points and ways …, which is constructed during the
//! first data pass" (§4.4).
//!
//! This module implements that design as one collection pass and one
//! sequential assembly:
//!
//! 1. [`collect_block`] reads a byte range once and returns every
//!    node, way and relation element that starts in it, as an
//!    [`XmlBlock`]. Blocks are independent (parallelisable) and merge
//!    by concatenation; blocks split on newlines (OSM XML is
//!    element-per-line).
//! 2. [`XmlBlock::node_table`] builds the temporary node table once,
//!    and [`assemble`] resolves ways and relations against it.
//!
//! The scanner borrows element names and attribute text from the
//! input; the only per-element allocations are the owned way tags and
//! relation roles kept in [`WaySpec`] and [`RelationSpec`]. Node
//! coordinates go through the crate's one number parser,
//! [`crate::points::parse_f64`].

use crate::feature::{MetadataFilter, RawFeature};
use crate::points::parse_f64;
use crate::split::{find_marker, memchr};
use crate::ParseError;
use atgis_geometry::{Geometry, LineString, MultiPolygon, Point, Polygon, Ring};
use std::collections::HashMap;

/// The temporary node table: OSM node id → coordinate.
pub type NodeTable = HashMap<u64, Point>;

/// A parsed way: id, node refs and tags — kept in the temporary table
/// so relations can assemble multipolygons from member ways.
#[derive(Debug, Clone, PartialEq)]
pub struct WaySpec {
    /// OSM way id.
    pub id: u64,
    /// Ordered node references.
    pub refs: Vec<u64>,
    /// `k=v` tags.
    pub tags: Vec<(String, String)>,
    /// Byte offset of the `<way` element.
    pub offset: u64,
    /// Byte length of the element.
    pub len: u32,
}

/// A parsed relation: id plus way members with roles.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationSpec {
    /// OSM relation id.
    pub id: u64,
    /// `(way_id, role)` members.
    pub members: Vec<(u64, String)>,
    /// Byte offset of the `<relation` element.
    pub offset: u64,
    /// Byte length of the element.
    pub len: u32,
}

/// Everything one block contributes, in document order. The merge of
/// two adjacent blocks is concatenation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct XmlBlock {
    /// `(id, point)` of every `<node>` with an id, `lat` and `lon`,
    /// outside any way or relation, or a direct child of one. A later
    /// duplicate id overrides an earlier one.
    pub nodes: Vec<(u64, Point)>,
    /// Every `<way>` outside any way or relation, or a direct child of
    /// a relation.
    pub ways: Vec<WaySpec>,
    /// Every `<relation>` outside any way or relation.
    pub relations: Vec<RelationSpec>,
}

impl XmlBlock {
    /// Appends `other`, which must cover the input after `self`.
    pub fn append(&mut self, mut other: XmlBlock) {
        self.nodes.append(&mut other.nodes);
        self.ways.append(&mut other.ways);
        self.relations.append(&mut other.relations);
    }

    /// Builds the temporary node table (later ids override earlier).
    pub fn node_table(&self) -> NodeTable {
        let mut table = NodeTable::with_capacity(self.nodes.len());
        table.extend(self.nodes.iter().copied());
        table
    }
}

/// The collection pass over one byte range: every node, way and
/// relation element that *starts* in `[start, end)` (their contents
/// may run past `end`).
pub fn collect_block(input: &[u8], start: usize, end: usize) -> Result<XmlBlock, ParseError> {
    let mut out = XmlBlock::default();
    let mut sc = Scanner {
        input,
        pos: start,
        attrs: Vec::new(),
    };
    while let Some(elem) = sc.next_element(end)? {
        match elem.name {
            b"node" => sc.push_node(&elem, &mut out.nodes)?,
            b"way" => sc.push_way(&elem, &mut out)?,
            b"relation" => {
                let id = sc.required_id(&elem, "relation without id")?;
                let members = sc.relation_children(&elem, &mut out)?;
                out.relations.push(RelationSpec {
                    id,
                    members,
                    offset: elem.offset as u64,
                    len: (sc.pos - elem.offset) as u32,
                });
            }
            // Everything else (the <osm> container, <bounds>, stray
            // children) is scanned *through*, not skipped over.
            _ => {}
        }
    }
    Ok(out)
}

/// Final assembly: resolves way refs against the node table, attaches
/// relation members and emits features. Runs once after the parallel
/// collection pass (its cost is proportional to the *object* count,
/// not the byte count, so it does not bound scalability).
pub fn assemble(
    ways: &[WaySpec],
    relations: &[RelationSpec],
    nodes: &NodeTable,
    filter: &MetadataFilter,
) -> Vec<RawFeature> {
    let way_index: HashMap<u64, usize> = ways.iter().enumerate().map(|(i, w)| (w.id, i)).collect();
    let mut in_relation: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut out = Vec::new();

    for rel in relations {
        let mut outers = Vec::new();
        let mut inners = Vec::new();
        for (way_id, role) in &rel.members {
            in_relation.insert(*way_id);
            if let Some(&wi) = way_index.get(way_id) {
                if let Some(ring) = way_ring(&ways[wi], nodes) {
                    if role == "inner" {
                        inners.push(ring);
                    } else {
                        outers.push(ring);
                    }
                }
            }
        }
        if outers.is_empty() {
            continue;
        }
        let polygons: Vec<Polygon> = outers
            .into_iter()
            .map(|ext| {
                // Attach inners contained by this outer's bbox.
                let holes = inners
                    .iter()
                    .filter(|h| ext.mbr().contains(&h.mbr()))
                    .cloned()
                    .collect();
                Polygon::new(ext, holes)
            })
            .collect();
        let geometry = if polygons.len() == 1 {
            Geometry::Polygon(polygons.into_iter().next().expect("one"))
        } else {
            Geometry::MultiPolygon(MultiPolygon::new(polygons))
        };
        if filter.accepts_id(rel.id) {
            out.push(RawFeature {
                id: rel.id,
                geometry,
                offset: rel.offset,
                len: rel.len,
            });
        }
    }

    for w in ways {
        if in_relation.contains(&w.id) {
            continue; // Geometry already emitted through its relation.
        }
        if !filter.accepts_id(w.id) {
            continue;
        }
        if filter.needs_tags()
            && !filter.accepts_tags(w.tags.iter().map(|(k, v)| (k.as_str(), v.as_str())))
        {
            continue;
        }
        let pts: Vec<Point> = w
            .refs
            .iter()
            .filter_map(|r| nodes.get(r).copied())
            .collect();
        if pts.len() < 2 {
            continue;
        }
        let closed = w.refs.len() >= 4 && w.refs.first() == w.refs.last();
        let geometry = if closed {
            Geometry::Polygon(Polygon::new(Ring::new(pts), Vec::new()))
        } else {
            Geometry::LineString(LineString::new(pts))
        };
        out.push(RawFeature {
            id: w.id,
            geometry,
            offset: w.offset,
            len: w.len,
        });
    }
    // Deterministic output order: by appearance in the file.
    out.sort_by_key(|f| f.offset);
    out
}

fn way_ring(way: &WaySpec, nodes: &NodeTable) -> Option<Ring> {
    let pts: Vec<Point> = way
        .refs
        .iter()
        .filter_map(|r| nodes.get(r).copied())
        .collect();
    if pts.len() < 3 {
        return None;
    }
    Some(Ring::new(pts))
}

/// Full parse of an OSM XML document: one collection pass over the
/// whole input, then assembly.
pub fn parse(input: &[u8], filter: &MetadataFilter) -> Result<Vec<RawFeature>, ParseError> {
    let block = collect_block(input, 0, input.len())?;
    Ok(assemble(
        &block.ways,
        &block.relations,
        &block.node_table(),
        filter,
    ))
}

/// A `<way>` body: node refs and tags.
type WayBody = (Vec<u64>, Vec<(String, String)>);

/// One opening tag. Its attributes are in the scanner's buffer until
/// the next element is read.
#[derive(Clone, Copy)]
struct Element<'a> {
    name: &'a [u8],
    /// Offset of the `<`.
    offset: usize,
    /// True when the tag self-closes (`/>`).
    self_closing: bool,
}

/// A minimal XML scanner sufficient for OSM files: elements,
/// attributes, comments and XML declarations. No entities or CDATA
/// (OSM planet files escape attribute values with standard entities,
/// which we pass through unexpanded — tags are compared byte-wise).
struct Scanner<'a> {
    input: &'a [u8],
    pos: usize,
    /// `(key, value)` attributes of the element read last, reused
    /// across elements.
    attrs: Vec<(&'a str, &'a str)>,
}

impl<'a> Scanner<'a> {
    fn attr(&self, key: &str) -> Option<&'a str> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    fn attr_u64(&self, key: &str) -> Option<u64> {
        self.attr(key)?.parse().ok()
    }

    fn attr_f64(&self, key: &str) -> Option<f64> {
        parse_f64(self.attr(key)?).ok()
    }

    fn required_id(&self, elem: &Element<'_>, missing: &str) -> Result<u64, ParseError> {
        self.attr_u64("id")
            .ok_or_else(|| ParseError::syntax(elem.offset as u64, missing))
    }

    /// Records the node just read (its contents are not consumed).
    fn push_node(
        &self,
        elem: &Element<'_>,
        nodes: &mut Vec<(u64, Point)>,
    ) -> Result<(), ParseError> {
        let id = self.required_id(elem, "node without id")?;
        if let (Some(lat), Some(lon)) = (self.attr_f64("lat"), self.attr_f64("lon")) {
            nodes.push((id, Point::new(lon, lat)));
        }
        Ok(())
    }

    /// Reads the way just read, with its children, into `out`.
    fn push_way(&mut self, elem: &Element<'_>, out: &mut XmlBlock) -> Result<(), ParseError> {
        let id = self.required_id(elem, "way without id")?;
        let (refs, tags) = self.way_children(elem, &mut out.nodes)?;
        out.ways.push(WaySpec {
            id,
            refs,
            tags,
            offset: elem.offset as u64,
            len: (self.pos - elem.offset) as u32,
        });
        Ok(())
    }

    /// Advances to the next opening element that *starts* before
    /// `end`. Skips comments, declarations and closing tags.
    fn next_element(&mut self, end: usize) -> Result<Option<Element<'a>>, ParseError> {
        loop {
            let lt = match memchr(b'<', self.input, self.pos) {
                Some(p) if p < end => p,
                _ => return Ok(None),
            };
            self.pos = lt + 1;
            match self.input.get(self.pos) {
                Some(b'?') => {
                    // XML declaration: skip to '>'.
                    self.skip_to_gt()?;
                }
                Some(b'!') => {
                    // Comment: skip to '-->'.
                    match find_marker(self.input, b"-->", self.pos) {
                        Some(p) => self.pos = p + 3,
                        None => return Ok(None),
                    }
                }
                Some(b'/') => {
                    // Closing tag: skip.
                    self.skip_to_gt()?;
                }
                Some(_) => return self.read_element(lt).map(Some),
                None => return Ok(None),
            }
        }
    }

    fn skip_to_gt(&mut self) -> Result<(), ParseError> {
        match memchr(b'>', self.input, self.pos) {
            Some(p) => {
                self.pos = p + 1;
                Ok(())
            }
            None => Err(ParseError::syntax(self.pos as u64, "unterminated tag")),
        }
    }

    /// Reads the tag whose `<` is at `offset` (the cursor is just past
    /// it), filling the attribute buffer.
    fn read_element(&mut self, offset: usize) -> Result<Element<'a>, ParseError> {
        let input = self.input;
        let name_start = self.pos;
        while input
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
        {
            self.pos += 1;
        }
        let name = &input[name_start..self.pos];
        self.attrs.clear();
        loop {
            while input.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
                self.pos += 1;
            }
            match input.get(self.pos) {
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(Element {
                        name,
                        offset,
                        self_closing: false,
                    });
                }
                Some(b'/') => {
                    self.pos += 1;
                    if input.get(self.pos) == Some(&b'>') {
                        self.pos += 1;
                        return Ok(Element {
                            name,
                            offset,
                            self_closing: true,
                        });
                    }
                    return Err(ParseError::syntax(
                        self.pos as u64,
                        "expected '>' after '/'",
                    ));
                }
                Some(_) => {
                    // attribute: key="value"
                    let key_start = self.pos;
                    while input
                        .get(self.pos)
                        .is_some_and(|b| *b != b'=' && !b.is_ascii_whitespace())
                    {
                        self.pos += 1;
                    }
                    let key = std::str::from_utf8(&input[key_start..self.pos])
                        .map_err(|_| ParseError::syntax(key_start as u64, "non-UTF8 attr"))?;
                    if input.get(self.pos) != Some(&b'=') {
                        return Err(ParseError::syntax(self.pos as u64, "expected '='"));
                    }
                    self.pos += 1;
                    if input.get(self.pos) != Some(&b'"') {
                        return Err(ParseError::syntax(self.pos as u64, "expected '\"'"));
                    }
                    self.pos += 1;
                    let val_start = self.pos;
                    self.pos = memchr(b'"', input, self.pos).unwrap_or(input.len());
                    let value = std::str::from_utf8(&input[val_start..self.pos])
                        .map_err(|_| ParseError::syntax(val_start as u64, "non-UTF8 value"))?;
                    self.pos += 1; // closing quote
                    self.attrs.push((key, value));
                }
                None => return Err(ParseError::syntax(self.pos as u64, "unterminated element")),
            }
        }
    }

    /// Skips over an element's content (if not self-closing): to just
    /// past the first `</name>`, or nowhere when there is none (an
    /// unclosed container such as `<osm>` — scan on).
    fn skip_element(&mut self, elem: &Element<'_>) {
        if elem.self_closing {
            return;
        }
        let mut from = self.pos;
        while let Some(p) = find_marker(self.input, b"</", from) {
            let rest = &self.input[p + 2..];
            if rest.starts_with(elem.name) && rest.get(elem.name.len()) == Some(&b'>') {
                self.pos = p + 3 + elem.name.len();
                return;
            }
            from = p + 1;
        }
    }

    /// Reads the children of a `<way>` up to and past its `</way>`:
    /// `<nd ref>` and `<tag k v>`, plus any nested `<node>`, which is
    /// recorded in `nodes`. Returns (refs, tags).
    fn way_children(
        &mut self,
        elem: &Element<'_>,
        nodes: &mut Vec<(u64, Point)>,
    ) -> Result<WayBody, ParseError> {
        let mut refs = Vec::new();
        let mut tags = Vec::new();
        if elem.self_closing {
            return Ok((refs, tags));
        }
        loop {
            let lt = memchr(b'<', self.input, self.pos)
                .ok_or_else(|| ParseError::syntax(self.pos as u64, "unterminated way"))?;
            self.pos = lt + 1;
            if self.input[self.pos..].starts_with(b"/way>") {
                self.pos += 5;
                return Ok((refs, tags));
            }
            let child = self.read_element(lt)?;
            match child.name {
                b"nd" => {
                    if let Some(r) = self.attr_u64("ref") {
                        refs.push(r);
                    }
                }
                b"tag" => {
                    if let (Some(k), Some(v)) = (self.attr("k"), self.attr("v")) {
                        tags.push((k.to_owned(), v.to_owned()));
                    }
                }
                b"node" => {
                    self.push_node(&child, nodes)?;
                    self.skip_element(&child);
                }
                _ => self.skip_element(&child),
            }
        }
    }

    /// Reads the children of a `<relation>` up to and past its
    /// `</relation>`: way members with roles, plus any nested `<node>`
    /// or `<way>`, which go to `out`.
    fn relation_children(
        &mut self,
        elem: &Element<'_>,
        out: &mut XmlBlock,
    ) -> Result<Vec<(u64, String)>, ParseError> {
        let mut members = Vec::new();
        if elem.self_closing {
            return Ok(members);
        }
        loop {
            let lt = memchr(b'<', self.input, self.pos)
                .ok_or_else(|| ParseError::syntax(self.pos as u64, "unterminated relation"))?;
            self.pos = lt + 1;
            if self.input[self.pos..].starts_with(b"/relation>") {
                self.pos += 10;
                return Ok(members);
            }
            let child = self.read_element(lt)?;
            match child.name {
                b"member" if self.attr("type") == Some("way") => {
                    if let Some(r) = self.attr_u64("ref") {
                        let role = self.attr("role").unwrap_or("outer").to_owned();
                        members.push((r, role));
                    }
                }
                b"node" => {
                    self.push_node(&child, &mut out.nodes)?;
                    self.skip_element(&child);
                }
                b"way" => self.push_way(&child, out)?,
                _ => self.skip_element(&child),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<osm version="0.6" generator="atgis-datagen">
 <node id="1" lat="0.0" lon="0.0"/>
 <node id="2" lat="0.0" lon="1.0"/>
 <node id="3" lat="1.0" lon="1.0"/>
 <node id="4" lat="1.0" lon="0.0"/>
 <node id="5" lat="0.25" lon="0.25"/>
 <node id="6" lat="0.25" lon="0.75"/>
 <node id="7" lat="0.75" lon="0.75"/>
 <node id="8" lat="0.75" lon="0.25"/>
 <node id="9" lat="5.0" lon="5.0"/>
 <node id="10" lat="6.0" lon="6.0"/>
 <way id="100"><nd ref="1"/><nd ref="2"/><nd ref="3"/><nd ref="4"/><nd ref="1"/><tag k="building" v="yes"/></way>
 <way id="101"><nd ref="5"/><nd ref="6"/><nd ref="7"/><nd ref="8"/><nd ref="5"/></way>
 <way id="102"><nd ref="9"/><nd ref="10"/><tag k="highway" v="path"/></way>
 <relation id="200"><member type="way" ref="100" role="outer"/><member type="way" ref="101" role="inner"/><tag k="type" v="multipolygon"/></relation>
</osm>
"#;

    fn nodes_of(doc: &str) -> NodeTable {
        collect_block(doc.as_bytes(), 0, doc.len())
            .unwrap()
            .node_table()
    }

    #[test]
    fn collects_all_nodes() {
        let nodes = nodes_of(SAMPLE);
        assert_eq!(nodes.len(), 10);
        assert_eq!(nodes[&1], Point::new(0.0, 0.0));
        assert_eq!(nodes[&3], Point::new(1.0, 1.0), "lon is x, lat is y");
    }

    #[test]
    fn assembles_ways_and_relations() {
        let features = parse(SAMPLE.as_bytes(), &MetadataFilter::All).unwrap();
        // Relation 200 (polygon w/ hole) + way 102 (linestring); ways
        // 100/101 are consumed by the relation.
        assert_eq!(features.len(), 2);
        let rel = features.iter().find(|f| f.id == 200).expect("relation");
        match &rel.geometry {
            Geometry::Polygon(p) => {
                assert_eq!(p.holes.len(), 1);
                assert!((p.area() - 0.75).abs() < 1e-12);
            }
            g => panic!("relation should be polygon, got {g:?}"),
        }
        let path = features.iter().find(|f| f.id == 102).expect("way");
        assert!(matches!(path.geometry, Geometry::LineString(_)));
    }

    #[test]
    fn closed_way_without_relation_is_polygon() {
        let doc = r#"<osm>
<node id="1" lat="0.0" lon="0.0"/>
<node id="2" lat="0.0" lon="2.0"/>
<node id="3" lat="2.0" lon="1.0"/>
<way id="50"><nd ref="1"/><nd ref="2"/><nd ref="3"/><nd ref="1"/></way>
</osm>"#;
        let features = parse(doc.as_bytes(), &MetadataFilter::All).unwrap();
        assert_eq!(features.len(), 1);
        match &features[0].geometry {
            Geometry::Polygon(p) => assert!((p.area() - 2.0).abs() < 1e-12),
            g => panic!("{g:?}"),
        }
    }

    #[test]
    fn tag_filter_applies_to_ways() {
        let features = parse(
            SAMPLE.as_bytes(),
            &MetadataFilter::KeyEquals {
                key: "highway".into(),
                value: "path".into(),
            },
        )
        .unwrap();
        // Relation passes (tag filtering applies to ways only here),
        // way 102 matches.
        assert!(features.iter().any(|f| f.id == 102));
    }

    #[test]
    fn dangling_node_refs_are_skipped() {
        let doc = r#"<osm>
<node id="1" lat="0.0" lon="0.0"/>
<way id="60"><nd ref="1"/><nd ref="999"/></way>
</osm>"#;
        let features = parse(doc.as_bytes(), &MetadataFilter::All).unwrap();
        assert!(features.is_empty(), "one resolvable point is not enough");
    }

    #[test]
    fn comments_and_declaration_are_skipped() {
        let doc = r#"<?xml version="1.0"?>
<!-- a comment with <node id="99" lat="9" lon="9"/> inside -->
<osm><node id="1" lat="1.0" lon="2.0"/></osm>"#;
        let nodes = nodes_of(doc);
        assert_eq!(nodes.len(), 1);
        assert!(nodes.contains_key(&1));
    }

    #[test]
    fn offsets_point_at_way_elements() {
        let features = parse(SAMPLE.as_bytes(), &MetadataFilter::All).unwrap();
        for f in &features {
            let at = &SAMPLE.as_bytes()[f.offset as usize..];
            assert!(at.starts_with(b"<way") || at.starts_with(b"<relation"));
        }
    }

    #[test]
    fn one_pass_collects_every_element_kind() {
        let block = collect_block(SAMPLE.as_bytes(), 0, SAMPLE.len()).unwrap();
        assert_eq!(block.nodes.len(), 10);
        assert_eq!(
            block.ways.iter().map(|w| w.id).collect::<Vec<_>>(),
            vec![100, 101, 102]
        );
        assert_eq!(block.ways[0].refs, vec![1, 2, 3, 4, 1]);
        assert_eq!(
            block.ways[0].tags,
            vec![("building".to_owned(), "yes".to_owned())]
        );
        assert_eq!(block.relations.len(), 1);
        assert_eq!(
            block.relations[0].members,
            vec![(100, "outer".to_owned()), (101, "inner".to_owned())]
        );
    }

    #[test]
    fn later_duplicate_node_ids_override_earlier_ones() {
        let doc = r#"<osm>
<node id="1" lat="0.0" lon="0.0"/>
<node id="1" lat="3.0" lon="4.0"/>
</osm>"#;
        assert_eq!(nodes_of(doc)[&1], Point::new(4.0, 3.0));
    }

    #[test]
    fn block_partitioned_node_collection_merges() {
        let input = SAMPLE.as_bytes();
        let mid = input.len() / 2;
        // Align to a line boundary to split cleanly.
        let cut = crate::split::find_marker(input, b"\n", mid).unwrap() + 1;
        let mut a = collect_block(input, 0, cut).unwrap();
        a.append(collect_block(input, cut, input.len()).unwrap());
        assert_eq!(a.node_table(), nodes_of(SAMPLE));
    }

    /// Every way of cutting SAMPLE at line boundaries into 1..=16
    /// blocks collects, after concatenation, exactly what one
    /// whole-input pass collects.
    #[test]
    fn every_newline_aligned_split_merges_to_the_whole() {
        let input = SAMPLE.as_bytes();
        let whole = collect_block(input, 0, input.len()).unwrap();
        let cuts: Vec<usize> = (0..input.len() - 1)
            .filter(|&i| input[i] == b'\n')
            .map(|i| i + 1)
            .collect();
        assert!(cuts.len() >= 15);
        for mask in 0u32..1 << cuts.len() {
            if mask.count_ones() > 15 {
                continue;
            }
            let mut merged = XmlBlock::default();
            let mut start = 0;
            for (bit, &cut) in cuts.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    merged.append(collect_block(input, start, cut).unwrap());
                    start = cut;
                }
            }
            merged.append(collect_block(input, start, input.len()).unwrap());
            assert_eq!(merged, whole, "cut mask {mask:#b}");
        }
    }
}
