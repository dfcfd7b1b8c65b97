//! Parser output pins: FNV-1a digests of the `{:?}` form of
//! `parse_all`'s output, recorded from the three-pass OSM XML parser
//! and the `str::parse`-based number parsing that preceded the
//! single-pass parse layer.
//!
//! The sequential oracle (`atgis_baselines::sequential`) calls the
//! same `parse_all` the engine's blocks call, so a parser bug shows up
//! on both sides of every differential suite and cancels out. These
//! digests do not move with the parser: any change to any coordinate
//! bit, id, offset, length or error of these inputs fails here.

use atgis_datagen::writers::{write_geojson, write_osm_xml, write_wkt};
use atgis_datagen::OsmGenerator;
use atgis_formats::{parse_all, Format, MetadataFilter, Mode};

const FIXTURE_GEOJSON: &[u8] = include_bytes!("../fixtures/small.geojson");
const FIXTURE_WKT: &[u8] = include_bytes!("../fixtures/small.wkt");
const FIXTURE_OSM: &[u8] = include_bytes!("../fixtures/small.osm");

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest(input: &[u8], format: Format, mode: Mode) -> u64 {
    let out = parse_all(input, format, mode, &MetadataFilter::All);
    fnv1a(format!("{out:?}").as_bytes())
}

/// Every pinned `(label, input, format, mode)` case.
fn cases() -> Vec<(String, Vec<u8>, Format, Mode)> {
    let mut v = Vec::new();
    for seed in [1u64, 7, 424242] {
        let d = OsmGenerator::new(seed).generate(2000);
        let g = write_geojson(&d);
        let w = write_wkt(&d);
        v.push((
            format!("seed{seed}/geojson/pat"),
            g.clone(),
            Format::GeoJson,
            Mode::Pat,
        ));
        v.push((
            format!("seed{seed}/geojson/fat"),
            g,
            Format::GeoJson,
            Mode::Fat,
        ));
        v.push((
            format!("seed{seed}/wkt/pat"),
            w.clone(),
            Format::Wkt,
            Mode::Pat,
        ));
        v.push((format!("seed{seed}/wkt/fat"), w, Format::Wkt, Mode::Fat));
        v.push((
            format!("seed{seed}/osmxml"),
            write_osm_xml(&d),
            Format::OsmXml,
            Mode::Pat,
        ));
    }
    let fixtures: [(&str, &[u8], Format); 3] = [
        ("geojson", FIXTURE_GEOJSON, Format::GeoJson),
        ("wkt", FIXTURE_WKT, Format::Wkt),
        ("osmxml", FIXTURE_OSM, Format::OsmXml),
    ];
    for (name, bytes, format) in fixtures {
        let modes: &[(&str, Mode)] = if format == Format::OsmXml {
            &[("", Mode::Pat)]
        } else {
            &[("/pat", Mode::Pat), ("/fat", Mode::Fat)]
        };
        for &(suffix, mode) in modes {
            v.push((
                format!("fixture/{name}{suffix}"),
                bytes.to_vec(),
                format,
                mode,
            ));
        }
    }
    v
}

const PINS: &[(&str, u64)] = &[
    ("seed1/geojson/pat", 0x24f73f51c3ea9af0),
    ("seed1/geojson/fat", 0x24f73f51c3ea9af0),
    ("seed1/wkt/pat", 0xfe48fdc04002369c),
    ("seed1/wkt/fat", 0xfe48fdc04002369c),
    ("seed1/osmxml", 0x328674948fe0d291),
    ("seed7/geojson/pat", 0x78555cbd73484665),
    ("seed7/geojson/fat", 0x78555cbd73484665),
    ("seed7/wkt/pat", 0xf4309386188f990e),
    ("seed7/wkt/fat", 0xf4309386188f990e),
    ("seed7/osmxml", 0xd0383a35088da481),
    ("seed424242/geojson/pat", 0x2b4520dcbfde8239),
    ("seed424242/geojson/fat", 0x2b4520dcbfde8239),
    ("seed424242/wkt/pat", 0xf957b4c3322303c9),
    ("seed424242/wkt/fat", 0xf957b4c3322303c9),
    ("seed424242/osmxml", 0x11a4b8b9b2aa5fec),
    ("fixture/geojson/pat", 0x2e28c08e2ea7b314),
    ("fixture/geojson/fat", 0x2e28c08e2ea7b314),
    ("fixture/wkt/pat", 0xa187ac800478b30c),
    ("fixture/wkt/fat", 0xa187ac800478b30c),
    ("fixture/osmxml", 0xb8d890360c647aa7),
];

#[test]
fn parse_all_output_matches_pinned_digests() {
    let got: Vec<(String, u64)> = cases()
        .into_iter()
        .map(|(label, input, format, mode)| (label, digest(&input, format, mode)))
        .collect();
    let table: String = got
        .iter()
        .map(|(l, d)| format!("    (\"{l}\", 0x{d:016x}),\n"))
        .collect();
    assert_eq!(got.len(), PINS.len(), "case list and pin table differ");
    for ((label, d), (pin_label, pin)) in got.iter().zip(PINS) {
        assert_eq!(label, pin_label, "case order");
        assert_eq!(
            d, pin,
            "{label}: parser output changed; digests now:\n{table}"
        );
    }
}

/// Self-closing `<way/>` and `<relation/>` contribute nothing, and do
/// not swallow the elements after them.
const XML_SELF_CLOSING: &str = r#"<osm>
<node id="1" lat="0" lon="0"/>
<node id="2" lat="0" lon="1"/>
<node id="3" lat="1" lon="1"/>
<way id="10"/>
<relation id="20"/>
<way id="11"><nd ref="1"/><nd ref="2"/><nd ref="3"/><nd ref="1"/></way>
<way id="12"><nd ref="1"/><nd ref="3"/></way>
<relation id="21"><member type="way" ref="11" role="outer"/></relation>
</osm>
"#;

/// A `<node` inside a comment is not a node: way 30 resolves only
/// nodes 1 and 2.
const XML_COMMENT: &str = r#"<osm>
<node id="1" lat="0" lon="0"/>
<!-- <node id="9" lat="5" lon="5"/> -->
<node id="2" lat="0" lon="1"/>
<way id="30"><nd ref="1"/><nd ref="9"/><nd ref="2"/></way>
</osm>
"#;

/// A `<node>` nested inside a `<way>` still enters the node table
/// (the node table is built from every element, wherever it sits).
const XML_NESTED_NODE: &str = r#"<osm>
<node id="1" lat="0" lon="0"/>
<way id="40"><nd ref="1"/><node id="4" lat="2" lon="2"/><nd ref="4"/><tag k="highway" v="path"/></way>
<way id="41"><nd ref="4"/><nd ref="1"/></way>
</osm>
"#;

const XML_EDGE_PINS: &[(&str, &str, u64)] = &[
    ("self_closing", XML_SELF_CLOSING, 0xf70bcf7c45f1081f),
    ("comment", XML_COMMENT, 0x1d614bd713fc6335),
    ("nested_node", XML_NESTED_NODE, 0x1f83497d3b6b33c6),
];

#[test]
fn osm_xml_edge_cases_match_pinned_digests() {
    for &(label, doc, pin) in XML_EDGE_PINS {
        let out = parse_all(
            doc.as_bytes(),
            Format::OsmXml,
            Mode::Pat,
            &MetadataFilter::All,
        );
        let d = fnv1a(format!("{out:?}").as_bytes());
        assert_eq!(d, pin, "{label}: got 0x{d:016x} for {out:?}");
    }
}

#[test]
fn osm_xml_edge_cases_read_as_documented() {
    let ids = |doc: &str| -> Vec<u64> {
        parse_all(
            doc.as_bytes(),
            Format::OsmXml,
            Mode::Pat,
            &MetadataFilter::All,
        )
        .unwrap()
        .iter()
        .map(|f| f.id)
        .collect()
    };
    assert_eq!(ids(XML_SELF_CLOSING), vec![12, 21]);
    assert_eq!(ids(XML_COMMENT), vec![30]);
    assert_eq!(ids(XML_NESTED_NODE), vec![40, 41]);
}

/// Every numeric token of the generated GeoJSON, WKT and OSM XML
/// files parses to the bits `str::parse::<f64>` gives.
#[test]
fn every_generated_number_parses_like_std() {
    use atgis_formats::points::parse_f64;
    let is_num = |b: &u8| b.is_ascii_digit() || matches!(b, b'.' | b'-' | b'+' | b'e' | b'E');
    let mut checked = 0usize;
    for seed in [1u64, 7, 424242] {
        let d = OsmGenerator::new(seed).generate(2000);
        for bytes in [write_geojson(&d), write_wkt(&d), write_osm_xml(&d)] {
            for token in bytes.split(|b| !is_num(b)) {
                let Ok(text) = std::str::from_utf8(token) else {
                    continue;
                };
                if !token.iter().any(u8::is_ascii_digit) {
                    continue;
                }
                assert_eq!(
                    parse_f64(text).ok().map(f64::to_bits),
                    text.parse::<f64>().ok().map(f64::to_bits),
                    "{text:?}"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 100_000, "only {checked} numeric tokens");
}
