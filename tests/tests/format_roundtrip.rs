//! Round-trip integration tests: datasets produced by `atgis-datagen`
//! must parse back through every `atgis-formats` path (PAT and FAT,
//! all three serialisations) with identical geometry.

use atgis_datagen::{write_geojson, write_osm_xml, write_wkt, OsmGenerator, SynthConfig};
use atgis_formats::{parse_all, Format, MetadataFilter, Mode};

#[test]
fn geojson_pat_roundtrip() {
    let ds = OsmGenerator::new(100).generate(200);
    let bytes = write_geojson(&ds);
    let features = parse_all(&bytes, Format::GeoJson, Mode::Pat, &MetadataFilter::All).unwrap();
    assert_eq!(features.len(), ds.objects.len());
    for (f, o) in features.iter().zip(&ds.objects) {
        assert_eq!(f.id, o.id);
        assert_eq!(f.geometry.num_points(), o.geometry.num_points());
        let d = (f.geometry.area() - o.geometry.area()).abs();
        assert!(d < 1e-6, "area drift {d} on object {}", o.id);
    }
}

#[test]
fn geojson_fat_matches_pat() {
    let ds = OsmGenerator::new(101).generate(150);
    let bytes = write_geojson(&ds);
    let pat = parse_all(&bytes, Format::GeoJson, Mode::Pat, &MetadataFilter::All).unwrap();
    let fat = parse_all(&bytes, Format::GeoJson, Mode::Fat, &MetadataFilter::All).unwrap();
    assert_eq!(pat, fat);
}

#[test]
fn wkt_pat_and_fat_roundtrip() {
    let ds = OsmGenerator::new(102).generate(150);
    let bytes = write_wkt(&ds);
    let pat = parse_all(&bytes, Format::Wkt, Mode::Pat, &MetadataFilter::All).unwrap();
    let fat = parse_all(&bytes, Format::Wkt, Mode::Fat, &MetadataFilter::All).unwrap();
    assert_eq!(pat.len(), ds.objects.len());
    assert_eq!(pat, fat);
    for (f, o) in pat.iter().zip(&ds.objects) {
        assert_eq!(f.id, o.id);
        assert_eq!(f.geometry.num_points(), o.geometry.num_points());
    }
}

#[test]
fn osm_xml_roundtrip_preserves_geometry() {
    let ds = OsmGenerator::new(103).generate(100);
    let bytes = write_osm_xml(&ds);
    let features = parse_all(&bytes, Format::OsmXml, Mode::Pat, &MetadataFilter::All).unwrap();
    // Collections are flattened into several ways, so counts can grow;
    // every non-collection object must be recoverable by id.
    for o in &ds.objects {
        use atgis_geometry::Geometry;
        if matches!(o.geometry, Geometry::Collection(_)) {
            continue;
        }
        let f = features
            .iter()
            .find(|f| f.id == o.id)
            .unwrap_or_else(|| panic!("object {} missing from XML round-trip", o.id));
        let d = (f.geometry.area() - o.geometry.area()).abs();
        assert!(d < 1e-6, "area drift {d} on object {}", o.id);
    }
}

#[test]
fn synth_dataset_roundtrips_through_geojson() {
    let ds = SynthConfig {
        objects: 60,
        sigma: 2.0,
        ..Default::default()
    }
    .generate();
    let bytes = write_geojson(&ds);
    let pat = parse_all(&bytes, Format::GeoJson, Mode::Pat, &MetadataFilter::All).unwrap();
    let fat = parse_all(&bytes, Format::GeoJson, Mode::Fat, &MetadataFilter::All).unwrap();
    assert_eq!(pat.len(), 60);
    assert_eq!(pat, fat);
}

#[test]
fn cross_format_geometry_agreement() {
    // The same dataset serialised as GeoJSON and WKT must parse to the
    // same geometries (XML differs only for collections).
    let ds = OsmGenerator::new(104).generate(80);
    let geojson = parse_all(
        &write_geojson(&ds),
        Format::GeoJson,
        Mode::Pat,
        &MetadataFilter::All,
    )
    .unwrap();
    let wkt = parse_all(
        &write_wkt(&ds),
        Format::Wkt,
        Mode::Pat,
        &MetadataFilter::All,
    )
    .unwrap();
    assert_eq!(geojson.len(), wkt.len());
    for (g, w) in geojson.iter().zip(&wkt) {
        assert_eq!(g.id, w.id);
        assert_eq!(g.geometry, w.geometry);
    }
}

#[test]
fn ids_above_two_to_the_53_round_trip_exactly() {
    // 2^53 + 1: the first integer an f64 cannot hold.
    let id: u64 = 9_007_199_254_740_993;
    let geojson = format!(
        r#"{{"type":"FeatureCollection","features":[{{"type":"Feature","geometry":{{"type":"Point","coordinates":[1.5,2.5]}},"id":{id},"properties":{{}}}}]}}"#
    );
    let wkt = format!("{id}\tPOINT(1.5 2.5)\t\n");
    let ids = |input: &str, format, mode| -> Vec<u64> {
        parse_all(input.as_bytes(), format, mode, &MetadataFilter::All)
            .unwrap()
            .iter()
            .map(|f| f.id)
            .collect()
    };
    let wkt_ids = ids(&wkt, Format::Wkt, Mode::Pat);
    assert_eq!(wkt_ids, vec![id]);
    assert_eq!(ids(&geojson, Format::GeoJson, Mode::Pat), wkt_ids, "PAT");
    assert_eq!(ids(&geojson, Format::GeoJson, Mode::Fat), wkt_ids, "FAT");
}

#[test]
fn osm_xml_block_splits_merge_to_the_whole_input() {
    use atgis_formats::marker_blocks;
    use atgis_formats::osmxml::{assemble, collect_block, XmlBlock};
    let bytes = write_osm_xml(&OsmGenerator::new(7).generate(500));
    let whole = collect_block(&bytes, 0, bytes.len()).unwrap();
    let parsed = parse_all(&bytes, Format::OsmXml, Mode::Pat, &MetadataFilter::All).unwrap();
    for n in 1..=16 {
        let mut merged = XmlBlock::default();
        for b in marker_blocks(&bytes, b"\n", n) {
            merged.append(collect_block(&bytes, b.start, b.end).unwrap());
        }
        assert_eq!(merged, whole, "{n} blocks");
        let features = assemble(
            &merged.ways,
            &merged.relations,
            &merged.node_table(),
            &MetadataFilter::All,
        );
        assert_eq!(features, parsed, "{n} blocks");
    }
}
