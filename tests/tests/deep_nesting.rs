//! Bounded nesting: input nested deeper than
//! [`atgis_formats::MAX_NESTING`] levels (GeoJSON `coordinates`,
//! `properties` and `geometries`, WKT `GEOMETRYCOLLECTION`) is a
//! structured `ParseError::TooDeep`, through `parse_all` in PAT and
//! FAT mode and through `Engine::run` — never a stack overflow that
//! aborts the process. Nesting within the limit still parses, the
//! same in both modes. Path-query metadata filters walk deep
//! properties iteratively, so they cannot overflow either.

use atgis::{Dataset, Engine, ExecOptions, Query};
use atgis_formats::{parse_all, Format, MetadataFilter, Mode, ParseError, PathQuery, MAX_NESTING};
use atgis_geometry::{Geometry, Mbr, Point};

/// Far past any stack the recursive parsers could have survived.
const DEEP: usize = 100_000;

fn geojson_doc(geometry: &str, properties: &str) -> Vec<u8> {
    format!(
        r#"{{"type":"FeatureCollection","features":[{{"type":"Feature","geometry":{geometry},"id":1,"properties":{properties}}}]}}"#
    )
    .into_bytes()
}

/// A point inside `levels` nested GeometryCollections.
fn geojson_collection(levels: usize) -> Vec<u8> {
    let open = r#"{"type":"GeometryCollection","geometries":["#.repeat(levels);
    let close = "]}".repeat(levels);
    geojson_doc(
        &format!(r#"{open}{{"type":"Point","coordinates":[1.5,2.5]}}{close}"#),
        "{}",
    )
}

fn geojson_deep_coordinates(levels: usize) -> Vec<u8> {
    let coords = format!("{}1.0{}", "[".repeat(levels), "]".repeat(levels));
    geojson_doc(
        &format!(r#"{{"type":"Point","coordinates":{coords}}}"#),
        "{}",
    )
}

fn geojson_deep_properties(levels: usize) -> Vec<u8> {
    let value = format!("{}{}", "[".repeat(levels), "]".repeat(levels));
    geojson_doc(
        r#"{"type":"Point","coordinates":[1.5,2.5]}"#,
        &format!(r#"{{"deep":{value}}}"#),
    )
}

/// A point inside `levels` nested GEOMETRYCOLLECTIONs.
fn wkt_collection(levels: usize) -> Vec<u8> {
    format!(
        "1\t{}POINT(1.5 2.5){}\tname=deep\n",
        "GEOMETRYCOLLECTION(".repeat(levels),
        ")".repeat(levels)
    )
    .into_bytes()
}

fn deep_inputs() -> Vec<(&'static str, Vec<u8>, Format)> {
    vec![
        (
            "geojson coordinates",
            geojson_deep_coordinates(DEEP),
            Format::GeoJson,
        ),
        (
            "geojson properties",
            geojson_deep_properties(DEEP),
            Format::GeoJson,
        ),
        (
            "geojson geometries",
            geojson_collection(DEEP),
            Format::GeoJson,
        ),
        ("wkt GEOMETRYCOLLECTION", wkt_collection(DEEP), Format::Wkt),
    ]
}

#[test]
fn deep_input_is_a_parse_error_in_both_modes() {
    for (label, input, format) in deep_inputs() {
        for mode in [Mode::Pat, Mode::Fat] {
            match parse_all(&input, format, mode, &MetadataFilter::All) {
                Err(ParseError::TooDeep { .. }) => {}
                other => panic!("{label} {mode:?}: expected TooDeep, got {other:?}"),
            }
        }
    }
}

#[test]
fn deep_input_fails_its_engine_run_and_the_engine_survives() {
    let engines = [Mode::Pat, Mode::Fat].map(|mode| {
        Engine::builder()
            .threads(2)
            .cell_size(2.0)
            .mode(mode)
            .build()
    });
    let queries = [
        Query::containment(Mbr::new(-180.0, -90.0, 180.0, 90.0)),
        Query::aggregation(Mbr::new(-180.0, -90.0, 180.0, 90.0)),
    ];
    for (label, input, format) in deep_inputs() {
        let ds = Dataset::from_bytes(input, format);
        for e in &engines {
            let got = e
                .run(&queries, &ds, &ExecOptions::new())
                .and_then(|o| o.collapse());
            assert!(got.is_err(), "{label}: expected an error, got {got:?}");
        }
    }
    // The same engines still answer a well-formed dataset.
    let ok = Dataset::from_bytes(geojson_collection(32), Format::GeoJson);
    for e in &engines {
        let results = e
            .run(&queries, &ok, &ExecOptions::new())
            .and_then(|o| o.collapse())
            .expect("a 32-deep collection parses");
        assert_eq!(results.len(), 2);
    }
}

/// The innermost member of a parsed collection nest, and its depth.
fn innermost(g: &Geometry) -> (usize, &Geometry) {
    let mut depth = 0;
    let mut g = g;
    while let Geometry::Collection(members) = g {
        depth += 1;
        g = &members[0];
    }
    (depth, g)
}

#[test]
fn nesting_within_the_limit_parses_identically_in_both_modes() {
    for levels in [32, MAX_NESTING - 1] {
        for (input, format) in [
            (geojson_collection(levels), Format::GeoJson),
            (wkt_collection(levels), Format::Wkt),
        ] {
            let pat = parse_all(&input, format, Mode::Pat, &MetadataFilter::All).unwrap();
            let fat = parse_all(&input, format, Mode::Fat, &MetadataFilter::All).unwrap();
            assert_eq!(pat, fat, "{format:?} at {levels} levels");
            assert_eq!(pat.len(), 1);
            assert_eq!(
                innermost(&pat[0].geometry),
                (levels, &Geometry::Point(Point::new(1.5, 2.5)))
            );
        }
    }
}

#[test]
fn the_limit_is_exact() {
    // The feature's geometry is level 1, so MAX_NESTING collections
    // plus the point are one level too many.
    for (input, format) in [
        (geojson_collection(MAX_NESTING), Format::GeoJson),
        (wkt_collection(MAX_NESTING), Format::Wkt),
    ] {
        for mode in [Mode::Pat, Mode::Fat] {
            let got = parse_all(&input, format, mode, &MetadataFilter::All);
            assert!(
                matches!(got, Err(ParseError::TooDeep { .. })),
                "{format:?} {mode:?}: {got:?}"
            );
        }
    }
    // Skipped values: MAX_NESTING arrays parse, one more does not.
    for mode in [Mode::Pat, Mode::Fat] {
        let ok = parse_all(
            &geojson_deep_properties(MAX_NESTING),
            Format::GeoJson,
            mode,
            &MetadataFilter::All,
        );
        assert_eq!(ok.map(|f| f.len()), Ok(1), "{mode:?}");
        let deep = parse_all(
            &geojson_deep_properties(MAX_NESTING + 1),
            Format::GeoJson,
            mode,
            &MetadataFilter::All,
        );
        assert!(matches!(deep, Err(ParseError::TooDeep { .. })), "{mode:?}");
    }
}

#[test]
fn deep_properties_under_a_path_filter_are_a_parse_error() {
    let filter = MetadataFilter::Path(PathQuery::parse(r#"building = "yes""#).unwrap());
    let input = geojson_deep_properties(DEEP);
    for mode in [Mode::Pat, Mode::Fat] {
        match parse_all(&input, Format::GeoJson, mode, &filter) {
            Err(ParseError::TooDeep { .. }) => {}
            other => panic!("{mode:?}: expected TooDeep, got {other:?}"),
        }
    }
}

#[test]
fn path_queries_over_deep_json_return_without_overflow() {
    let building = PathQuery::parse(r#"building = "yes""#).unwrap();
    let deep_array = format!("{}{}", "[".repeat(DEEP), "]".repeat(DEEP));
    assert!(!building.matches_json(deep_array.as_bytes()));
    let deep_member = format!(r#"{{"deep":{deep_array},"building":"yes"}}"#);
    assert!(
        building.matches_json(deep_member.as_bytes()),
        "a member after a deep value is still found"
    );

    // `{"a":{"a":…{"a":1}…}}`, DEEP objects deep: lookups descend
    // through it without recursing on its depth.
    let deep_object = format!("{}1{}", r#"{"a":"#.repeat(DEEP), "}".repeat(DEEP));
    assert!(PathQuery::parse("a.a.a")
        .unwrap()
        .matches_json(deep_object.as_bytes()));
    assert!(!PathQuery::parse("a.a.b")
        .unwrap()
        .matches_json(deep_object.as_bytes()));
}
