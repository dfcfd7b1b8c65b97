//! The Table 1 operator catalogue: every OGC Simple Feature Access
//! spatial operator the paper maps onto an associative transducer,
//! with its transducer class and associativity. The table is
//! executable — [`SpatialOperator::transducer_class`] and
//! [`SpatialOperator::associativity`] reproduce the paper's columns,
//! and the `evaluate_*` methods dispatch to the geometry substrate.

use atgis_geometry::{
    boundary, buffer, contains, convex_hull, crosses, difference, disjoint, intersection,
    intersects, is_simple, overlaps, relate, sym_difference, touches, union, within, Geometry,
    Polygon,
};

/// Transducer classes of §3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransducerClass {
    /// Stateless transducer (map/filter).
    Slt,
    /// Aggregation transducer.
    Agt,
    /// Periodically flushing transducer.
    Pft,
}

/// Associativity granularity (Table 1's last column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Associativity {
    /// Work on a single shape can be distributed across threads.
    InShape,
    /// Each shape must be processed by a single thread; shapes
    /// distribute across threads.
    BetweenShapes,
}

/// All Table 1 operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum SpatialOperator {
    // (i) single geometry properties
    IsEmpty,
    IsSimple,
    Envelope,
    ConvexHull,
    Boundary,
    // (ii) geometry relations
    Disjoint,
    Intersects,
    Touches,
    Crosses,
    Within,
    Contains,
    Overlaps,
    Relate,
    Distance,
    // (iii) set-theoretic operations
    Intersection,
    Difference,
    Union,
    SymDifference,
    Buffer,
}

impl SpatialOperator {
    /// Every operator, in Table 1 order.
    pub const ALL: [SpatialOperator; 19] = [
        SpatialOperator::IsEmpty,
        SpatialOperator::IsSimple,
        SpatialOperator::Envelope,
        SpatialOperator::ConvexHull,
        SpatialOperator::Boundary,
        SpatialOperator::Disjoint,
        SpatialOperator::Intersects,
        SpatialOperator::Touches,
        SpatialOperator::Crosses,
        SpatialOperator::Within,
        SpatialOperator::Contains,
        SpatialOperator::Overlaps,
        SpatialOperator::Relate,
        SpatialOperator::Distance,
        SpatialOperator::Intersection,
        SpatialOperator::Difference,
        SpatialOperator::Union,
        SpatialOperator::SymDifference,
        SpatialOperator::Buffer,
    ];

    /// The transducer class Table 1 assigns when one operand is a
    /// query parameter.
    pub fn transducer_class(&self) -> TransducerClass {
        use SpatialOperator::*;
        match self {
            IsSimple | Boundary | Intersection | Difference | Union | SymDifference | Buffer => {
                TransducerClass::Slt
            }
            _ => TransducerClass::Pft,
        }
    }

    /// Table 1's associativity column.
    pub fn associativity(&self) -> Associativity {
        match self.transducer_class() {
            TransducerClass::Slt => Associativity::BetweenShapes,
            _ => Associativity::InShape,
        }
    }

    /// The PostGIS-style name (`ST_*`).
    pub fn name(&self) -> &'static str {
        use SpatialOperator::*;
        match self {
            IsEmpty => "ST_IsEmpty",
            IsSimple => "ST_IsSimple",
            Envelope => "ST_Envelope",
            ConvexHull => "ST_ConvexHull",
            Boundary => "ST_Boundary",
            Disjoint => "ST_Disjoint",
            Intersects => "ST_Intersects",
            Touches => "ST_Touches",
            Crosses => "ST_Crosses",
            Within => "ST_Within",
            Contains => "ST_Contains",
            Overlaps => "ST_Overlaps",
            Relate => "ST_Relate",
            Distance => "ST_Distance",
            Intersection => "ST_Intersection",
            Difference => "ST_Difference",
            Union => "ST_Union",
            SymDifference => "ST_SymDifference",
            Buffer => "ST_Buffer",
        }
    }

    /// Evaluates a relation predicate between two geometries; `None`
    /// for non-predicate operators.
    pub fn evaluate_predicate(&self, a: &Geometry, b: &Geometry) -> Option<bool> {
        use SpatialOperator::*;
        Some(match self {
            Disjoint => disjoint(a, b),
            Intersects => intersects(a, b),
            Touches => touches(a, b),
            Crosses => crosses(a, b),
            Within => within(a, b),
            Contains => contains(a, b),
            Overlaps => overlaps(a, b),
            _ => return None,
        })
    }

    /// Evaluates a single-geometry property; `None` for other
    /// operators.
    pub fn evaluate_property(&self, g: &Geometry) -> Option<PropertyValue> {
        use SpatialOperator::*;
        Some(match self {
            IsEmpty => PropertyValue::Bool(g.num_points() == 0),
            IsSimple => PropertyValue::Bool(is_simple(g)),
            Envelope => PropertyValue::Geometry(Geometry::Polygon(Polygon::from_mbr(&g.mbr()))),
            ConvexHull => PropertyValue::Geometry(Geometry::Polygon(Polygon::new(
                convex_hull(&g.points()),
                Vec::new(),
            ))),
            Boundary => PropertyValue::Geometry(boundary(g)),
            _ => return None,
        })
    }

    /// Evaluates a set-theoretic operation on two polygons; `None`
    /// for other operators.
    pub fn evaluate_setop(&self, a: &Polygon, b: &Polygon) -> Option<Geometry> {
        use SpatialOperator::*;
        Some(match self {
            Intersection => Geometry::MultiPolygon(intersection(a, b)),
            Difference => Geometry::MultiPolygon(difference(a, b)),
            Union => Geometry::MultiPolygon(union(a, b)),
            SymDifference => Geometry::MultiPolygon(sym_difference(a, b)),
            Buffer => Geometry::Polygon(buffer(a, 0.1, 8)),
            _ => return None,
        })
    }

    /// Computes the DE-9IM relation (ST_Relate).
    pub fn evaluate_relate(a: &Geometry, b: &Geometry) -> String {
        relate(a, b).to_de9im_string()
    }

    /// Computes the minimum planar distance (ST_Distance).
    pub fn evaluate_distance(a: &Geometry, b: &Geometry) -> f64 {
        atgis_geometry::distance(a, b)
    }
}

/// Result of a single-geometry property operator.
#[derive(Debug, Clone)]
pub enum PropertyValue {
    /// Boolean property.
    Bool(bool),
    /// Geometry-valued property.
    Geometry(Geometry),
}

/// Computes `ST_Area(ST_Union(a, b))` for a joined pair — the
/// combined query's final aggregation in the batch executor.
/// Non-polygon members fall back to the
/// inclusion–exclusion approximation using the MBR-free sum
/// (documented deviation: exact union is defined on polygons).
pub fn union_area(a: &Geometry, b: &Geometry) -> f64 {
    use atgis_geometry::{measures, DistanceModel};
    match (a, b) {
        (Geometry::Polygon(pa), Geometry::Polygon(pb)) => measures::area(
            &Geometry::MultiPolygon(union(pa, pb)),
            DistanceModel::Spherical,
        ),
        _ => {
            measures::area(a, DistanceModel::Spherical)
                + measures::area(b, DistanceModel::Spherical)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atgis_geometry::polygon::unit_square;
    use atgis_geometry::{Mbr, Point};

    #[test]
    fn table1_classes_match_paper() {
        use SpatialOperator::*;
        // (i) single-geometry: PFT except IsSimple/Boundary.
        assert_eq!(IsEmpty.transducer_class(), TransducerClass::Pft);
        assert_eq!(IsSimple.transducer_class(), TransducerClass::Slt);
        assert_eq!(Envelope.transducer_class(), TransducerClass::Pft);
        assert_eq!(ConvexHull.transducer_class(), TransducerClass::Pft);
        assert_eq!(Boundary.transducer_class(), TransducerClass::Slt);
        // (ii) relations: all PFT, in-shape.
        for op in [
            Disjoint, Intersects, Touches, Crosses, Within, Contains, Overlaps, Relate, Distance,
        ] {
            assert_eq!(op.transducer_class(), TransducerClass::Pft, "{}", op.name());
            assert_eq!(op.associativity(), Associativity::InShape);
        }
        // (iii) set ops: all SLT, between shapes.
        for op in [Intersection, Difference, Union, SymDifference, Buffer] {
            assert_eq!(op.transducer_class(), TransducerClass::Slt, "{}", op.name());
            assert_eq!(op.associativity(), Associativity::BetweenShapes);
        }
    }

    #[test]
    fn all_has_19_operators_like_table1() {
        assert_eq!(SpatialOperator::ALL.len(), 19);
        let names: std::collections::HashSet<&str> =
            SpatialOperator::ALL.iter().map(|o| o.name()).collect();
        assert_eq!(names.len(), 19, "names unique");
        assert!(names.iter().all(|n| n.starts_with("ST_")));
    }

    #[test]
    fn predicates_dispatch() {
        let a = Geometry::Polygon(unit_square());
        let b = Geometry::Polygon(Polygon::from_mbr(&Mbr::new(0.5, 0.5, 2.0, 2.0)));
        assert_eq!(
            SpatialOperator::Intersects.evaluate_predicate(&a, &b),
            Some(true)
        );
        assert_eq!(
            SpatialOperator::Disjoint.evaluate_predicate(&a, &b),
            Some(false)
        );
        assert_eq!(SpatialOperator::Union.evaluate_predicate(&a, &b), None);
    }

    #[test]
    fn properties_dispatch() {
        let g = Geometry::Polygon(unit_square());
        match SpatialOperator::Envelope.evaluate_property(&g) {
            Some(PropertyValue::Geometry(env)) => assert_eq!(env.mbr(), g.mbr()),
            other => panic!("{other:?}"),
        }
        match SpatialOperator::IsSimple.evaluate_property(&g) {
            Some(PropertyValue::Bool(true)) => {}
            other => panic!("{other:?}"),
        }
        assert!(SpatialOperator::Intersects.evaluate_property(&g).is_none());
    }

    #[test]
    fn setops_dispatch() {
        let a = unit_square();
        let b = Polygon::from_mbr(&Mbr::new(0.5, 0.5, 1.5, 1.5));
        match SpatialOperator::Intersection.evaluate_setop(&a, &b) {
            Some(g) => assert!((g.area() - 0.25).abs() < 1e-9),
            None => panic!("intersection must evaluate"),
        }
        assert!(SpatialOperator::Intersects.evaluate_setop(&a, &b).is_none());
    }

    #[test]
    fn union_area_of_disjoint_squares_sums() {
        let a = Geometry::Polygon(unit_square());
        let b = Geometry::Polygon(Polygon::from_mbr(&Mbr::new(5.0, 5.0, 6.0, 6.0)));
        let sum = union_area(&a, &b);
        let solo = union_area(&a, &a.clone());
        // Disjoint squares: union area is the sum of both; a square
        // unioned with itself keeps its own area.
        assert!(sum > solo * 1.5, "{sum} vs {solo}");
        assert!(solo > 0.0);
    }

    #[test]
    fn relate_produces_de9im_string() {
        let a = Geometry::Polygon(unit_square());
        let b = Geometry::Point(Point::new(0.5, 0.5));
        let s = SpatialOperator::evaluate_relate(&a, &b);
        assert_eq!(s.len(), 9);
    }
}
