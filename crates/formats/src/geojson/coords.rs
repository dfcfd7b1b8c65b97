//! The flat `coordinates` buffer and the geometry interpreter shared
//! by the PAT ([`super::fast`]) and FAT ([`super::fat`]) parsers.
//!
//! A `coordinates` value is a nest of arrays with numeric leaves whose
//! meaning depends on the geometry type, which may come after it in
//! the object. Instead of a tree with one `Vec` per array, the parsers
//! append the value to one reused token buffer in document order: an
//! array is a [`CoordTok::List`] holding the index one past its last
//! descendant, a leaf is a [`CoordTok::Num`]. Interpreting a geometry
//! walks slices of that buffer. The buffer lives as long as its parser
//! (one block or token run), so parsing a feature allocates only the
//! output geometry.

use crate::MAX_NESTING;
use atgis_geometry::{Geometry, LineString, MultiPolygon, Point, Polygon, Ring};

/// One token of a flattened coordinates value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum CoordTok {
    /// An array; its children are the tokens up to index `end`
    /// (exclusive).
    List {
        /// Index one past the array's last descendant.
        end: u32,
    },
    /// A numeric leaf.
    Num(f64),
}

/// Returned by [`CoordBuf::open`] past [`MAX_NESTING`] open arrays.
pub(crate) struct TooDeep;

/// The reusable token buffer, plus the stack of arrays still open.
#[derive(Debug, Default)]
pub(crate) struct CoordBuf {
    toks: Vec<CoordTok>,
    open: Vec<u32>,
}

impl CoordBuf {
    /// Forgets every value (keeps the allocations).
    pub(crate) fn clear(&mut self) {
        self.toks.clear();
        self.open.clear();
    }

    /// The index the next value will start at.
    pub(crate) fn next_index(&self) -> usize {
        self.toks.len()
    }

    /// Number of arrays opened and not yet closed.
    pub(crate) fn depth(&self) -> usize {
        self.open.len()
    }

    /// Starts an array.
    pub(crate) fn open(&mut self) -> Result<(), TooDeep> {
        if self.open.len() >= MAX_NESTING {
            return Err(TooDeep);
        }
        self.open.push(self.toks.len() as u32);
        self.toks.push(CoordTok::List { end: 0 });
        Ok(())
    }

    /// Appends a numeric leaf.
    pub(crate) fn num(&mut self, v: f64) {
        self.toks.push(CoordTok::Num(v));
    }

    /// Ends the innermost open array.
    pub(crate) fn close(&mut self) {
        let at = self.open.pop().expect("close matches an open") as usize;
        self.toks[at] = CoordTok::List {
            end: self.toks.len() as u32,
        };
    }

    /// The value starting at `root`, for [`interpret_geometry`].
    pub(crate) fn value(&self, root: usize) -> Coords<'_> {
        Coords {
            toks: &self.toks,
            at: root,
        }
    }
}

/// One value inside a [`CoordBuf`].
#[derive(Clone, Copy)]
pub(crate) struct Coords<'a> {
    toks: &'a [CoordTok],
    at: usize,
}

impl<'a> Coords<'a> {
    /// The array's children, or an error for a leaf.
    fn list(self) -> Result<Children<'a>, String> {
        match self.toks[self.at] {
            CoordTok::List { end } => Ok(Children {
                toks: self.toks,
                next: self.at + 1,
                end: end as usize,
            }),
            CoordTok::Num(_) => Err("expected an array".into()),
        }
    }

    fn num(self) -> Option<f64> {
        match self.toks[self.at] {
            CoordTok::Num(v) => Some(v),
            CoordTok::List { .. } => None,
        }
    }

    fn point(self) -> Result<Point, String> {
        let mut l = self.list()?;
        match (l.next(), l.next()) {
            (Some(x), Some(y)) => match (x.num(), y.num()) {
                (Some(x), Some(y)) => Ok(Point::new(x, y)),
                _ => Err("point coordinates must be numbers".into()),
            },
            _ => Err("point needs two coordinates".into()),
        }
    }

    fn points(self) -> Result<Vec<Point>, String> {
        let l = self.list()?;
        // A position is usually three tokens: the array and two leaves.
        let mut out = Vec::with_capacity((l.end - l.next) / 3);
        for c in l {
            out.push(c.point()?);
        }
        Ok(out)
    }

    fn polygon(self) -> Result<Polygon, String> {
        let mut rings = self.list()?;
        let exterior = match rings.next() {
            Some(r) => Ring::new(r.points()?),
            None => return Err("polygon needs at least one ring".into()),
        };
        let holes = rings
            .map(|r| Ok(Ring::new(r.points()?)))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Polygon::new(exterior, holes))
    }
}

/// Iterator over an array's direct children.
struct Children<'a> {
    toks: &'a [CoordTok],
    next: usize,
    end: usize,
}

impl<'a> Iterator for Children<'a> {
    type Item = Coords<'a>;

    fn next(&mut self) -> Option<Coords<'a>> {
        if self.next >= self.end {
            return None;
        }
        let at = self.next;
        self.next = match self.toks[at] {
            CoordTok::List { end } => end as usize,
            CoordTok::Num(_) => at + 1,
        };
        Some(Coords {
            toks: self.toks,
            at,
        })
    }
}

/// Interprets a geometry object's members according to its type.
pub(crate) fn interpret_geometry(
    kind: &str,
    coords: Option<Coords<'_>>,
    members: Option<Vec<Geometry>>,
) -> Result<Geometry, String> {
    match kind {
        "GeometryCollection" => Ok(Geometry::Collection(
            members.ok_or("GeometryCollection without geometries")?,
        )),
        _ => {
            let coords = coords.ok_or("geometry without coordinates")?;
            match kind {
                "Point" => Ok(Geometry::Point(coords.point()?)),
                "LineString" => Ok(Geometry::LineString(LineString::new(coords.points()?))),
                "Polygon" => Ok(Geometry::Polygon(coords.polygon()?)),
                "MultiPolygon" => {
                    let polys = coords
                        .list()?
                        .map(Coords::polygon)
                        .collect::<Result<Vec<_>, _>>()?;
                    Ok(Geometry::MultiPolygon(MultiPolygon::new(polys)))
                }
                other => Err(format!("unsupported geometry type {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `[[1,2],[3,4]]` built through the buffer API.
    fn two_points() -> CoordBuf {
        let mut b = CoordBuf::default();
        assert!(b.open().is_ok());
        for (x, y) in [(1.0, 2.0), (3.0, 4.0)] {
            assert!(b.open().is_ok());
            b.num(x);
            b.num(y);
            b.close();
        }
        b.close();
        b
    }

    #[test]
    fn list_ends_skip_whole_subtrees() {
        let b = two_points();
        assert_eq!(b.toks[0], CoordTok::List { end: 7 });
        assert_eq!(b.toks[1], CoordTok::List { end: 4 });
        let pts = b.value(0).points().unwrap();
        assert_eq!(pts, vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0)]);
    }

    #[test]
    fn interpreter_errors_match_the_shape() {
        let b = two_points();
        assert_eq!(
            b.value(2).point().unwrap_err(),
            "expected an array",
            "a leaf is not a point"
        );
        assert_eq!(
            b.value(0).point().unwrap_err(),
            "point coordinates must be numbers"
        );
        assert!(interpret_geometry("Polygon", Some(b.value(0)), None).is_err());
        assert_eq!(
            interpret_geometry("Circle", Some(b.value(0)), None).unwrap_err(),
            "unsupported geometry type \"Circle\""
        );
    }

    #[test]
    fn nesting_is_bounded() {
        let mut b = CoordBuf::default();
        for _ in 0..MAX_NESTING {
            assert!(b.open().is_ok());
        }
        assert!(b.open().is_err());
        assert_eq!(b.depth(), MAX_NESTING);
    }
}
