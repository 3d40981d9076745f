//! Integer lattice points and rectilinear distance.
//!
//! Standard-cell global routing is a rectilinear problem: pins sit on a
//! column/row lattice and wire length is measured in the L1 metric. `x` is a
//! routing-grid column; `y` is a row index (the router maps row indices to
//! physical heights separately, so MSTs built over `Point`s weight a
//! row-to-row hop the same as a column hop, which matches the coarse grid
//! TimberWolfSC routes on).

/// A point on the routing lattice. `x` is a column, `y` a row index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Point {
    pub x: i64,
    pub y: i64,
}

impl Point {
    pub const fn new(x: i64, y: i64) -> Self {
        Point { x, y }
    }
}

/// Rectilinear (L1) distance between two lattice points.
pub fn manhattan(a: Point, b: Point) -> u64 {
    a.x.abs_diff(b.x) + a.y.abs_diff(b.y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_zero_for_same_point() {
        let p = Point::new(3, -7);
        assert_eq!(manhattan(p, p), 0);
    }

    #[test]
    fn manhattan_is_symmetric() {
        let a = Point::new(0, 0);
        let b = Point::new(5, -3);
        assert_eq!(manhattan(a, b), 8);
        assert_eq!(manhattan(b, a), 8);
    }

    #[test]
    fn manhattan_handles_extreme_coordinates() {
        let a = Point::new(i64::MIN / 2, 0);
        let b = Point::new(i64::MAX / 2, 0);
        // abs_diff avoids overflow that a naive (a - b).abs() would hit.
        assert_eq!(
            manhattan(a, b),
            (i64::MAX / 2) as u64 + (i64::MIN / 2).unsigned_abs()
        );
    }

    #[test]
    fn point_ordering_is_lexicographic() {
        assert!(Point::new(1, 9) < Point::new(2, 0));
        assert!(Point::new(1, 1) < Point::new(1, 2));
    }
}
