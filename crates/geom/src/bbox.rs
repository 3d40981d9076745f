//! Axis-aligned bounding boxes over lattice points.
//!
//! Used by the net-partition heuristics: the *locus* partition keys nets by
//! the lower-left corner of their bounding box, and the *center* partition
//! by the mean pin position, both of which are conveniently derived from a
//! running bounding box / coordinate sum.

use crate::point::Point;

/// An axis-aligned bounding box. Empty until the first `expand`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BBox {
    pub min_x: i64,
    pub min_y: i64,
    pub max_x: i64,
    pub max_y: i64,
    empty: bool,
}

impl Default for BBox {
    fn default() -> Self {
        Self::new()
    }
}

impl BBox {
    /// An empty box that contains no point.
    pub const fn new() -> Self {
        BBox {
            min_x: i64::MAX,
            min_y: i64::MAX,
            max_x: i64::MIN,
            max_y: i64::MIN,
            empty: true,
        }
    }

    /// A box containing all points of `it`; empty if `it` is empty.
    pub fn from_points<I: IntoIterator<Item = Point>>(it: I) -> Self {
        let mut b = Self::new();
        for p in it {
            b.expand(p);
        }
        b
    }

    pub fn is_empty(&self) -> bool {
        self.empty
    }

    /// Grow the box to contain `p`.
    pub fn expand(&mut self, p: Point) {
        self.empty = false;
        self.min_x = self.min_x.min(p.x);
        self.min_y = self.min_y.min(p.y);
        self.max_x = self.max_x.max(p.x);
        self.max_y = self.max_y.max(p.y);
    }

    /// Grow the box to contain `other` entirely.
    pub fn union(&mut self, other: &BBox) {
        if other.empty {
            return;
        }
        self.expand(Point::new(other.min_x, other.min_y));
        self.expand(Point::new(other.max_x, other.max_y));
    }

    pub fn contains(&self, p: Point) -> bool {
        !self.empty
            && p.x >= self.min_x
            && p.x <= self.max_x
            && p.y >= self.min_y
            && p.y <= self.max_y
    }

    /// Lower-left corner, the key used by the locus net partition.
    /// Panics on an empty box.
    pub fn lower_left(&self) -> Point {
        assert!(!self.empty, "lower_left of empty bbox");
        Point::new(self.min_x, self.min_y)
    }

    pub fn width(&self) -> u64 {
        if self.empty {
            0
        } else {
            self.max_x.abs_diff(self.min_x)
        }
    }

    pub fn height(&self) -> u64 {
        if self.empty {
            0
        } else {
            self.max_y.abs_diff(self.min_y)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_box_contains_nothing() {
        let b = BBox::new();
        assert!(b.is_empty());
        assert!(!b.contains(Point::new(0, 0)));
        assert_eq!(b.width() + b.height(), 0);
    }

    #[test]
    fn single_point_box() {
        let b = BBox::from_points([Point::new(4, -2)]);
        assert!(!b.is_empty());
        assert!(b.contains(Point::new(4, -2)));
        assert_eq!(b.width() + b.height(), 0);
        assert_eq!(b.lower_left(), Point::new(4, -2));
    }

    #[test]
    fn expand_grows_monotonically() {
        let mut b = BBox::from_points([Point::new(0, 0)]);
        b.expand(Point::new(10, 5));
        assert!(b.contains(Point::new(3, 3)));
        assert_eq!(b.width(), 10);
        assert_eq!(b.height(), 5);
    }

    #[test]
    fn union_with_empty_is_identity() {
        let mut b = BBox::from_points([Point::new(1, 1)]);
        let before = b;
        b.union(&BBox::new());
        assert_eq!(b, before);
    }

    #[test]
    fn union_covers_both() {
        let mut a = BBox::from_points([Point::new(0, 0)]);
        let b = BBox::from_points([Point::new(5, 5), Point::new(7, 2)]);
        a.union(&b);
        assert!(a.contains(Point::new(7, 5)));
        assert_eq!(a.lower_left(), Point::new(0, 0));
    }

    #[test]
    #[should_panic(expected = "empty bbox")]
    fn lower_left_of_empty_panics() {
        BBox::new().lower_left();
    }
}
