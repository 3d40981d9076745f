//! Minimum spanning trees over explicit point sets.
//!
//! Two variants are needed by the TimberWolfSC flow:
//!
//! * [`mst_prim`] — MST of the *complete* rectilinear graph over a net's
//!   pins (step 1: the approximate Steiner tree is derived from this MST).
//!   Prim's algorithm in O(n²) time and O(n) space, which is the right
//!   trade-off for nets ranging from 2 pins to the multi-thousand-pin clock
//!   nets in avq.large. Only the vertices not yet in the tree are kept,
//!   one 32-byte record each (`x`, `y`, cheapest edge to the tree and its
//!   tree end, index); a step takes the pick out by a swap-remove and makes
//!   one fused pass over the rest that lowers each record's edge against
//!   the pick and finds the next pick — about n²/2 distances in all. Ties
//!   go to the earliest tree vertex (an edge is lowered only by a strictly
//!   shorter one) and then to the lowest index (the pick is the least
//!   `(weight, index)`), so the tree is edge for edge the textbook scan's.
//! * [`mst_adjacency_limited`] — MST where edges are only allowed between
//!   nodes on the same or vertically adjacent rows (step 4: final
//!   connection of pins and feedthroughs; a wire may only live in the
//!   channel between the rows it connects). Kruskal, O(n log n): of the
//!   admissible pairs only fewer than 3n can be in the tree — a column's
//!   lowest index to the rest of its column, to the next column of its
//!   row, and to the nearest unblocked column of the adjacent rows — and
//!   only those are built and sorted ([`LimitedMstScratch::build`] has the
//!   rule and why it returns the tree one sort of every pair would, tie
//!   for tie). Each candidate is one integer key that sorts as
//!   `(weight, a, b)` — a `u64` where the net's weights and names fit, a
//!   `u128` otherwise — so the sort compares plain integers, and Kruskal
//!   stops at the (n − 1)th edge. Input already in `(row, x, index)`
//!   order, as every net of the router's Connect is, is found so by one
//!   O(n) check and not sorted again; other input is sorted into that
//!   order first. Feedthrough
//!   insertion guarantees the restricted graph is connected; if it is not
//!   (a router bug), the function reports a forest.

use crate::point::{manhattan, Point};
use crate::unionfind::UnionFind;
use std::cmp::Ordering;
use std::ops::Range;

/// An MST edge between node indices `a` and `b` with rectilinear weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MstEdge {
    pub a: u32,
    pub b: u32,
    pub weight: u64,
}

/// Prim's algorithm over the complete rectilinear graph on `points`.
///
/// Returns `points.len().saturating_sub(1)` edges. Deterministic: ties are
/// broken towards the lowest-index node, so identical inputs yield identical
/// trees on every platform. One-shot form of [`PrimScratch::build`], which
/// the router keeps across its nets.
///
/// ```
/// use pgr_geom::{mst_prim, Point};
/// let pts = [Point::new(0, 0), Point::new(5, 0), Point::new(5, 3)];
/// let edges = mst_prim(&pts);
/// assert_eq!(edges.len(), 2);
/// assert_eq!(edges.iter().map(|e| e.weight).sum::<u64>(), 8);
/// ```
pub fn mst_prim(points: &[Point]) -> Vec<MstEdge> {
    let mut scratch = PrimScratch::default();
    scratch.build(points);
    scratch.edges
}

/// A vertex not yet in Prim's tree: where it is, its cheapest edge to
/// the tree (`best`, to tree vertex `from`) and its index.
#[derive(Debug, Clone, Copy)]
struct Left {
    x: i64,
    y: i64,
    best: u64,
    index: u32,
    from: u32,
}

/// The buffers of [`PrimScratch::build`]. They grow to the largest net
/// seen and stay allocated: a caller that keeps one across its nets pays
/// no allocation per net.
#[derive(Debug, Default)]
pub struct PrimScratch {
    /// The vertices not yet in the tree, in no particular order.
    left: Vec<Left>,
    edges: Vec<MstEdge>,
}

impl PrimScratch {
    /// The tree of [`mst_prim`], borrowed from the scratch until the next
    /// build.
    pub fn build(&mut self, points: &[Point]) -> &[MstEdge] {
        let n = points.len();
        let PrimScratch { left, edges } = self;
        edges.clear();
        left.clear();
        if n <= 1 {
            return edges;
        }
        edges.reserve_exact(n - 1);
        left.reserve_exact(n - 1);
        left.extend(points.iter().enumerate().skip(1).map(|(i, p)| Left {
            x: p.x,
            y: p.y,
            best: u64::MAX,
            index: i as u32,
            from: 0,
        }));
        // The vertex that joined the tree last; the root first.
        let (mut x, mut y, mut index) = (points[0].x, points[0].y, 0);
        loop {
            // Lower every edge to the tree against the newcomer (strictly:
            // an equal edge keeps its earlier tree end) and pick the least
            // `(best, index)` on the way.
            let mut pick = 0;
            let mut least = (u64::MAX, u32::MAX);
            for (k, v) in left.iter_mut().enumerate() {
                let w = v.x.abs_diff(x) + v.y.abs_diff(y);
                if w < v.best {
                    v.best = w;
                    v.from = index;
                }
                if (v.best, v.index) < least {
                    least = (v.best, v.index);
                    pick = k;
                }
            }
            if left.is_empty() {
                return edges;
            }
            let v = left.swap_remove(pick);
            edges.push(MstEdge {
                a: v.from,
                b: v.index,
                weight: v.best,
            });
            (x, y, index) = (v.x, v.y, v.index);
        }
    }
}

/// Result of an adjacency-limited spanning-tree construction.
#[derive(Debug, Clone)]
pub struct LimitedMst {
    pub edges: Vec<MstEdge>,
    /// `true` when the restricted graph was connected and `edges` spans it.
    pub spanning: bool,
}

/// Kruskal MST where an edge `(i, j)` is admissible only if
/// `|rows[i] - rows[j]| <= 1`. `rows[i]` is the row index of `points[i]`,
/// and the points of one row share a `y` that differs from the next
/// row's (every caller passes `y = row`).
///
/// Weights are rectilinear distances over `points`. Edges are named
/// lower row first, then lower index, and ties are broken by
/// `(weight, a, b)` order, making the result deterministic: it is the
/// list one sort of every admissible pair would pick, in that order.
/// One-shot form of [`LimitedMstScratch::build`].
pub fn mst_adjacency_limited(points: &[Point], rows: &[i64]) -> LimitedMst {
    assert_eq!(points.len(), rows.len());
    let mut scratch = LimitedMstScratch::with_capacity(points.len());
    let (_, spanning) = scratch.build(points.len(), |i| (rows[i], points[i]));
    LimitedMst {
        edges: scratch.edges,
        spanning,
    }
}

/// The buffers of [`LimitedMstScratch::build`]. They grow to the largest
/// net seen and stay allocated: a caller that keeps one across its nets
/// pays no allocation per net.
#[derive(Debug, Default)]
pub struct LimitedMstScratch {
    /// Node indices in `(row, x, index)` order.
    order: Vec<u32>,
    /// The candidate edges as 64-bit [`Key`]s …
    keys: Vec<u64>,
    /// … or, for a net whose weights and names do not fit them, 128-bit.
    wide: Vec<u128>,
    /// The tree.
    edges: Vec<MstEdge>,
    uf: UnionFind,
    /// The admissible pairs of the last build's nodes.
    pairs: u64,
}

impl LimitedMstScratch {
    /// Scratch sized for up to `n` nodes: a build over that many
    /// allocates nothing (its candidates are fewer than 3n), as long as
    /// its keys fit 64 bits — every net below 2¹⁶ nodes and 2³² in weight
    /// does.
    pub fn with_capacity(n: usize) -> Self {
        LimitedMstScratch {
            order: Vec::with_capacity(n),
            keys: Vec::with_capacity(3 * n),
            edges: Vec::with_capacity(n.saturating_sub(1)),
            uf: UnionFind::with_capacity(n),
            ..LimitedMstScratch::default()
        }
    }

    /// How many admissible pairs the last build's nodes have: every
    /// same-row and every adjacent-row pair, the scan the 1997 kernel
    /// sorted and the virtual clock charges.
    pub fn pairs(&self) -> u64 {
        self.pairs
    }

    /// The tree of [`mst_adjacency_limited`] over nodes `0 .. n` and
    /// whether it spans, the edges borrowed from the scratch until the
    /// next build. `at(i)` is node `i`'s row and point, read where the
    /// caller keeps them: the kernel copies no node.
    ///
    /// Nodes of one row at one x form a *column group*; its *head* is
    /// its lowest index. The candidates are
    ///
    /// 1. head to every other node of its group (weight 0),
    /// 2. head to the head of the row's next group in x,
    /// 3. for rows r and r + 1, a head of one to a head of the other when
    ///    no third head of the two rows has its x in the closed interval
    ///    between theirs (found by one merge of the two rows' heads)
    ///
    /// — fewer than 3n edges. Every other admissible edge is strictly the
    /// largest of a triangle under `(weight, a, b)`, so it is in no
    /// minimum spanning forest, and one Kruskal pass over the candidates
    /// accepts what a pass over every pair would, in the same order:
    ///
    /// * `v` not a head, `h` its head, `u` any third node: `(h, v)` weighs
    ///   0, and `(u, h)` weighs what `(u, v)` does and sorts before it,
    ///   `h < v` being the only name that differs;
    /// * two heads of one row with a head `c` of that row between them:
    ///   `(a, c)` and `(c, b)` are both shorter;
    /// * heads `a`, `b` of adjacent rows with such a third head `c`: of
    ///   `(a, c)` and `(c, b)` one runs along a row and is shorter than
    ///   `(a, b)` by the row hop at least, the other crosses and is
    ///   shorter by the distance from `c` to the end in its own row.
    ///
    /// The first case is why ties are exact: coincident nodes weigh the
    /// same to everything, so which of them the tree attaches is decided
    /// by index alone, and the head is the index that wins.
    ///
    /// Each candidate is packed into one integer key that sorts as
    /// `(weight, a, b)` — 64 bits where the net's longest possible edge
    /// leaves room for two node names, 128 otherwise — and the keys are
    /// sorted as integers. The same walk counts the admissible pairs
    /// ([`LimitedMstScratch::pairs`]).
    pub fn build<At>(&mut self, n: usize, at: At) -> (&[MstEdge], bool)
    where
        At: Fn(usize) -> (i64, Point),
    {
        let LimitedMstScratch {
            order,
            keys,
            wide,
            edges,
            uf,
            pairs,
        } = self;
        uf.reset(n); // also the bound that lets `n` name nodes in a u32
        edges.clear();
        *pairs = 0;
        if n < 2 {
            return (edges, true);
        }
        // One pass: is the input in `(row, x, index)` order already, and
        // how long can an edge be?
        let mut sorted = true;
        let (row, p) = at(0);
        let mut last = (row, p.x);
        let (mut x_lo, mut x_hi) = (p.x, p.x);
        let (mut y_lo, mut y_hi) = (p.y, p.y);
        for i in 1..n {
            let (row, p) = at(i);
            sorted &= last <= (row, p.x);
            last = (row, p.x);
            (x_lo, x_hi) = (x_lo.min(p.x), x_hi.max(p.x));
            (y_lo, y_hi) = (y_lo.min(p.y), y_hi.max(p.y));
        }
        let longest = x_hi.abs_diff(x_lo).checked_add(y_hi.abs_diff(y_lo));
        let bits = u32::BITS - (n as u32 - 1).leading_zeros();
        let narrow = 2 * bits < u64::BITS && longest.is_some_and(|w| w >> (64 - 2 * bits) == 0);
        order.clear();
        order.extend(0..n as u32);
        if !sorted {
            order.sort_unstable_by_key(|&i| {
                let (row, p) = at(i as usize);
                (row, p.x, i)
            });
        }
        let walk = Walk { at, n, order, bits };
        *pairs = if narrow {
            walk.tree(keys, uf, edges)
        } else {
            walk.tree(wide, uf, edges)
        };
        let spanning = edges.len() + 1 >= n;
        (edges, spanning)
    }
}

/// A candidate edge `(weight, a, b)` packed into one integer that sorts
/// as the triple does: the weight above two `bits`-wide node names, where
/// `bits` names every node of the net. Exact when the weight fits the
/// bits left above the names.
trait Key: Copy + Ord {
    fn pack(weight: u64, a: u32, b: u32, bits: u32) -> Self;
    fn unpack(self, bits: u32) -> (u64, u32, u32);
}

macro_rules! key {
    ($($t:ty),*) => {$(
        impl Key for $t {
            fn pack(weight: u64, a: u32, b: u32, bits: u32) -> $t {
                (weight as $t) << (2 * bits) | (a as $t) << bits | b as $t
            }
            fn unpack(self, bits: u32) -> (u64, u32, u32) {
                let name = (1 << bits) - 1;
                let (a, b) = (self >> bits & name, self & name);
                ((self >> (2 * bits)) as u64, a as u32, b as u32)
            }
        }
    )*};
}

key!(u64, u128);

/// One net's `n` nodes as [`LimitedMstScratch::build`] walks them, each
/// read through `at`: `order` holds their indices in `(row, x, index)`
/// order, so a column's first is its head.
struct Walk<'a, At> {
    at: At,
    n: usize,
    order: &'a [u32],
    bits: u32,
}

impl<At: Fn(usize) -> (i64, Point)> Walk<'_, At> {
    /// Build the candidates in `keys` ([`Walk::candidates`]), sort them
    /// and accept, in that order, each edge that joins two trees, until
    /// `edges` holds n − 1; returns the admissible pair count.
    fn tree<K: Key>(&self, keys: &mut Vec<K>, uf: &mut UnionFind, edges: &mut Vec<MstEdge>) -> u64 {
        let pairs = self.candidates(keys);
        keys.sort_unstable();
        let n = self.n;
        edges.reserve(n - 1);
        for key in keys.iter() {
            let (weight, a, b) = key.unpack(self.bits);
            if uf.union(a as usize, b as usize) {
                edges.push(MstEdge { a, b, weight });
                if edges.len() + 1 == n {
                    break;
                }
            }
        }
        pairs
    }

    fn key<K: Key>(&self, a: u32, b: u32) -> K {
        let w = manhattan((self.at)(a as usize).1, (self.at)(b as usize).1);
        K::pack(w, a, b, self.bits)
    }

    /// Fill `keys` with the candidates of [`LimitedMstScratch::build`],
    /// walking the nodes in `order`; returns how many admissible pairs
    /// the nodes have.
    fn candidates<K: Key>(&self, keys: &mut Vec<K>) -> u64 {
        let (order, n) = (self.order, self.n);
        let node = |k: usize| order[k];
        let at = |k: usize| {
            let (row, p) = (self.at)(node(k) as usize);
            (row, p.x)
        };
        debug_assert!(
            (1..n).all(|k| {
                let (a, b) = ((self.at)(node(k - 1) as usize), (self.at)(node(k) as usize));
                match b.0.checked_sub(a.0) {
                    Some(0) => a.1.y == b.1.y,
                    Some(1) => a.1.y != b.1.y,
                    _ => true,
                }
            }),
            "one y a row, another for the next row"
        );
        keys.clear();
        let mut pairs = 0;
        // The nodes of the row below the current one, and that row.
        let mut below: Option<(i64, Range<usize>)> = None;
        let mut k = 0;
        while k < n {
            let (row, start) = (at(k).0, k);
            let mut prev = None;
            while k < n && at(k).0 == row {
                let (head, x) = (node(k), at(k).1);
                if let Some(prev) = prev {
                    keys.push(self.key(u32::min(prev, head), u32::max(prev, head)));
                }
                prev = Some(head);
                k += 1;
                while k < n && at(k) == (row, x) {
                    keys.push(self.key(head, node(k)));
                    k += 1;
                }
            }
            let count = (k - start) as u64;
            pairs += count * (count - 1) / 2;
            if let Some((r, lower)) = below {
                if r.checked_add(1) == Some(row) {
                    pairs += lower.len() as u64 * count;
                    self.cross_row(lower, start..k, keys);
                }
            }
            below = Some((row, start..k));
        }
        pairs
    }

    /// Rule 3 of [`LimitedMstScratch::build`]: merge the columns of row r
    /// (the walk's `lower` positions) and row r + 1 (`upper`), each
    /// ascending in x, and push the head pairs no third head blocks, the
    /// lower row's node first.
    fn cross_row<K: Key>(&self, lower: Range<usize>, upper: Range<usize>, keys: &mut Vec<K>) {
        let node = |k: usize| self.order[k];
        let x = |k: usize| (self.at)(node(k) as usize).1.x;
        // The position past the column at `k`, which ends at `end`.
        let past = |mut k: usize, end: usize| {
            let at = x(k);
            k += 1;
            while k < end && x(k) == at {
                k += 1;
            }
            k
        };
        // The head at the last x passed, unless both rows have one there,
        // and whether it is the lower row's.
        let mut alone: Option<(bool, u32)> = None;
        let (mut i, mut j) = (lower.start, upper.start);
        while i < lower.end || j < upper.end {
            let next = match (i < lower.end, j < upper.end) {
                (true, true) => x(i).cmp(&x(j)),
                (true, false) => Ordering::Less,
                _ => Ordering::Greater,
            };
            match next {
                Ordering::Equal => {
                    keys.push(self.key(node(i), node(j)));
                    alone = None;
                    (i, j) = (past(i, lower.end), past(j, upper.end));
                }
                Ordering::Less => {
                    if let Some((false, u)) = alone {
                        keys.push(self.key(node(i), u));
                    }
                    alone = Some((true, node(i)));
                    i = past(i, lower.end);
                }
                Ordering::Greater => {
                    if let Some((true, l)) = alone {
                        keys.push(self.key(l, node(j)));
                    }
                    alone = Some((false, node(j)));
                    j = past(j, upper.end);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`LimitedMstScratch::build`] over `points` and their `rows`.
    fn build<'s>(
        scratch: &'s mut LimitedMstScratch,
        points: &[Point],
        rows: &[i64],
    ) -> (&'s [MstEdge], bool) {
        assert_eq!(points.len(), rows.len());
        scratch.build(points.len(), |i| (rows[i], points[i]))
    }

    fn pts(v: &[(i64, i64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    fn total_weight(edges: &[MstEdge]) -> u64 {
        edges.iter().map(|e| e.weight).sum()
    }

    #[test]
    fn prim_trivial_sizes() {
        assert!(mst_prim(&[]).is_empty());
        assert!(mst_prim(&pts(&[(0, 0)])).is_empty());
        let e = mst_prim(&pts(&[(0, 0), (3, 4)]));
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].weight, 7);
    }

    #[test]
    fn prim_collinear_points_chain() {
        let e = mst_prim(&pts(&[(0, 0), (10, 0), (5, 0), (2, 0)]));
        assert_eq!(e.len(), 3);
        assert_eq!(
            total_weight(&e),
            10,
            "MST of collinear points spans the extent"
        );
    }

    #[test]
    fn prim_square_plus_center() {
        // 4 corners of a 2x2 square plus center: MST weight is 4 * dist(center, corner) = 8.
        let e = mst_prim(&pts(&[(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]));
        assert_eq!(total_weight(&e), 8);
    }

    #[test]
    fn prim_duplicate_points_zero_edges() {
        let e = mst_prim(&pts(&[(1, 1), (1, 1), (1, 1)]));
        assert_eq!(e.len(), 2);
        assert_eq!(total_weight(&e), 0);
    }

    #[test]
    fn limited_same_as_prim_when_rows_adjacent() {
        let p = pts(&[(0, 0), (4, 1), (8, 0)]);
        let rows = vec![0, 1, 0];
        let lm = mst_adjacency_limited(&p, &rows);
        assert!(lm.spanning);
        assert_eq!(total_weight(&lm.edges), total_weight(&mst_prim(&p)));
    }

    #[test]
    fn limited_reports_disconnection() {
        // Rows 0 and 5 with nothing between: no admissible edge.
        let p = pts(&[(0, 0), (0, 5)]);
        let lm = mst_adjacency_limited(&p, &[0, 5]);
        assert!(!lm.spanning);
        assert!(lm.edges.is_empty());
    }

    #[test]
    fn limited_uses_intermediate_rows() {
        // A pin on rows 0 and 2 plus a "feedthrough" on row 1 makes it spanning.
        let p = pts(&[(0, 0), (0, 1), (0, 2)]);
        let lm = mst_adjacency_limited(&p, &[0, 1, 2]);
        assert!(lm.spanning);
        assert_eq!(lm.edges.len(), 2);
        assert_eq!(total_weight(&lm.edges), 2);
    }

    #[test]
    fn limited_prefers_cheap_same_row_edges() {
        // Two clusters on the same row far apart, with an adjacent-row bridge.
        let p = pts(&[(0, 0), (1, 0), (100, 0), (101, 0), (50, 1)]);
        let rows = vec![0, 0, 0, 0, 1];
        let lm = mst_adjacency_limited(&p, &rows);
        assert!(lm.spanning);
        assert_eq!(lm.edges.len(), 4);
        // The two unit edges must be chosen.
        assert!(lm.edges.iter().filter(|e| e.weight == 1).count() >= 2);
    }

    /// Every same-row and adjacent-row pair (lower row first, then lower
    /// index), one sort by `(weight, a, b)`, one Kruskal pass.
    fn all_pairs_tree(p: &[Point], rows: &[i64]) -> Vec<(u64, u32, u32)> {
        let n = p.len();
        let mut all = Vec::new();
        for a in 0..n {
            for b in 0..n {
                if (rows[a] == rows[b] && a < b) || rows[a] + 1 == rows[b] {
                    all.push((manhattan(p[a], p[b]), a as u32, b as u32));
                }
            }
        }
        all.sort_unstable();
        let mut uf = UnionFind::new(n);
        all.retain(|&(_, a, b)| uf.union(a as usize, b as usize));
        all
    }

    /// The kernel's tree as `(weight, a, b)` keys, checked against the
    /// all-pairs oracle on the way.
    fn limited_tree(v: &[(i64, i64)]) -> Vec<(u64, u32, u32)> {
        let p = pts(v);
        let rows: Vec<i64> = v.iter().map(|&(_, row)| row).collect();
        let got: Vec<_> = mst_adjacency_limited(&p, &rows)
            .edges
            .iter()
            .map(|e| (e.weight, e.a, e.b))
            .collect();
        assert_eq!(got, all_pairs_tree(&p, &rows));
        got
    }

    #[test]
    fn limited_shared_column_attaches_by_its_head() {
        // Nodes 0 and 1 share a column, node 2 stands to their right:
        // (0, 2) and (1, 2) weigh the same and the lower name wins.
        let tree = limited_tree(&[(3, 0), (3, 0), (7, 0)]);
        assert_eq!(tree, [(0, 0, 1), (4, 0, 2)]);
        // The head is the lowest index, wherever it sits in the input.
        let tree = limited_tree(&[(7, 0), (3, 0), (3, 0)]);
        assert_eq!(tree, [(0, 1, 2), (4, 0, 1)]);
    }

    #[test]
    fn limited_column_shared_across_rows_pairs_heads_only() {
        // Two nodes at x = 4 in row 0 (1 and 3) and two in row 1 (0 and
        // 2): of the four hops only (1, 0), head to head, is taken.
        let tree = limited_tree(&[(4, 1), (4, 0), (4, 1), (4, 0)]);
        assert_eq!(tree, [(0, 0, 2), (0, 1, 3), (1, 1, 0)]);
    }

    #[test]
    fn limited_cross_edge_past_a_shared_column_is_pruned() {
        // Row 0 holds x = 5; row 1 holds x = 5 and x = 8. The 5 -> 8 cross
        // edge (weight 4) loses to the hop (1) plus the row-1 edge (3),
        // in the kernel's candidates and in the oracle's tree alike.
        let tree = limited_tree(&[(5, 0), (5, 1), (8, 1)]);
        assert_eq!(tree, [(1, 0, 1), (3, 1, 2)]);
        let p = pts(&[(5, 0), (5, 1), (8, 1)]);
        let mut scratch = LimitedMstScratch::default();
        build(&mut scratch, &p, &[0, 1, 1]);
        assert_eq!(scratch.keys.len(), 2, "never a candidate");
    }

    #[test]
    fn limited_scratch_forgets_the_previous_net() {
        let mut scratch = LimitedMstScratch::default();
        let big = pts(&[(0, 0), (9, 0), (9, 1), (2, 1), (2, 2), (5, 2)]);
        build(&mut scratch, &big, &[0, 0, 1, 1, 2, 2]);
        let small = pts(&[(1, 0), (6, 1)]);
        let (edges, spanning) = build(&mut scratch, &small, &[0, 1]);
        assert_eq!(edges, mst_adjacency_limited(&small, &[0, 1]).edges);
        assert!(spanning);
        let (edges, spanning) = build(&mut scratch, &[], &[]);
        assert!(edges.is_empty() && spanning);
    }

    /// Prim over fresh vectors, ties to the lowest index: what
    /// [`PrimScratch::build`] must return edge for edge.
    fn mst_prim_reference(points: &[Point]) -> Vec<MstEdge> {
        let n = points.len();
        if n <= 1 {
            return Vec::new();
        }
        let mut in_tree = vec![false; n];
        // best[i] = (weight, tree node) of the cheapest edge connecting i to the tree.
        let mut best = vec![(u64::MAX, 0u32); n];
        let mut edges = Vec::with_capacity(n - 1);

        in_tree[0] = true;
        for (i, p) in points.iter().enumerate().skip(1) {
            best[i] = (manhattan(points[0], *p), 0);
        }
        for _ in 1..n {
            // Pick the non-tree node with the cheapest connecting edge.
            let mut pick = usize::MAX;
            let mut pick_w = u64::MAX;
            for i in 0..n {
                if !in_tree[i] && best[i].0 < pick_w {
                    pick = i;
                    pick_w = best[i].0;
                }
            }
            in_tree[pick] = true;
            edges.push(MstEdge {
                a: best[pick].1,
                b: pick as u32,
                weight: pick_w,
            });
            for i in 0..n {
                if !in_tree[i] {
                    let w = manhattan(points[pick], points[i]);
                    if w < best[i].0 {
                        best[i] = (w, pick as u32);
                    }
                }
            }
        }
        edges
    }

    /// Seeded point sets full of ties: coordinates drawn from ranges of
    /// 2, 5, 20 and 1 000 (the small ones stack coincident points), sizes
    /// from 0 to 3 000.
    fn tied_point_sets(seed: u64) -> impl Iterator<Item = Vec<Point>> {
        let mut rng = crate::rng::rng_from_seed(seed);
        let sizes = (0..40).chain([64, 127, 300, 541, 3_000]);
        sizes.enumerate().map(move |(case, n)| {
            let span = [2i64, 5, 20, 1_000][case % 4];
            let rows = span.min([6, 40][case % 2]);
            (0..n)
                .map(|_| Point::new(rng.gen_range(0..span), rng.gen_range(0..rows)))
                .collect()
        })
    }

    /// Build every set through one scratch, so each build starts from the
    /// buffers a larger or smaller one left behind, and one shot; both
    /// must be the reference edge for edge. Returns how many equal-weight
    /// edges the reference trees held.
    fn check_prim(sets: impl Iterator<Item = Vec<Point>>) -> usize {
        let mut scratch = PrimScratch::default();
        let mut ties = 0;
        for (case, p) in sets.enumerate() {
            let reference = mst_prim_reference(&p);
            assert_eq!(scratch.build(&p), &reference[..], "case {case}: {p:?}");
            assert_eq!(mst_prim(&p), reference, "case {case}: one-shot");
            let weights: Vec<u64> = reference.iter().map(|e| e.weight).collect();
            ties += weights.len()
                - weights
                    .iter()
                    .collect::<std::collections::BTreeSet<_>>()
                    .len();
        }
        ties
    }

    #[test]
    fn prim_scratch_builds_the_reference_tree_edge_for_edge() {
        // Few distinct coordinates: duplicate points and equal-weight
        // ties abound, over the small nets most of the router's are.
        let mut rng = crate::rng::rng_from_seed(0x9121);
        let sets = (0..600).map(|case| {
            let n = match case % 6 {
                0 => rng.gen_range(0..3usize),
                5 => rng.gen_range(40..120usize),
                _ => rng.gen_range(2..24usize),
            };
            let span = [2i64, 5, 40][case % 3];
            (0..n)
                .map(|_| Point::new(rng.gen_range(0..span), rng.gen_range(0..span.min(6))))
                .collect()
        });
        assert!(
            check_prim(sets) > 0,
            "the sets must hold equal-weight edges"
        );
    }

    #[test]
    fn prim_scratch_builds_the_reference_tree_over_tied_sets_up_to_3000() {
        assert!(check_prim(tied_point_sets(0x9121)) > 0);
    }

    /// [`LimitedMstScratch::build`] as it was before its candidates became
    /// integer keys, written out as it stood: the same candidates as
    /// [`MstEdge`]s after a sort of every node by `(row, x, index)`, one
    /// tuple-keyed sort, one Kruskal pass over all of them. What the
    /// kernel must return edge for edge.
    fn reference_limited(points: &[Point], rows: &[i64]) -> (Vec<MstEdge>, bool) {
        let n = points.len();
        let edge = |a: u32, b: u32| MstEdge {
            a,
            b,
            weight: manhattan(points[a as usize], points[b as usize]),
        };
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&i| (rows[i as usize], points[i as usize].x, i));
        let at = |k: usize| {
            let i = order[k] as usize;
            (rows[i], points[i].x)
        };
        let (mut heads, mut cand) = (Vec::new(), Vec::new());
        let mut below: Option<(i64, usize)> = None;
        let mut k = 0;
        while k < n {
            let row = at(k).0;
            let first = heads.len();
            while k < n && at(k).0 == row {
                let (head, x) = (order[k], at(k).1);
                if let Some(&prev) = heads[first..].last() {
                    cand.push(edge(u32::min(prev, head), u32::max(prev, head)));
                }
                heads.push(head);
                k += 1;
                while k < n && at(k) == (row, x) {
                    cand.push(edge(head, order[k]));
                    k += 1;
                }
            }
            if let Some((r, start)) = below {
                if r.checked_add(1) == Some(row) {
                    let (lower, upper) = (&heads[start..first], &heads[first..]);
                    let x = |h: u32| points[h as usize].x;
                    let mut alone: Option<(bool, u32)> = None;
                    let (mut i, mut j) = (0, 0);
                    while i < lower.len() || j < upper.len() {
                        let next = match (lower.get(i), upper.get(j)) {
                            (Some(&l), Some(&u)) => x(l).cmp(&x(u)),
                            (Some(_), None) => Ordering::Less,
                            _ => Ordering::Greater,
                        };
                        match next {
                            Ordering::Equal => {
                                cand.push(edge(lower[i], upper[j]));
                                alone = None;
                                (i, j) = (i + 1, j + 1);
                            }
                            Ordering::Less => {
                                if let Some((false, u)) = alone {
                                    cand.push(edge(lower[i], u));
                                }
                                alone = Some((true, lower[i]));
                                i += 1;
                            }
                            Ordering::Greater => {
                                if let Some((true, l)) = alone {
                                    cand.push(edge(l, upper[j]));
                                }
                                alone = Some((false, upper[j]));
                                j += 1;
                            }
                        }
                    }
                }
            }
            below = Some((row, first));
        }
        cand.sort_unstable_by_key(|e| (e.weight, e.a, e.b));
        let mut uf = UnionFind::new(n);
        cand.retain(|e| uf.union(e.a as usize, e.b as usize));
        let spanning = cand.len() + 1 >= n;
        (cand, spanning)
    }

    /// Every same-row and adjacent-row pair, counted one by one.
    fn admissible_pairs(rows: &[i64]) -> u64 {
        let mut pairs = 0;
        for (a, &ra) in rows.iter().enumerate() {
            for &rb in &rows[a + 1..] {
                pairs += u64::from(ra.abs_diff(rb) <= 1);
            }
        }
        pairs
    }

    /// Build `points` (at `y = row`) once through `scratch` and once one
    /// shot, and check both against the reference and the pair count.
    fn check_limited(scratch: &mut LimitedMstScratch, points: &[Point], what: &str) {
        let rows: Vec<i64> = points.iter().map(|p| p.y).collect();
        let (want, want_spanning) = reference_limited(points, &rows);
        let (got, spanning) = build(scratch, points, &rows);
        assert_eq!(got, &want[..], "{what}: {points:?}");
        assert_eq!(spanning, want_spanning, "{what}");
        assert_eq!(scratch.pairs(), admissible_pairs(&rows), "{what}: pairs");
        let once = mst_adjacency_limited(points, &rows);
        assert_eq!(
            (once.edges, once.spanning),
            (want, want_spanning),
            "{what}: one-shot"
        );
    }

    #[test]
    fn limited_scratch_builds_the_reference_tree_edge_for_edge() {
        let mut scratch = LimitedMstScratch::default();
        let (mut unsorted, mut sorted) = (0, 0);
        for (case, mut p) in tied_point_sets(0x4c1d).enumerate() {
            // The points as drawn: columns whose heads stand anywhere in
            // the input, rows out of order.
            check_limited(&mut scratch, &p, &format!("case {case}"));
            unsorted += usize::from(!p.is_sorted_by_key(|p| (p.y, p.x)));
            // The same points in `(row, x)` order, as Connect passes them.
            p.sort_unstable_by_key(|p| (p.y, p.x));
            check_limited(&mut scratch, &p, &format!("case {case}, sorted"));
            sorted += 1;
        }
        assert!(unsorted > 30 && sorted > 40);
    }

    #[test]
    fn limited_coincident_columns_whose_heads_come_late() {
        // Row 1's column at x = 4 (nodes 0 and 1) comes before its column
        // at x = 2 (nodes 2, 4 and 5) and the rows interleave, so the
        // heads arrive out of `(row, x)` order, as given and reversed.
        let p = pts(&[
            (4, 1),
            (4, 1),
            (2, 1),
            (4, 0),
            (2, 1),
            (2, 1),
            (3, 0),
            (2, 0),
        ]);
        let mut scratch = LimitedMstScratch::default();
        check_limited(&mut scratch, &p, "as given");
        let mut reversed = p.clone();
        reversed.reverse();
        check_limited(&mut scratch, &reversed, "reversed");
    }

    #[test]
    fn limited_nets_at_the_candidate_bound() {
        // Every node its own column, up to eight rows interleaved in x:
        // the candidates come close to 3n.
        let mut scratch = LimitedMstScratch::default();
        for rows in 1..=8 {
            for n in [2, 3, 17, 200] {
                let p: Vec<Point> = (0..n).map(|i| Point::new(i, i % rows)).collect();
                check_limited(&mut scratch, &p, &format!("{rows} rows, {n} nodes"));
                let cand = scratch.keys.len() as i64;
                assert!(cand < 3 * n, "{cand} candidates for {n} nodes");
                if rows == 8 && n == 200 {
                    assert!(cand > 5 * n / 2, "{cand} candidates for {n} nodes");
                }
            }
        }
    }

    #[test]
    fn limited_keys_wider_than_64_bits() {
        // Weights past 2⁶² leave no room for even one bit of name: the
        // wide keys, which must sort and read back the same way.
        let mut rng = crate::rng::rng_from_seed(0x3de);
        let mut scratch = LimitedMstScratch::default();
        for n in [2, 9, 3_000] {
            let mut p = pts(&[(0, 0), (3 << 61, 1)]);
            p.extend((2..n).map(|_| Point::new(rng.gen_range(0..4) << 61, rng.gen_range(0..3))));
            check_limited(&mut scratch, &p, &format!("{n} nodes"));
            assert!(
                scratch.keys.is_empty() && !scratch.wide.is_empty(),
                "{n} nodes"
            );
        }
    }

    #[test]
    fn keys_sort_as_their_triples() {
        let triples = [
            (0, 0, 1),
            (0, 1, 0),
            (1, 0, 0),
            (5, 3, 2),
            (5, 3, 3),
            (7, 0, 7),
        ];
        for bits in [3, 12, 30] {
            let mut narrow: Vec<u64> = triples
                .iter()
                .map(|&(w, a, b)| u64::pack(w, a, b, bits))
                .collect();
            let mut wide: Vec<u128> = triples
                .iter()
                .map(|&(w, a, b)| u128::pack(w, a, b, bits))
                .collect();
            narrow.reverse();
            wide.reverse();
            narrow.sort_unstable();
            wide.sort_unstable();
            let back = |k: (u64, u32, u32)| k;
            let narrow: Vec<_> = narrow.iter().map(|k| back(k.unpack(bits))).collect();
            let wide: Vec<_> = wide.iter().map(|k| back(k.unpack(bits))).collect();
            assert_eq!(narrow, triples, "{bits} bits");
            assert_eq!(wide, triples, "{bits} bits");
        }
    }

    #[test]
    fn prim_deterministic() {
        let p = pts(&[(3, 1), (0, 0), (7, 2), (4, 4), (9, 9), (2, 8)]);
        assert_eq!(mst_prim(&p), mst_prim(&p));
    }
}
