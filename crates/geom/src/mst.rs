//! Minimum spanning trees over explicit point sets.
//!
//! Two variants are needed by the TimberWolfSC flow:
//!
//! * [`mst_prim`] — MST of the *complete* rectilinear graph over a net's
//!   pins (step 1: the approximate Steiner tree is derived from this MST).
//!   Prim's algorithm in O(n²) time and O(n) space, which is the right
//!   trade-off for nets ranging from 2 pins to the multi-thousand-pin clock
//!   nets in avq.large.
//! * [`mst_adjacency_limited`] — MST where edges are only allowed between
//!   nodes on the same or vertically adjacent rows (step 4: final
//!   connection of pins and feedthroughs; a wire may only live in the
//!   channel between the rows it connects). Kruskal over the restricted
//!   edge set, one row's pairs in memory at a time. Feedthrough insertion
//!   guarantees the restricted graph is
//!   connected; if it is not (a router bug), the function reports a forest.

use crate::point::{manhattan, Point};
use crate::unionfind::UnionFind;

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
/// trees on every platform.
///
/// ```
/// use pgr_geom::{mst_prim, Point};
/// let pts = [Point::new(0, 0), Point::new(5, 0), Point::new(5, 3)];
/// let edges = mst_prim(&pts);
/// assert_eq!(edges.len(), 2);
/// assert_eq!(edges.iter().map(|e| e.weight).sum::<u64>(), 8);
/// ```
pub fn mst_prim(points: &[Point]) -> Vec<MstEdge> {
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
        debug_assert!(pick != usize::MAX);
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

/// Result of an adjacency-limited spanning-tree construction.
#[derive(Debug, Clone)]
pub struct LimitedMst {
    pub edges: Vec<MstEdge>,
    /// `true` when the restricted graph was connected and `edges` spans it.
    pub spanning: bool,
}

/// Kruskal MST where an edge `(i, j)` is admissible only if
/// `|rows[i] - rows[j]| <= 1`. `rows[i]` is the row index of `points[i]`.
///
/// Weights are rectilinear distances over `points`. Ties are broken by
/// `(weight, a, b)` order, making the result deterministic.
pub fn mst_adjacency_limited(points: &[Point], rows: &[i64]) -> LimitedMst {
    assert_eq!(points.len(), rows.len());
    let n = points.len();
    if n <= 1 {
        return LimitedMst {
            edges: Vec::new(),
            spanning: true,
        };
    }
    // Bucket node indices by row so candidate generation touches only
    // same-row and adjacent-row pairs instead of all n² pairs.
    let min_row = *rows.iter().min().expect("nonempty");
    let max_row = *rows.iter().max().expect("nonempty");
    let span = (max_row - min_row) as usize + 1;
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); span];
    for (i, &r) in rows.iter().enumerate() {
        buckets[(r - min_row) as usize].push(i as u32);
    }

    // Kruskal in two rounds. An edge left out of the minimum spanning
    // forest of a subgraph is the largest on a cycle there, so it is not
    // in the forest of the whole graph either (`(weight, a, b)` is a
    // strict order). Each row's block — its same-row pairs and its pairs
    // with the next row — is reduced to its own forest first, and only
    // those survivors, fewer than 2n, meet in the final round: the edges
    // one sort of every pair would pick, in the same order, without ever
    // holding every pair of a clock net at once (avq.large's largest:
    // 6 370 nodes, 898 558 pairs, 14 MB; its largest block is 3 MB).
    let key = |e: &MstEdge| (e.weight, e.a, e.b);
    let edge = |a: u32, b: u32| MstEdge {
        a,
        b,
        weight: manhattan(points[a as usize], points[b as usize]),
    };
    let mut uf = UnionFind::new(n);
    let mut block: Vec<MstEdge> = Vec::new();
    let mut cand: Vec<MstEdge> = Vec::new();
    for (bi, bucket) in buckets.iter().enumerate() {
        block.clear();
        for (k, &a) in bucket.iter().enumerate() {
            block.extend(bucket[k + 1..].iter().map(|&b| edge(a, b)));
        }
        if let Some(next) = buckets.get(bi + 1) {
            for &a in bucket {
                block.extend(next.iter().map(|&b| edge(a, b)));
            }
        }
        block.sort_unstable_by_key(key);
        cand.extend(
            block
                .iter()
                .filter(|e| uf.union(e.a as usize, e.b as usize)),
        );
        uf.reset();
    }
    cand.sort_unstable_by_key(key);

    let mut edges = Vec::with_capacity(n - 1);
    for e in cand {
        if uf.union(e.a as usize, e.b as usize) {
            edges.push(e);
            if edges.len() == n - 1 {
                break;
            }
        }
    }
    let spanning = edges.len() == n - 1;
    LimitedMst { edges, spanning }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn prim_deterministic() {
        let p = pts(&[(3, 1), (0, 0), (7, 2), (4, 4), (9, 9), (2, 8)]);
        assert_eq!(mst_prim(&p), mst_prim(&p));
    }
}
