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
//!   channel between the rows it connects). Kruskal, O(n log n): of the
//!   admissible pairs only fewer than 3n can be in the tree — a column's
//!   lowest index to the rest of its column, to the next column of its
//!   row, and to the nearest unblocked column of the adjacent rows — and
//!   only those are built and sorted ([`LimitedMstScratch::build`] has the
//!   rule and why it returns the tree one sort of every pair would, tie
//!   for tie). Feedthrough insertion guarantees the restricted graph is
//!   connected; if it is not (a router bug), the function reports a forest.

use crate::point::{manhattan, Point};
use crate::unionfind::UnionFind;
use std::cmp::Ordering;

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
    let mut scratch = LimitedMstScratch::default();
    let (_, spanning) = scratch.build(points, rows);
    LimitedMst {
        edges: scratch.cand,
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
    /// The column heads, in that order.
    heads: Vec<u32>,
    /// The candidate edges; after the Kruskal pass, the tree.
    cand: Vec<MstEdge>,
    uf: UnionFind,
}

impl LimitedMstScratch {
    /// The tree of [`mst_adjacency_limited`] and whether it spans, the
    /// edges borrowed from the scratch until the next build.
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
    pub fn build(&mut self, points: &[Point], rows: &[i64]) -> (&[MstEdge], bool) {
        assert_eq!(points.len(), rows.len());
        let n = points.len();
        let LimitedMstScratch {
            order,
            heads,
            cand,
            uf,
        } = self;
        uf.reset(n); // also the bound that lets `n` name nodes in a u32
        order.clear();
        order.extend(0..n as u32);
        order.sort_unstable_by_key(|&i| (rows[i as usize], points[i as usize].x, i));
        debug_assert!(
            order.windows(2).all(|w| {
                let (a, b) = (w[0] as usize, w[1] as usize);
                match rows[b].checked_sub(rows[a]) {
                    Some(0) => points[a].y == points[b].y,
                    Some(1) => points[a].y != points[b].y,
                    _ => true,
                }
            }),
            "one y a row, another for the next row"
        );
        let at = |k: usize| {
            let i = order[k] as usize;
            (rows[i], points[i].x)
        };

        heads.clear();
        cand.clear();
        // The row below the current one and where its heads start.
        let mut below: Option<(i64, usize)> = None;
        let mut k = 0;
        while k < n {
            let row = at(k).0;
            let first = heads.len();
            while k < n && at(k).0 == row {
                let (head, x) = (order[k], at(k).1);
                if let Some(&prev) = heads[first..].last() {
                    cand.push(edge(points, prev.min(head), prev.max(head)));
                }
                heads.push(head);
                k += 1;
                while k < n && at(k) == (row, x) {
                    cand.push(edge(points, head, order[k]));
                    k += 1;
                }
            }
            if let Some((r, start)) = below {
                if r.checked_add(1) == Some(row) {
                    cross_row_candidates(&heads[start..first], &heads[first..], points, cand);
                }
            }
            below = Some((row, first));
        }

        cand.sort_unstable_by_key(|e| (e.weight, e.a, e.b));
        cand.retain(|e| uf.union(e.a as usize, e.b as usize));
        let spanning = cand.len() + 1 >= n;
        (cand, spanning)
    }
}

fn edge(points: &[Point], a: u32, b: u32) -> MstEdge {
    MstEdge {
        a,
        b,
        weight: manhattan(points[a as usize], points[b as usize]),
    }
}

/// Rule 3 of [`LimitedMstScratch::build`]: merge the heads of row r
/// (`lower`) and row r + 1 (`upper`), each ascending in x, and push the
/// pairs no third head blocks, the lower row's node first.
fn cross_row_candidates(lower: &[u32], upper: &[u32], points: &[Point], cand: &mut Vec<MstEdge>) {
    let x = |h: u32| points[h as usize].x;
    // The head at the last x passed, unless both rows have one there, and
    // whether it is the lower row's.
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
                cand.push(edge(points, lower[i], upper[j]));
                alone = None;
                (i, j) = (i + 1, j + 1);
            }
            Ordering::Less => {
                if let Some((false, u)) = alone {
                    cand.push(edge(points, lower[i], u));
                }
                alone = Some((true, lower[i]));
                i += 1;
            }
            Ordering::Greater => {
                if let Some((true, l)) = alone {
                    cand.push(edge(points, l, upper[j]));
                }
                alone = Some((false, upper[j]));
                j += 1;
            }
        }
    }
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
        scratch.build(&p, &[0, 1, 1]);
        assert_eq!(scratch.cand.len(), 2, "never a candidate");
    }

    #[test]
    fn limited_scratch_forgets_the_previous_net() {
        let mut scratch = LimitedMstScratch::default();
        let big = pts(&[(0, 0), (9, 0), (9, 1), (2, 1), (2, 2), (5, 2)]);
        scratch.build(&big, &[0, 0, 1, 1, 2, 2]);
        let small = pts(&[(1, 0), (6, 1)]);
        let (edges, spanning) = scratch.build(&small, &[0, 1]);
        assert_eq!(edges, mst_adjacency_limited(&small, &[0, 1]).edges);
        assert!(spanning);
        let (edges, spanning) = scratch.build(&[], &[]);
        assert!(edges.is_empty() && spanning);
    }

    #[test]
    fn prim_deterministic() {
        let p = pts(&[(3, 1), (0, 0), (7, 2), (4, 4), (9, 9), (2, 8)]);
        assert_eq!(mst_prim(&p), mst_prim(&p));
    }
}
