//! Randomized property tests for the geometry kernels, driven by the
//! crate's own seeded RNG so every run covers identical cases.

use pgr_geom::rng::{rng_from_seed, SmallRng};
use pgr_geom::{manhattan, mst_adjacency_limited, mst_prim, BBox, Point, UnionFind};

fn random_point(rng: &mut SmallRng) -> Point {
    Point::new(rng.gen_range(-1000i64..1000), rng.gen_range(-100i64..100))
}

fn random_points(rng: &mut SmallRng, lo: usize, hi: usize) -> Vec<Point> {
    let n = rng.gen_range(lo..hi);
    (0..n).map(|_| random_point(rng)).collect()
}

#[test]
fn manhattan_is_a_metric() {
    let mut rng = rng_from_seed(0x6E01);
    for _ in 0..256 {
        let (a, b, c) = (
            random_point(&mut rng),
            random_point(&mut rng),
            random_point(&mut rng),
        );
        assert_eq!(manhattan(a, a), 0);
        assert_eq!(manhattan(a, b), manhattan(b, a));
        assert!(
            manhattan(a, c) <= manhattan(a, b) + manhattan(b, c),
            "triangle inequality"
        );
    }
}

#[test]
fn mst_has_n_minus_1_edges_and_spans() {
    let mut rng = rng_from_seed(0x6E02);
    for _ in 0..256 {
        let points = random_points(&mut rng, 2, 60);
        let edges = mst_prim(&points);
        assert_eq!(edges.len(), points.len() - 1);
        let mut uf = UnionFind::new(points.len());
        for e in &edges {
            assert_eq!(
                e.weight,
                manhattan(points[e.a as usize], points[e.b as usize])
            );
            uf.union(e.a as usize, e.b as usize);
        }
        assert_eq!(uf.components(), 1, "MST spans all points");
    }
}

#[test]
fn mst_weight_at_most_star_from_any_center() {
    let mut rng = rng_from_seed(0x6E03);
    for _ in 0..256 {
        let points = random_points(&mut rng, 2, 40);
        let center = rng.gen_range(0usize..points.len());
        let mst: u64 = mst_prim(&points).iter().map(|e| e.weight).sum();
        let star: u64 = points.iter().map(|&p| manhattan(points[center], p)).sum();
        assert!(mst <= star, "MST ({mst}) no heavier than star ({star})");
    }
}

#[test]
fn mst_respects_cut_property_lower_bound() {
    let mut rng = rng_from_seed(0x6E04);
    for _ in 0..256 {
        // Any spanning tree weighs at least (n-1) × min pairwise distance.
        let points = random_points(&mut rng, 2, 30);
        let n = points.len();
        let mut min_d = u64::MAX;
        for i in 0..n {
            for j in i + 1..n {
                min_d = min_d.min(manhattan(points[i], points[j]));
            }
        }
        let mst: u64 = mst_prim(&points).iter().map(|e| e.weight).sum();
        assert!(mst >= (n as u64 - 1) * min_d);
    }
}

#[test]
fn limited_mst_never_beats_unrestricted() {
    let mut rng = rng_from_seed(0x6E05);
    for _ in 0..256 {
        let n = rng.gen_range(2usize..40);
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range(-200i64..200), rng.gen_range(0i64..6)))
            .collect();
        let rows: Vec<i64> = pts.iter().map(|p| p.y).collect();
        let limited = mst_adjacency_limited(&pts, &rows);
        if limited.spanning {
            let free: u64 = mst_prim(&pts).iter().map(|e| e.weight).sum();
            let restricted: u64 = limited.edges.iter().map(|e| e.weight).sum();
            assert!(
                restricted >= free,
                "restriction cannot help: {restricted} < {free}"
            );
            // And every edge obeys the adjacency restriction.
            for e in &limited.edges {
                assert!((rows[e.a as usize] - rows[e.b as usize]).abs() <= 1);
            }
        }
    }
}

#[test]
fn limited_mst_equals_one_sort_of_every_admissible_pair() {
    // The oracle is the kernel as it was before it pruned: every same-row
    // and adjacent-row pair (lower row first, then lower index), one sort
    // by `(weight, a, b)`, one Kruskal pass. The pruning rule turns on
    // ties, so the column count is drawn from 2, 3 (column groups of
    // five and more), 6 and 200; every third round leaves the odd rows
    // empty, so the answer is a forest; half the inputs arrive
    // `(row, x)`-sorted, as Connect hands them over.
    let mut rng = rng_from_seed(0x6E08);
    for round in 0..5000 {
        let n = match round % 10 {
            0 => rng.gen_range(2usize..300),
            _ => rng.gen_range(2usize..60),
        };
        let cols = [2, 3, 6, 200][rng.gen_range(0usize..4)];
        let row_step = if round % 3 == 0 { 2 } else { 1 };
        let mut nodes: Vec<(i64, i64)> = (0..n)
            .map(|_| (rng.gen_range(0i64..5) * row_step, rng.gen_range(0i64..cols)))
            .collect();
        if rng.gen_range(0..2) == 1 {
            nodes.sort_unstable();
        }
        let rows: Vec<i64> = nodes.iter().map(|&(r, _)| r).collect();
        let pts: Vec<Point> = nodes.iter().map(|&(r, x)| Point::new(x, r)).collect();
        let mut all = Vec::new();
        for a in 0..n {
            for b in 0..n {
                if (rows[a] == rows[b] && a < b) || rows[a] + 1 == rows[b] {
                    all.push((manhattan(pts[a], pts[b]), a as u32, b as u32));
                }
            }
        }
        all.sort_unstable();
        let mut uf = UnionFind::new(n);
        all.retain(|&(_, a, b)| uf.union(a as usize, b as usize));

        let got = mst_adjacency_limited(&pts, &rows);
        let got_keys: Vec<_> = got.edges.iter().map(|e| (e.weight, e.a, e.b)).collect();
        assert_eq!(got_keys, all, "round {round}, n {n}, cols {cols}");
        assert_eq!(got.spanning, all.len() == n - 1);
    }
}

#[test]
fn bbox_contains_all_inputs() {
    let mut rng = rng_from_seed(0x6E06);
    for _ in 0..256 {
        let points = random_points(&mut rng, 1, 50);
        let bb = BBox::from_points(points.iter().copied());
        for &p in &points {
            assert!(bb.contains(p));
        }
    }
}

#[test]
fn unionfind_matches_naive_labels() {
    let mut rng = rng_from_seed(0x6E07);
    for _ in 0..128 {
        let n = rng.gen_range(1usize..50);
        let n_unions = rng.gen_range(0usize..80);
        let mut uf = UnionFind::new(n);
        let mut labels: Vec<usize> = (0..n).collect();
        for _ in 0..n_unions {
            let (a, b) = (rng.gen_range(0usize..n), rng.gen_range(0usize..n));
            uf.union(a, b);
            let (la, lb) = (labels[a], labels[b]);
            if la != lb {
                for l in labels.iter_mut() {
                    if *l == lb {
                        *l = la;
                    }
                }
            }
        }
        let naive_components = labels
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len();
        assert_eq!(uf.components(), naive_components);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(
                    uf.find(i) == uf.find(j),
                    labels[i] == labels[j],
                    "pair ({i}, {j})"
                );
            }
        }
    }
}
