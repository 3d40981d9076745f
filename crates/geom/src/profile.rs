//! Column-indexed congestion profiles.
//!
//! A routing channel's *density* at column `x` is the number of horizontal
//! wire spans covering `x`; the channel needs `max_x density(x)` tracks.
//! The TimberWolf coarse router and the switchable-segment optimizer both
//! evaluate "what does the peak density become if this span moves here?"
//! millions of times, so the profile is a range-add / range-max segment
//! tree: span insertion, removal, and hypothetical-peak queries are all
//! O(log W) in the channel width W.
//!
//! **Layout.** One vector of exactly `2·W − 1` node maxima in preorder:
//! the node over `lo..=hi` at index `i` has its left child (`lo..=mid`) at
//! `i + 1` and its right child just past the left subtree, at
//! `i + 2·(mid − lo + 1)`; the root is index 0. Any width splits this way,
//! so there is no padding and every leaf is a real column.
//!
//! **Pending adds are derived, not stored.** An add covering a node's whole
//! span stops there and raises that node only, so an internal node always
//! holds `max(left, right) + pending`: the pending add is the node minus
//! its larger child, and a second per-node vector would only repeat it.
//! Nothing is pushed down, which is why queries take `&self`.
//!
//! **Bulk load.** Loading a span list one [`DensityProfile::add_span`] at
//! a time costs O(log W) a span, into a tree that is empty.
//! [`DensityProfile::load_spans`] stages each span in O(1) as a difference
//! (`+delta` at `lo`, `−delta` past `hi`) in the first `W` slots of the
//! profile's own vector — free while the profile is all zero — then, per
//! profile, one prefix sum moves the column densities into a `W`-long
//! scratch shared by every profile of the call, and one pass (`settle`)
//! writes each leaf its column and each internal node the larger of its
//! children. A node that holds exactly `max(left, right)` has no add
//! pending, so the loaded profile answers every later update and query as
//! the span-by-span one does: their nodes may differ, their columns do not.
//! [`DensityProfile::merge_counts`] is the same pass over a profile that is
//! not empty, carrying each node's pending add down to the leaves on the way.

/// A density profile over columns `0..width`.
///
/// ```
/// use pgr_geom::DensityProfile;
/// let mut p = DensityProfile::new(64);
/// p.add_span(10, 40, 1);
/// p.add_span(30, 50, 1);
/// assert_eq!(p.max(), 2);                  // the spans overlap on [30, 40]
/// assert_eq!(p.max_if_added(0, 9), 2);     // adding off-peak changes nothing
/// assert_eq!(p.max_if_added(35, 36), 3);   // adding on-peak raises it
/// ```
#[derive(Debug, Clone)]
pub struct DensityProfile {
    width: usize,
    /// Node maxima in preorder, `2 * width - 1` of them (see the module doc).
    tree: Vec<i64>,
}

impl DensityProfile {
    /// An all-zero profile over `width` columns. `width` must be > 0.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "DensityProfile needs at least one column");
        DensityProfile {
            width,
            tree: vec![0; 2 * width - 1],
        }
    }

    pub fn width(&self) -> usize {
        self.width
    }

    /// Clamp an inclusive span to the profile and normalize ordering.
    fn clamp(&self, lo: i64, hi: i64) -> Option<(usize, usize)> {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let lo = lo.max(0);
        let hi = hi.min(self.width as i64 - 1);
        if lo > hi {
            None
        } else {
            Some((lo as usize, hi as usize))
        }
    }

    /// Add `delta` over the inclusive column span `[lo, hi]`.
    /// Spans are clamped to the profile; a fully out-of-range span or a
    /// zero delta is an exact no-op (the tree is untouched).
    /// `lo > hi` is treated as the span `[hi, lo]`.
    pub fn add_span(&mut self, lo: i64, hi: i64, delta: i64) {
        if delta == 0 {
            return;
        }
        if let Some((lo, hi)) = self.clamp(lo, hi) {
            self.update(0, 0, self.width - 1, lo, hi, delta);
        }
    }

    /// Current peak density over the whole channel.
    pub fn max(&self) -> i64 {
        self.tree[0]
    }

    /// Peak density over the inclusive span `[lo, hi]` (clamped).
    pub fn max_in(&self, lo: i64, hi: i64) -> i64 {
        match self.clamp(lo, hi) {
            Some((lo, hi)) => self.query(0, 0, self.width - 1, lo, hi),
            None => 0,
        }
    }

    /// Peak density the channel would have after adding a unit span over
    /// `[lo, hi]` — without mutating the profile.
    ///
    /// Correct because a unit add only raises columns inside the span:
    /// `new_max = max(old_global_max, span_max + 1)`.
    pub fn max_if_added(&self, lo: i64, hi: i64) -> i64 {
        if self.clamp(lo, hi).is_none() {
            return self.max();
        }
        self.max().max(self.max_in(lo, hi) + 1)
    }

    /// Density at a single column.
    pub fn at(&self, col: usize) -> i64 {
        assert!(col < self.width);
        self.query(0, 0, self.width - 1, col, col)
    }

    /// Materialize per-column densities (used when merging profiles across
    /// partition boundaries).
    pub fn counts(&self) -> Vec<i64> {
        let mut out = vec![0; self.width];
        self.counts_into(&mut out);
        out
    }

    /// Write per-column densities into a caller-owned buffer of length
    /// [`Self::width`] — the allocation-free twin of [`Self::counts`] for
    /// the assemble/verify hot path.
    pub fn counts_into(&self, out: &mut [i64]) {
        assert_eq!(out.len(), self.width, "counts_into buffer width mismatch");
        self.collect(0, 0, self.width - 1, 0, out);
    }

    /// Pointwise-add another profile's counts into this one, in one
    /// O(width) pass. Both profiles must have the same width.
    pub fn merge_counts(&mut self, counts: &[i64]) {
        assert_eq!(
            counts.len(),
            self.width,
            "merging mismatched profile widths"
        );
        self.settle(0, 0, self.width - 1, 0, counts);
    }

    /// Add every `(profile, lo, hi, delta)` of `spans` to `profiles`, all of
    /// them empty (as [`Self::new`] leaves them): the profiles one
    /// [`Self::add_span`] per span would give, clamping and all, in
    /// O(spans + Σ width) and one allocation, the size of the widest
    /// profile's columns (see the module doc). A `profile` index out of
    /// range panics.
    pub fn load_spans(
        profiles: &mut [DensityProfile],
        spans: impl IntoIterator<Item = (usize, i64, i64, i64)>,
    ) {
        debug_assert!(
            profiles.iter().all(|p| p.tree.iter().all(|&v| v == 0)),
            "load_spans needs empty profiles"
        );
        for (i, lo, hi, delta) in spans {
            let p = &mut profiles[i];
            if let Some((lo, hi)) = p.clamp(lo, hi) {
                p.tree[lo] += delta;
                if hi + 1 < p.width {
                    p.tree[hi + 1] -= delta;
                }
            }
        }
        let widest = profiles.iter().map(|p| p.width).max().unwrap_or(0);
        let mut scratch = vec![0i64; widest];
        for p in profiles {
            let counts = &mut scratch[..p.width];
            let mut density = 0;
            for (diff, count) in p.tree.iter_mut().zip(counts.iter_mut()) {
                density += std::mem::take(diff);
                *count = density;
            }
            p.settle(0, 0, p.width - 1, 0, counts);
        }
    }

    /// Split the internal node `node` over `nlo..=nhi`: the last column of
    /// its left half, its left and right children, and the addition pending
    /// on it — what it holds above the larger child.
    fn split(&self, node: usize, nlo: usize, nhi: usize) -> (usize, usize, usize, i64) {
        let mid = (nlo + nhi) / 2;
        let (left, right) = (node + 1, node + 2 * (mid - nlo + 1));
        let pending = self.tree[node] - self.tree[left].max(self.tree[right]);
        (mid, left, right, pending)
    }

    /// Rebuild the subtree of `node` over `nlo..=nhi` with no add pending
    /// anywhere in it: every leaf takes `acc` (the adds pending above it),
    /// the adds pending on its way down and `add[column]`, every internal
    /// node the larger of its children. Returns the node's new maximum.
    fn settle(&mut self, node: usize, nlo: usize, nhi: usize, acc: i64, add: &[i64]) -> i64 {
        let max = if nlo == nhi {
            self.tree[node] + acc + add[nlo]
        } else {
            let (mid, left, right, pending) = self.split(node, nlo, nhi);
            let l = self.settle(left, nlo, mid, acc + pending, add);
            let r = self.settle(right, mid + 1, nhi, acc + pending, add);
            l.max(r)
        };
        self.tree[node] = max;
        max
    }

    fn update(&mut self, node: usize, nlo: usize, nhi: usize, lo: usize, hi: usize, delta: i64) {
        if lo <= nlo && nhi <= hi {
            self.tree[node] += delta;
            return;
        }
        let (mid, left, right, pending) = self.split(node, nlo, nhi);
        if lo <= mid {
            self.update(left, nlo, mid, lo, hi.min(mid), delta);
        }
        if hi > mid {
            self.update(right, mid + 1, nhi, lo.max(mid + 1), hi, delta);
        }
        self.tree[node] = self.tree[left].max(self.tree[right]) + pending;
    }

    fn query(&self, node: usize, nlo: usize, nhi: usize, lo: usize, hi: usize) -> i64 {
        if lo <= nlo && nhi <= hi {
            return self.tree[node];
        }
        let (mid, left, right, pending) = self.split(node, nlo, nhi);
        let mut m = i64::MIN;
        if lo <= mid {
            m = m.max(self.query(left, nlo, mid, lo, hi.min(mid)));
        }
        if hi > mid {
            m = m.max(self.query(right, mid + 1, nhi, lo.max(mid + 1), hi));
        }
        m + pending
    }

    fn collect(&self, node: usize, nlo: usize, nhi: usize, acc: i64, out: &mut [i64]) {
        if nlo == nhi {
            out[nlo] = acc + self.tree[node];
            return;
        }
        let (mid, left, right, pending) = self.split(node, nlo, nhi);
        self.collect(left, nlo, mid, acc + pending, out);
        self.collect(right, mid + 1, nhi, acc + pending, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_profile_is_zero() {
        let p = DensityProfile::new(16);
        assert_eq!(p.max(), 0);
        assert_eq!(p.at(7), 0);
        assert_eq!(p.counts(), vec![0; 16]);
    }

    #[test]
    fn single_span_raises_max() {
        let mut p = DensityProfile::new(10);
        p.add_span(2, 5, 1);
        assert_eq!(p.max(), 1);
        assert_eq!(p.at(2), 1);
        assert_eq!(p.at(5), 1);
        assert_eq!(p.at(6), 0);
        assert_eq!(p.max_in(6, 9), 0);
    }

    #[test]
    fn overlapping_spans_stack() {
        let mut p = DensityProfile::new(10);
        p.add_span(0, 4, 1);
        p.add_span(3, 9, 1);
        p.add_span(3, 3, 1);
        assert_eq!(p.max(), 3);
        assert_eq!(p.at(3), 3);
        assert_eq!(p.at(4), 2);
    }

    #[test]
    fn removal_restores() {
        let mut p = DensityProfile::new(8);
        p.add_span(0, 7, 1);
        p.add_span(2, 4, 1);
        assert_eq!(p.max(), 2);
        p.add_span(2, 4, -1);
        assert_eq!(p.max(), 1);
        p.add_span(0, 7, -1);
        assert_eq!(p.max(), 0);
        assert_eq!(p.counts(), vec![0; 8]);
    }

    #[test]
    fn max_if_added_matches_actual_add() {
        let mut p = DensityProfile::new(12);
        p.add_span(0, 3, 2);
        p.add_span(8, 11, 5);
        let predicted = p.max_if_added(2, 9);
        p.add_span(2, 9, 1);
        assert_eq!(predicted, p.max());
    }

    #[test]
    fn spans_are_clamped() {
        let mut p = DensityProfile::new(4);
        p.add_span(-10, 100, 1);
        assert_eq!(p.max(), 1);
        assert_eq!(p.counts(), vec![1; 4]);
        p.add_span(50, 60, 1); // entirely outside: no-op
        assert_eq!(p.max(), 1);
        assert_eq!(p.max_if_added(50, 60), 1);
    }

    #[test]
    fn reversed_span_is_normalized() {
        let mut p = DensityProfile::new(8);
        p.add_span(5, 2, 1);
        assert_eq!(p.at(2), 1);
        assert_eq!(p.at(5), 1);
        assert_eq!(p.at(6), 0);
    }

    #[test]
    fn merge_counts_adds_pointwise() {
        let mut a = DensityProfile::new(6);
        a.add_span(0, 2, 1);
        let mut b = DensityProfile::new(6);
        b.add_span(2, 5, 3);
        a.merge_counts(&b.counts());
        assert_eq!(a.counts(), vec![1, 1, 4, 3, 3, 3]);
        assert_eq!(a.max(), 4);
    }

    #[test]
    fn non_power_of_two_width() {
        let mut p = DensityProfile::new(13);
        p.add_span(0, 12, 1);
        assert_eq!(p.max(), 1);
        assert_eq!(p.counts().len(), 13);
        assert!(p.counts().iter().all(|&c| c == 1));
    }

    #[test]
    fn all_negative_profile_reports_negative_max() {
        // Contract: the max is over real columns only — nothing outside
        // `0..width` may clamp an all-negative profile's max at 0.
        let mut p = DensityProfile::new(3);
        p.add_span(0, 2, -1);
        assert_eq!(p.max(), -1);
        assert_eq!(p.max_in(0, 2), -1);
        assert_eq!(
            p.max_if_added(10, 10),
            -1,
            "out-of-range hypothetical keeps the real max"
        );
        assert_eq!(p.counts(), vec![-1, -1, -1]);
        p.add_span(1, 1, 3);
        assert_eq!(p.max(), 2);
    }

    #[test]
    fn width_one() {
        let mut p = DensityProfile::new(1);
        p.add_span(0, 0, 7);
        assert_eq!(p.max(), 7);
        assert_eq!(p.counts(), vec![7]);
    }

    #[test]
    fn counts_into_matches_counts() {
        let mut p = DensityProfile::new(13);
        p.add_span(1, 6, 2);
        p.add_span(4, 12, -1);
        let mut buf = vec![0i64; 13];
        p.counts_into(&mut buf);
        assert_eq!(buf, p.counts());
    }

    #[test]
    fn counts_into_overwrites_stale_buffer() {
        let mut p = DensityProfile::new(5);
        p.add_span(1, 3, 1);
        let mut buf = vec![99i64; 5];
        p.counts_into(&mut buf);
        assert_eq!(buf, vec![0, 1, 1, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn counts_into_rejects_wrong_width() {
        let p = DensityProfile::new(5);
        let mut buf = vec![0i64; 4];
        p.counts_into(&mut buf);
    }

    #[test]
    fn zero_delta_span_is_exact_noop() {
        let mut p = DensityProfile::new(11);
        p.add_span(2, 9, 3);
        let before = p.clone();
        p.add_span(0, 10, 0);
        p.add_span(4, 4, 0);
        p.add_span(-5, 50, 0);
        assert_eq!(p.tree, before.tree, "zero delta must not touch the tree");
    }

    #[test]
    fn fully_clamped_span_is_exact_noop() {
        let mut p = DensityProfile::new(11);
        p.add_span(3, 7, 2);
        let before = p.clone();
        p.add_span(11, 20, 1); // starts exactly at width
        p.add_span(-9, -1, 1); // ends exactly before 0
        p.add_span(i64::MAX - 1, i64::MAX, 1);
        assert_eq!(
            p.tree, before.tree,
            "clamped-away spans must not touch the tree"
        );
    }

    /// Widths either side of a power of two, and avq.large's chip.
    const WIDTHS: [usize; 13] = [1, 2, 3, 7, 13, 16, 27, 100, 255, 256, 257, 1_000, 8_365];

    #[test]
    fn one_vector_of_two_width_minus_one_nodes() {
        for width in WIDTHS {
            let p = DensityProfile::new(width);
            assert_eq!(p.tree.len(), 2 * width - 1, "width {width}");
            assert_eq!(p.tree.capacity(), p.tree.len(), "width {width}");
        }
    }

    /// Every observable of `a` equals `b`'s: the peak, each column, the
    /// materialized counts, and unclamped `max_in` / `max_if_added` probes.
    fn assert_same_observables(a: &DensityProfile, b: &DensityProfile, seed: u64, ctx: &str) {
        let mut rng = crate::rng::rng_from_seed(seed);
        let w = a.width() as i64;
        assert_eq!(a.width(), b.width(), "{ctx}");
        assert_eq!(a.max(), b.max(), "{ctx}");
        assert_eq!(a.counts(), b.counts(), "{ctx}");
        for col in 0..a.width() {
            assert_eq!(a.at(col), b.at(col), "{ctx} column {col}");
        }
        for _ in 0..64 {
            let lo = rng.gen_range(-w - 2..=2 * w + 2);
            let hi = rng.gen_range(-w - 2..=2 * w + 2);
            assert_eq!(a.max_in(lo, hi), b.max_in(lo, hi), "{ctx} [{lo}, {hi}]");
            assert_eq!(
                a.max_if_added(lo, hi),
                b.max_if_added(lo, hi),
                "{ctx} [{lo}, {hi}]"
            );
        }
    }

    /// Seeded spans over three profiles of `width` columns: clamped at
    /// either end, inverted, single-column, fully out of range, and of
    /// zero and negative delta.
    fn seeded_spans(width: usize, seed: u64, n: usize) -> Vec<(usize, i64, i64, i64)> {
        let mut rng = crate::rng::rng_from_seed(seed);
        let w = width as i64;
        (0..n)
            .map(|k| {
                let lo = rng.gen_range(-w - 2..=2 * w + 2);
                let hi = match k % 4 {
                    0 => lo, // single column (or none, out of range)
                    _ => rng.gen_range(-w - 2..=2 * w + 2),
                };
                (rng.gen_range(0..3usize), lo, hi, rng.gen_range(-2..=3i64))
            })
            .collect()
    }

    /// The bulk load is the `add_span` loop: same observables right after
    /// it, and — what catches a node left with a pending add, or a staged
    /// difference left behind — after a further round of adds and
    /// removals, a `merge_counts`, and another round, applied to both.
    #[test]
    fn load_spans_matches_the_add_span_loop() {
        for width in WIDTHS {
            let seed = 0xB01C_0000 + width as u64;
            let fresh = || vec![DensityProfile::new(width); 3];
            let spans = seeded_spans(width, seed, 300);
            let w = width as i64;
            type Kind = fn(i64, i64, i64, i64) -> bool;
            let kinds: [(&str, Kind); 6] = [
                ("clamped", |w, lo, hi, _| lo < 0 && (0..w).contains(&hi)),
                ("inverted", |_, lo, hi, _| lo > hi),
                ("single-column", |w, lo, hi, _| {
                    lo == hi && (0..w).contains(&lo)
                }),
                ("out-of-range", |w, lo, hi, _| {
                    lo.min(hi) >= w || lo.max(hi) < 0
                }),
                ("zero-delta", |_, _, _, delta| delta == 0),
                ("negative-delta", |_, _, _, delta| delta < 0),
            ];
            for (kind, is) in kinds {
                assert!(
                    spans.iter().any(|&(_, lo, hi, delta)| is(w, lo, hi, delta)),
                    "width {width}: no {kind} span in the seeded set"
                );
            }
            let (mut bulk, mut looped) = (fresh(), fresh());
            DensityProfile::load_spans(&mut bulk, spans.iter().copied());
            for &(i, lo, hi, delta) in &spans {
                looped[i].add_span(lo, hi, delta);
            }
            let same = |bulk: &[DensityProfile], looped: &[DensityProfile], stage: &str| {
                for (i, (a, b)) in bulk.iter().zip(looped).enumerate() {
                    assert_same_observables(
                        a,
                        b,
                        seed + i as u64,
                        &format!("width {width} profile {i} {stage}"),
                    );
                }
            };
            same(&bulk, &looped, "after the load");
            // Nothing pending anywhere in a loaded profile: each internal
            // node is exactly the larger of its children.
            for p in &bulk {
                let mut stack = vec![(0, 0, width - 1)];
                while let Some((node, nlo, nhi)) = stack.pop() {
                    if nlo < nhi {
                        let (mid, left, right, pending) = p.split(node, nlo, nhi);
                        assert_eq!(pending, 0, "width {width} node {node}");
                        stack.extend([(left, nlo, mid), (right, mid + 1, nhi)]);
                    }
                }
            }
            for (round, stage) in ["after more adds", "after the merge and more adds"]
                .iter()
                .enumerate()
            {
                if round == 1 {
                    // The reference merge is the point-update loop
                    // `merge_counts` used to be.
                    let counts: Vec<i64> = (0..width as i64).map(|c| (c * 7 + 3) % 5 - 2).collect();
                    for (a, b) in bulk.iter_mut().zip(looped.iter_mut()) {
                        a.merge_counts(&counts);
                        for (col, &c) in counts.iter().enumerate() {
                            b.add_span(col as i64, col as i64, c);
                        }
                    }
                    same(&bulk, &looped, "after the merge");
                }
                for &(i, lo, hi, delta) in &seeded_spans(width, seed + 17 + round as u64, 120) {
                    bulk[i].add_span(lo, hi, delta);
                    looped[i].add_span(lo, hi, delta);
                }
                same(&bulk, &looped, stage);
            }
        }
    }

    #[test]
    fn load_spans_of_nothing_leaves_empty_profiles() {
        let mut ps = vec![DensityProfile::new(5), DensityProfile::new(1)];
        DensityProfile::load_spans(&mut ps, []);
        assert!(ps.iter().all(|p| p.tree.iter().all(|&v| v == 0)));
        DensityProfile::load_spans(&mut [], []);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn load_spans_rejects_a_profile_out_of_range() {
        let mut ps = vec![DensityProfile::new(4); 2];
        DensityProfile::load_spans(&mut ps, [(2, 0, 1, 1)]);
    }

    /// Property check against a naive dense model: random spans (including
    /// reversed, out-of-range, and zero-delta ones) at non-power-of-two
    /// widths must agree with per-column bookkeeping on every observable.
    #[test]
    fn random_spans_match_naive_model() {
        use crate::rng::rng_from_seed;
        for width in WIDTHS {
            let mut rng = rng_from_seed(0x5EED_0000 + width as u64);
            let mut p = DensityProfile::new(width);
            let mut naive = vec![0i64; width];
            let w = width as i64;
            for step in 0..400 {
                let lo = rng.gen_range(-w - 2..=2 * w + 2);
                let hi = rng.gen_range(-w - 2..=2 * w + 2);
                let delta = rng.gen_range(-2..=2i64);
                p.add_span(lo, hi, delta);
                let (nlo, nhi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
                for (col, v) in naive.iter_mut().enumerate() {
                    if nlo <= col as i64 && col as i64 <= nhi {
                        *v += delta;
                    }
                }
                let naive_max = *naive.iter().max().expect("width > 0");
                assert_eq!(p.max(), naive_max, "width {width} step {step}");
                let mut buf = vec![0i64; width];
                p.counts_into(&mut buf);
                assert_eq!(buf, naive, "width {width} step {step}");
                let col = rng.gen_range(0..width);
                assert_eq!(p.at(col), naive[col], "width {width} step {step}");
                // Random max_in / max_if_added probes, again unclamped.
                let qlo = rng.gen_range(-w - 2..=2 * w + 2);
                let qhi = rng.gen_range(-w - 2..=2 * w + 2);
                let (cl, ch) = if qlo <= qhi { (qlo, qhi) } else { (qhi, qlo) };
                let in_range: Vec<i64> = naive
                    .iter()
                    .enumerate()
                    .filter(|(c, _)| cl <= *c as i64 && *c as i64 <= ch)
                    .map(|(_, &v)| v)
                    .collect();
                if in_range.is_empty() {
                    assert_eq!(p.max_in(qlo, qhi), 0, "clamped-away query is 0");
                    assert_eq!(
                        p.max_if_added(qlo, qhi),
                        naive_max,
                        "out-of-range hypothetical keeps the real max"
                    );
                } else {
                    let span_max = *in_range.iter().max().expect("non-empty");
                    assert_eq!(p.max_in(qlo, qhi), span_max);
                    assert_eq!(p.max_if_added(qlo, qhi), naive_max.max(span_max + 1));
                }
            }
        }
    }
}
