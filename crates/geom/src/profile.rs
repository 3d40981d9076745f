//! Column-indexed congestion profiles.
//!
//! A routing channel's *density* at column `x` is the number of horizontal
//! wire spans covering `x`; the channel needs `max_x density(x)` tracks.
//! The TimberWolf coarse router and the switchable-segment optimizer both
//! evaluate "what does the peak density become if this span moves here?"
//! millions of times.
//!
//! **Layout.** The columns themselves: one vector of exactly `W` densities,
//! plus the peak and `npeak`, the number of columns at the peak. Every
//! operation leaves both exact.
//!
//! **Costs.** [`DensityProfile::max`] is O(1). An update
//! ([`DensityProfile::add_span`]) and a query over a span
//! ([`DensityProfile::max_in`], [`DensityProfile::max_if_added`],
//! [`DensityProfile::max_if_removed`]) scan the span's own columns:
//! O(span). The one O(W) step is a decrement that takes the last peak
//! column below the peak, after which the new peak may be anywhere and the
//! profile recounts. The count is what makes a withdrawal a count instead
//! of a search: removing a unit span lowers the peak exactly when the span
//! holds every peak column.
//!
//! **Why a scan beats a tree here.** A range-add / range-max tree would
//! answer each of these in O(log W), but a walk is a chain of dependent
//! loads and branches, while the spans the router scores are short and
//! contiguous. Coarse's profiles are `width / grid_w` columns, built
//! before feedthroughs widen the chip: 288 on avq.large and 863 at 100k
//! nets, and a scored span covers 11.2 and 24.9 of them on average.
//!
//! **Bulk load.** [`DensityProfile::load_spans`] stages each span in O(1)
//! as a difference (`+delta` at `lo`, `−delta` past `hi`) in the empty
//! profile's own columns; per profile, one in-place prefix sum turns the
//! differences into densities and one pass recounts the peak — O(spans +
//! Σ W), nothing allocated. [`DensityProfile::merge_counts`] is a
//! pointwise add and the same recount.

/// The largest of `cols`, `None` when empty: the same value as
/// `cols.iter().max()`, kept in eight independent lanes. A single running
/// maximum is a chain of dependent compare-and-selects (an i64 maximum
/// does not vectorize on baseline x86-64); eight chains run side by side.
fn lane_max(cols: &[i64]) -> Option<i64> {
    let mut lanes = [i64::MIN; 8];
    let mut chunks = cols.chunks_exact(8);
    for chunk in &mut chunks {
        for (lane, &c) in lanes.iter_mut().zip(chunk) {
            *lane = (*lane).max(c);
        }
    }
    let tail = chunks.remainder().iter().copied();
    (!cols.is_empty()).then(|| lanes.into_iter().chain(tail).fold(i64::MIN, i64::max))
}

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
/// assert_eq!(p.max_if_removed(10, 40), 1); // [10, 40] holds the whole peak
/// ```
#[derive(Debug, Clone)]
pub struct DensityProfile {
    /// The density of each column, exactly `width` of them.
    cols: Vec<i64>,
    /// The largest density.
    peak: i64,
    /// How many columns hold `peak` (at least one).
    npeak: usize,
}

impl DensityProfile {
    /// An all-zero profile over `width` columns. `width` must be > 0.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "DensityProfile needs at least one column");
        DensityProfile {
            cols: vec![0; width],
            peak: 0,
            npeak: width,
        }
    }

    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Clamp an inclusive span to the profile and normalize ordering.
    fn clamp(&self, lo: i64, hi: i64) -> Option<(usize, usize)> {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let lo = lo.max(0);
        let hi = hi.min(self.cols.len() as i64 - 1);
        if lo > hi {
            None
        } else {
            Some((lo as usize, hi as usize))
        }
    }

    /// The columns of an inclusive span (clamped; empty if none remain).
    fn cols_in(&self, lo: i64, hi: i64) -> &[i64] {
        match self.clamp(lo, hi) {
            Some((lo, hi)) => &self.cols[lo..=hi],
            None => &[],
        }
    }

    /// Set the peak and its count from the columns, in O(width).
    fn recount(&mut self) {
        let peak = lane_max(&self.cols).expect("width > 0");
        self.npeak = self.cols.iter().filter(|&&c| c == peak).count();
        self.peak = peak;
    }

    /// Add `delta` over the inclusive column span `[lo, hi]`.
    /// Spans are clamped to the profile; a fully out-of-range span or a
    /// zero delta is an exact no-op (the profile is untouched).
    /// `lo > hi` is treated as the span `[hi, lo]`.
    pub fn add_span(&mut self, lo: i64, hi: i64, delta: i64) {
        if delta == 0 {
            return;
        }
        let Some((lo, hi)) = self.clamp(lo, hi) else {
            return;
        };
        let span = &mut self.cols[lo..=hi];
        if delta > 0 {
            let mut top = i64::MIN;
            for c in span.iter_mut() {
                *c += delta;
                top = top.max(*c);
            }
            // A column that held the peak now stands above it, so a span
            // top equal to the peak is made only of columns that rose to it.
            if top >= self.peak {
                let at_top = span.iter().filter(|&&c| c == top).count();
                if top > self.peak {
                    (self.peak, self.npeak) = (top, at_top);
                } else {
                    self.npeak += at_top;
                }
            }
        } else {
            let mut dropped = 0;
            for c in span.iter_mut() {
                dropped += usize::from(*c == self.peak);
                *c += delta;
            }
            if dropped == self.npeak {
                self.recount();
            } else {
                self.npeak -= dropped;
            }
        }
    }

    /// Current peak density over the whole channel.
    pub fn max(&self) -> i64 {
        self.peak
    }

    /// Peak density over the inclusive span `[lo, hi]` (clamped; 0 when
    /// no column remains).
    pub fn max_in(&self, lo: i64, hi: i64) -> i64 {
        self.cols_in(lo, hi).iter().copied().max().unwrap_or(0)
    }

    /// Peak density the channel would have after adding a unit span over
    /// `[lo, hi]` — without mutating the profile.
    ///
    /// Correct because a unit add only raises columns inside the span:
    /// `new_max = max(old_global_max, span_max + 1)`.
    pub fn max_if_added(&self, lo: i64, hi: i64) -> i64 {
        match lane_max(self.cols_in(lo, hi)) {
            Some(span_max) => self.peak.max(span_max + 1),
            None => self.peak,
        }
    }

    /// Peak density the channel would have after withdrawing a unit span
    /// over `[lo, hi]` — `add_span(lo, hi, -1)` then [`Self::max`], without
    /// mutating the profile.
    ///
    /// Correct because densities are integers: every column outside the
    /// span is at most `peak − 1` when the span holds all `npeak` peak
    /// columns, so the peak drops by one then; otherwise a peak column
    /// outside the span keeps it.
    pub fn max_if_removed(&self, lo: i64, hi: i64) -> i64 {
        let at_peak = self.cols_in(lo, hi).iter().filter(|&&c| c == self.peak);
        self.peak - i64::from(at_peak.count() == self.npeak)
    }

    /// Density at a single column.
    pub fn at(&self, col: usize) -> i64 {
        self.cols[col]
    }

    /// Materialize per-column densities (used when merging profiles across
    /// partition boundaries).
    pub fn counts(&self) -> Vec<i64> {
        self.cols.clone()
    }

    /// Pointwise-add another profile's counts into this one, in one
    /// O(width) pass. Both profiles must have the same width.
    pub fn merge_counts(&mut self, counts: &[i64]) {
        assert_eq!(
            counts.len(),
            self.width(),
            "merging mismatched profile widths"
        );
        for (c, add) in self.cols.iter_mut().zip(counts) {
            *c += add;
        }
        self.recount();
    }

    /// Add every `(profile, lo, hi, delta)` of `spans` to `profiles`, all of
    /// them empty (as [`Self::new`] leaves them): the profiles one
    /// [`Self::add_span`] per span would give, clamping and all, in
    /// O(spans + Σ width) and no allocation (see the module doc). A
    /// `profile` index out of range panics.
    pub fn load_spans(
        profiles: &mut [DensityProfile],
        spans: impl IntoIterator<Item = (usize, i64, i64, i64)>,
    ) {
        debug_assert!(
            profiles.iter().all(|p| p.peak == 0 && p.npeak == p.width()),
            "load_spans needs empty profiles"
        );
        for (i, lo, hi, delta) in spans {
            let p = &mut profiles[i];
            if let Some((lo, hi)) = p.clamp(lo, hi) {
                p.cols[lo] += delta;
                if let Some(past) = p.cols.get_mut(hi + 1) {
                    *past -= delta;
                }
            }
        }
        for p in profiles {
            let mut density = 0;
            for c in &mut p.cols {
                density += *c;
                *c = density;
            }
            p.recount();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DensityProfile {
        /// The invariant every operation keeps: `peak` is the largest
        /// column and `npeak` counts the columns that hold it.
        fn check(&self) {
            let max = *self.cols.iter().max().expect("width > 0");
            let at_max = self.cols.iter().filter(|&&c| c == max).count();
            assert_eq!((self.peak, self.npeak), (max, at_max), "{:?}", self.cols);
        }

        fn state(&self) -> (&[i64], i64, usize) {
            (&self.cols, self.peak, self.npeak)
        }
    }

    #[test]
    fn empty_profile_is_zero() {
        let p = DensityProfile::new(16);
        p.check();
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
    fn lane_max_is_the_maximum_at_every_length() {
        let cols: Vec<i64> = (0..40).map(|i| (i * 37 % 23) - 11).collect();
        for lo in 0..3 {
            for hi in lo..=cols.len() {
                let c = &cols[lo..hi];
                assert_eq!(lane_max(c), c.iter().copied().max(), "cols[{lo}..{hi}]");
            }
        }
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
        assert_eq!(p.max_if_removed(50, 60), 1);
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
        a.check();
        assert_eq!(a.counts(), vec![1, 1, 4, 3, 3, 3]);
        assert_eq!(a.max(), 4);
        // A merge that lowers every column below the old peak.
        a.merge_counts(&[-2, -2, -5, -4, -4, -4]);
        a.check();
        assert_eq!(a.state(), (&[-1, -1, -1, -1, -1, -1][..], -1, 6));
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
        p.check();
        assert_eq!(p.max(), -1);
        assert_eq!(p.max_in(0, 2), -1);
        assert_eq!(
            p.max_if_added(10, 10),
            -1,
            "out-of-range hypothetical keeps the real max"
        );
        assert_eq!(p.max_if_removed(0, 2), -2);
        assert_eq!(p.counts(), vec![-1, -1, -1]);
        p.add_span(1, 1, 3);
        p.check();
        assert_eq!(p.max(), 2);
        p.add_span(0, 1, -4);
        p.check();
        assert_eq!(p.state(), (&[-5, -2, -1][..], -1, 1));
    }

    #[test]
    fn width_one() {
        let mut p = DensityProfile::new(1);
        p.add_span(0, 0, 7);
        p.check();
        assert_eq!(p.max(), 7);
        assert_eq!(p.max_if_removed(0, 0), 6);
        assert_eq!(p.counts(), vec![7]);
        p.add_span(-3, 3, -9);
        p.check();
        assert_eq!(p.state(), (&[-2][..], -2, 1));
    }

    #[test]
    fn zero_delta_span_is_exact_noop() {
        let mut p = DensityProfile::new(11);
        p.add_span(2, 9, 3);
        let before = p.clone();
        p.add_span(0, 10, 0);
        p.add_span(4, 4, 0);
        p.add_span(-5, 50, 0);
        assert_eq!(p.state(), before.state(), "zero delta must not touch it");
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
            p.state(),
            before.state(),
            "clamped-away spans must not touch it"
        );
    }

    /// Widths either side of a power of two, and avq.large's chip.
    const WIDTHS: [usize; 13] = [1, 2, 3, 7, 13, 16, 27, 100, 255, 256, 257, 1_000, 8_365];

    #[test]
    fn one_vector_of_width_columns() {
        for width in WIDTHS {
            let p = DensityProfile::new(width);
            assert_eq!(p.cols.len(), width, "width {width}");
            assert_eq!(p.cols.capacity(), width, "width {width}");
            p.check();
        }
    }

    /// Every observable of `a` equals `b`'s: the peak, each column, the
    /// materialized counts, and unclamped `max_in` / `max_if_added` /
    /// `max_if_removed` probes.
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
            assert_eq!(
                a.max_if_removed(lo, hi),
                b.max_if_removed(lo, hi),
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
    /// it, and — what catches a staged difference left behind or a peak
    /// count gone stale — after a further round of adds and removals, a
    /// `merge_counts`, and another round, applied to both.
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
                    a.check();
                    b.check();
                    assert_same_observables(
                        a,
                        b,
                        seed + i as u64,
                        &format!("width {width} profile {i} {stage}"),
                    );
                }
            };
            same(&bulk, &looped, "after the load");
            for (round, stage) in ["after more adds", "after the merge and more adds"]
                .iter()
                .enumerate()
            {
                if round == 1 {
                    // The reference merge is a point-update loop.
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
                    bulk[i].check();
                }
                same(&bulk, &looped, stage);
            }
        }
    }

    #[test]
    fn load_spans_of_nothing_leaves_empty_profiles() {
        let mut ps = vec![DensityProfile::new(5), DensityProfile::new(1)];
        DensityProfile::load_spans(&mut ps, []);
        for p in &ps {
            p.check();
            assert_eq!(p.state(), (&vec![0; p.width()][..], 0, p.width()));
        }
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
                p.check();
                let (nlo, nhi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
                for (col, v) in naive.iter_mut().enumerate() {
                    if nlo <= col as i64 && col as i64 <= nhi {
                        *v += delta;
                    }
                }
                let naive_max = *naive.iter().max().expect("width > 0");
                assert_eq!(p.max(), naive_max, "width {width} step {step}");
                assert_eq!(p.counts(), naive, "width {width} step {step}");
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

    /// `max_if_removed` against the naive model and against an actual
    /// removal, for every present unit span: seeded ones, then ones built
    /// to hold all (the full width), some (one of two peak columns) and
    /// none of the peak columns.
    #[test]
    fn max_if_removed_matches_remove_then_max() {
        fn add(
            p: &mut DensityProfile,
            naive: &mut [i64],
            spans: &mut Vec<(i64, i64)>,
            span: (i64, i64),
        ) {
            p.add_span(span.0, span.1, 1);
            naive[span.0 as usize..=span.1 as usize]
                .iter_mut()
                .for_each(|c| *c += 1);
            spans.push(span);
        }
        for width in WIDTHS {
            let mut rng = crate::rng::rng_from_seed(0x0DD5_0000 + width as u64);
            let w = width as i64;
            let (mut p, mut naive, mut spans) =
                (DensityProfile::new(width), vec![0i64; width], vec![]);
            for _ in 0..40 {
                let lo = rng.gen_range(0..w);
                let hi = rng.gen_range(lo..w.min(lo + 30));
                add(&mut p, &mut naive, &mut spans, (lo, hi));
            }
            // Raise the two end columns two above the rest: they stay the
            // only peak columns (one, at width 1) through the two spans
            // added next.
            let top = naive.iter().max().expect("width > 0") + 2;
            for end in [0, w - 1] {
                while naive[end as usize] < top {
                    add(&mut p, &mut naive, &mut spans, (end, end));
                }
            }
            add(&mut p, &mut naive, &mut spans, (0, w - 1));
            if width > 2 {
                add(&mut p, &mut naive, &mut spans, (1, w - 2));
            }
            p.check();
            let mut held = [false; 3]; // none, some, all of the peak columns
            for &(lo, hi) in &spans {
                let at_peak = naive[lo as usize..=hi as usize]
                    .iter()
                    .filter(|&&c| c == p.max());
                let at_peak = at_peak.count();
                held[usize::from(at_peak > 0) + usize::from(at_peak == p.npeak)] = true;
                let mut removed = naive.clone();
                removed[lo as usize..=hi as usize]
                    .iter_mut()
                    .for_each(|c| *c -= 1);
                let expect = *removed.iter().max().expect("width > 0");
                let ctx = format!("width {width} [{lo}, {hi}]");
                assert_eq!(p.max_if_removed(lo, hi), expect, "{ctx}");
                let mut q = p.clone();
                q.add_span(lo, hi, -1);
                q.check();
                assert_eq!(q.max(), expect, "{ctx}");
            }
            let want = match width {
                1 => [false, false, true],
                2 => [false, true, true],
                _ => [true, true, true],
            };
            assert_eq!(held, want, "width {width}");
        }
    }
}
