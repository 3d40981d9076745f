//! Counters, gauges, and fixed-bucket histograms with shard-per-rank
//! storage, and sub-phase [`Timer`]s that measure host time per phase
//! window when a wall-clocked run asks for them.
//!
//! Metric names are `&'static str` so the recording hot path never
//! allocates for a metric that already exists; a shard created disabled
//! ([`MetricsConfig::off`]) never allocates at all — every record call
//! returns after one branch. Shards are *owned by their rank* (no shared
//! state, no locks); cross-rank and cross-run combination happens on
//! snapshots ([`RankMetrics`]) after the run.

use crate::phase::Phase;
use std::time::Instant;

/// Whether a shard records anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsConfig {
    pub enabled: bool,
}

impl MetricsConfig {
    /// Record nothing, allocate nothing: the default.
    pub const fn off() -> Self {
        MetricsConfig { enabled: false }
    }

    pub const fn on() -> Self {
        MetricsConfig { enabled: true }
    }
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig::off()
    }
}

/// Checkpointed-recovery metric names, shared by the communicator (which
/// owns the checkpoint store) and the engine (which drives the resume
/// protocol). They live here rather than in either crate so both record
/// under the same literals the aggregator and CI gates grep for.
pub mod recovery_names {
    /// Snapshots committed into the checkpoint store (one per rank per
    /// boundary deposit).
    pub const CHECKPOINT_COMMITS: &str = "recovery.checkpoint.commits";
    /// Snapshot payload bytes committed into the store.
    pub const CHECKPOINT_BYTES: &str = "recovery.checkpoint.bytes";
    /// Successful checkpoint restores (one per rank per resumed round).
    pub const CHECKPOINT_RESTORES: &str = "recovery.checkpoint.restores";
    /// Snapshots rejected at fetch time because the stored CRC-32 no
    /// longer matched the payload; the round falls back to full restart.
    pub const CHECKPOINT_CRC_FAILURES: &str = "recovery.checkpoint.crc_failures";
    /// Phases a recovery round had to re-run: `killed_at - resume_from`
    /// on a checkpoint resume, the full phase count on a restart.
    pub const REDONE_PHASES: &str = "recovery.redone_phases";
    /// Recovery rounds that found no common committed boundary (or a
    /// corrupt snapshot) and restarted the attempt from scratch.
    pub const FULL_RESTARTS: &str = "recovery.full_restarts";
}

/// Canonical names for the resource-budget counters `pgr-mpi` records
/// when a [`crate::RunMeta`]-described run carries a budget. Same
/// contract as [`recovery_names`]: producers and the aggregator share
/// these literals.
pub mod budget_names {
    /// Optional refinement sweeps dropped because the phase ran past
    /// its time budget (one per shed decision; the run completes
    /// `budget_degraded`).
    pub const SHED_EVENTS: &str = "budget.shed_events";
    /// Hard breaches latched (phase overrun of mandatory work, or a
    /// rank's modeled bytes over cap); each aborts the run with a
    /// structured error after rank agreement.
    pub const BREACHES: &str = "budget.breaches";
}

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i ≥ 1`
/// holds values with bit length `i`, i.e. `v ∈ [2^(i-1), 2^i)`.
pub const HIST_BUCKETS: usize = 65;

/// A fixed-bucket power-of-two histogram.
///
/// The bucket layout is a compile-time constant shared by every producer
/// and consumer, which is what makes merges across ranks, runs, and
/// machines associative and exact: merging is element-wise `u64`
/// addition plus min/max, with no re-binning and no floating point.
#[derive(Clone, PartialEq, Eq)]
pub struct Histogram {
    pub count: u64,
    pub sum: u64,
    /// Smallest observed value (meaningful only when `count > 0`).
    pub min: u64,
    /// Largest observed value (meaningful only when `count > 0`).
    pub max: u64,
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("nonzero_buckets", &self.nonzero_buckets())
            .finish()
    }
}

/// Bucket index of a value: 0 for 0, else the bit length.
pub fn bucket_index(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }

    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// Merge another histogram in. Exact and associative: integer adds
    /// over an identical fixed bucket layout.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// `(bucket_index, count)` pairs for the occupied buckets — the
    /// sparse form the JSON emitter uses.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }

    /// Rebuild from the sparse form (inverse of [`nonzero_buckets`]
    /// plus the scalar fields). Out-of-range indices are rejected.
    pub fn from_parts(
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        sparse: &[(usize, u64)],
    ) -> Result<Self, String> {
        let mut h = Histogram::new();
        h.count = count;
        h.sum = sum;
        h.min = if count == 0 { u64::MAX } else { min };
        h.max = max;
        for &(i, c) in sparse {
            if i >= HIST_BUCKETS {
                return Err(format!("histogram bucket index {i} out of range"));
            }
            h.buckets[i] = c;
        }
        Ok(h)
    }
}

/// Host time one sub-phase timer measured inside one phase window: the
/// nanoseconds it ran and how often it was entered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timer {
    pub ns: u64,
    pub calls: u64,
}

/// Backing storage of one metric scope: the run-cumulative totals, or
/// one phase window.
#[derive(Debug, Default)]
struct Store {
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, f64)>,
    histograms: Vec<(&'static str, Histogram)>,
}

impl Store {
    /// Owned snapshot, sorted by metric name (windows left empty).
    fn snapshot(&self, rank: usize) -> RankMetrics {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .iter()
            .map(|(n, v)| (n.to_string(), *v))
            .collect();
        let mut gauges: Vec<(String, f64)> = self
            .gauges
            .iter()
            .map(|(n, v)| (n.to_string(), *v))
            .collect();
        let mut histograms: Vec<(String, Histogram)> = self
            .histograms
            .iter()
            .map(|(n, h)| (n.to_string(), h.clone()))
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        RankMetrics {
            rank,
            counters,
            gauges,
            histograms,
            windows: Vec::new(),
        }
    }
}

/// One rank's (or one solo run's) metric storage.
///
/// Lookup is linear over `&'static str` names: the metric namespace is a
/// few dozen entries, the common case is a pointer-equal hit, and linear
/// vectors keep the disabled path a single branch with zero allocation.
///
/// Besides the run-cumulative totals, a shard carries **phase-scoped
/// windows**: while a window is open ([`MetricsShard::open_window`]),
/// every record lands in both the totals and the window, so per-phase
/// values sum exactly to the cumulative per-run totals (same fixed
/// bucket layout, same exact merges). Re-opening a phase's window —
/// recovery attempts restart the pipeline — accumulates into the same
/// window. Window bookkeeping obeys the disabled contract: a disabled
/// shard ignores window calls with a single branch and zero allocation.
#[derive(Debug, Default)]
pub struct MetricsShard {
    enabled: bool,
    total: Store,
    /// Per-phase windows in first-open order (snapshots re-sort into
    /// registry order).
    windows: Vec<(Phase, Store)>,
    /// Index into `windows` of the currently open window.
    open: Option<usize>,
    /// Sub-phase timers, one per (phase window, name) that ran; `None`
    /// while they do not read the host clock ([`MetricsShard::timed`]).
    timers: Option<Vec<(Phase, &'static str, Timer)>>,
}

fn slot<'a, T>(entries: &'a mut Vec<(&'static str, T)>, name: &'static str) -> &'a mut T
where
    T: Default,
{
    // Two passes keep the borrow checker happy without unsafe: position,
    // then index.
    if let Some(i) = entries
        .iter()
        .position(|(n, _)| std::ptr::eq(*n, name) || *n == name)
    {
        return &mut entries[i].1;
    }
    entries.push((name, T::default()));
    &mut entries.last_mut().expect("just pushed").1
}

impl MetricsShard {
    pub fn new(config: MetricsConfig) -> Self {
        MetricsShard {
            enabled: config.enabled,
            total: Store::default(),
            windows: Vec::new(),
            open: None,
            timers: None,
        }
    }

    /// This shard with its sub-phase timers on (`on`) or off. They read
    /// the host clock, so only a wall-clocked run turns them on: what a
    /// virtual run records stays a function of its input. A disabled
    /// shard never times.
    pub fn timed(mut self, on: bool) -> Self {
        self.timers = (on && self.enabled).then(Vec::new);
        self
    }

    /// Start a sub-phase timer: the instant to hand to
    /// [`MetricsShard::stop_timer`], or `None` — no clock read — when the
    /// timers are off.
    pub fn start_timer(&self) -> Option<Instant> {
        self.timers.is_some().then(Instant::now)
    }

    /// Charge the host time since `start` and one call to the timer
    /// `name` of the open phase window. Nothing is recorded for a `None`
    /// start or outside any window: a timer belongs to the phase it ran
    /// in, so the windows hold all of it.
    pub fn stop_timer(&mut self, name: &'static str, start: Option<Instant>) {
        let phase = self.open_phase();
        let (Some(start), Some(phase), Some(timers)) = (start, phase, self.timers.as_mut()) else {
            return;
        };
        let ns = start.elapsed().as_nanos() as u64;
        let at = timers
            .iter()
            .position(|&(p, n, _)| p == phase && (std::ptr::eq(n, name) || n == name));
        let i = at.unwrap_or_else(|| {
            timers.push((phase, name, Timer::default()));
            timers.len() - 1
        });
        let timer = &mut timers[i].2;
        timer.ns += ns;
        timer.calls += 1;
    }

    /// Every timer that ran, `(phase name, timer name, time)`, in phase
    /// registry order and by name within a phase.
    pub fn timers(&self) -> Vec<(&'static str, &'static str, Timer)> {
        let mut out: Vec<_> = self.timers.iter().flatten().copied().collect();
        out.sort_by(|a, b| (a.0.index(), a.1).cmp(&(b.0.index(), b.1)));
        out.into_iter().map(|(p, n, t)| (p.name(), n, t)).collect()
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Add `delta` to the counter `name`.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        self.add_at(self.open, name, delta);
    }

    /// [`MetricsShard::add`] into the totals and `phase`'s window
    /// (totals only for `None`), whichever window is open: for an event
    /// whose phase is a property of the event, not of the moment it is
    /// recorded — a frame counted at arrival belongs to the phase its
    /// sender was in, which is the same on every run, where the
    /// receiver's open window depends on host scheduling.
    pub fn add_in(&mut self, phase: Option<Phase>, name: &'static str, delta: u64) {
        let at = self.window_of(phase);
        self.add_at(at, name, delta);
    }

    fn add_at(&mut self, at: Option<usize>, name: &'static str, delta: u64) {
        if !self.enabled {
            return;
        }
        *slot(&mut self.total.counters, name) += delta;
        if let Some(i) = at {
            *slot(&mut self.windows[i].1.counters, name) += delta;
        }
    }

    /// Set the gauge `name` to `v` (last write wins).
    pub fn gauge(&mut self, name: &'static str, v: f64) {
        if !self.enabled {
            return;
        }
        *slot(&mut self.total.gauges, name) = v;
        if let Some(i) = self.open {
            *slot(&mut self.windows[i].1.gauges, name) = v;
        }
    }

    /// Record one observation into the histogram `name`.
    pub fn observe(&mut self, name: &'static str, v: u64) {
        self.observe_at(self.open, name, v);
    }

    /// [`MetricsShard::observe`] into `phase`'s window — see
    /// [`MetricsShard::add_in`].
    pub fn observe_in(&mut self, phase: Option<Phase>, name: &'static str, v: u64) {
        let at = self.window_of(phase);
        self.observe_at(at, name, v);
    }

    fn observe_at(&mut self, at: Option<usize>, name: &'static str, v: u64) {
        if !self.enabled {
            return;
        }
        slot::<Histogram>(&mut self.total.histograms, name).observe(v);
        if let Some(i) = at {
            slot::<Histogram>(&mut self.windows[i].1.histograms, name).observe(v);
        }
    }

    /// The phase whose window is open, if any.
    pub fn open_phase(&self) -> Option<Phase> {
        self.open.map(|i| self.windows[i].0)
    }

    /// Index of `phase`'s window, created on first use; `None` for no
    /// phase or a disabled shard.
    fn window_of(&mut self, phase: Option<Phase>) -> Option<usize> {
        let phase = phase.filter(|_| self.enabled)?;
        Some(match self.windows.iter().position(|(p, _)| *p == phase) {
            Some(i) => i,
            None => {
                self.windows.push((phase, Store::default()));
                self.windows.len() - 1
            }
        })
    }

    /// Route subsequent records into `phase`'s window (as well as the
    /// totals) until the next `open_window`/[`close_window`] call.
    /// Re-opening a phase accumulates into its existing window.
    pub fn open_window(&mut self, phase: Phase) {
        self.open = self.window_of(Some(phase));
    }

    /// Stop routing records into any window (totals still accumulate).
    pub fn close_window(&mut self) {
        self.open = None;
    }

    /// Owned snapshot, sorted by metric name for deterministic output;
    /// phase windows in registry order.
    pub fn snapshot(&self, rank: usize) -> RankMetrics {
        let mut out = self.total.snapshot(rank);
        let mut windows: Vec<(Phase, RankMetrics)> = self
            .windows
            .iter()
            .map(|(p, s)| (*p, s.snapshot(rank)))
            .collect();
        windows.sort_by_key(|(p, _)| p.index());
        out.windows = windows
            .into_iter()
            .map(|(p, m)| (p.name().to_string(), m))
            .collect();
        out
    }
}

/// Snapshot of one rank's metrics, detached from the `'static` name
/// table so it can be merged with metrics parsed back from JSON.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RankMetrics {
    pub rank: usize,
    /// Sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Sorted by name.
    pub histograms: Vec<(String, Histogram)>,
    /// Phase-scoped windows `(phase name, metrics)` in [`Phase`]
    /// registry order. Empty on window entries themselves (windows do
    /// not nest) and on dumps predating the windowed schema.
    pub windows: Vec<(String, RankMetrics)>,
}

impl RankMetrics {
    /// An empty snapshot for `rank` — the starting point when rebuilding
    /// metrics parsed back from a JSON dump.
    pub fn empty(rank: usize) -> Self {
        RankMetrics {
            rank,
            ..Default::default()
        }
    }

    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// The phase window named `name`, if this snapshot carries one.
    pub fn window(&self, name: &str) -> Option<&RankMetrics> {
        self.windows.iter().find(|(n, _)| n == name).map(|(_, m)| m)
    }

    /// The window invariant: every counter total is exactly the sum, and
    /// every histogram total exactly the merge, of its per-window slices
    /// — no record escaped phase scoping, none was counted twice. (Gauges
    /// are last-write-wins and derived gauges are stamped after the run,
    /// so they carry no sum invariant.) The error names the rank and the
    /// first metric that breaks it.
    pub fn windows_partition_totals(&self) -> Result<(), String> {
        let windows = || self.windows.iter().map(|(_, w)| w);
        for (name, total) in &self.counters {
            let windowed: u64 = windows().filter_map(|w| w.counter(name)).sum();
            if windowed != *total {
                return Err(format!(
                    "rank {}: counter {name} totals {total}, its windows sum to {windowed}",
                    self.rank
                ));
            }
        }
        for (name, total) in &self.histograms {
            let mut merged = Histogram::new();
            for h in windows().filter_map(|w| w.histogram(name)) {
                merged.merge(h);
            }
            if merged != *total {
                return Err(format!(
                    "rank {}: histogram {name} totals {total:?}, its windows merge to {merged:?}",
                    self.rank
                ));
            }
        }
        Ok(())
    }

    /// Set (or overwrite) a gauge after the fact — used for derived
    /// whole-run figures like load imbalance that no single rank can
    /// compute during the run.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        match self.gauges.iter_mut().find(|(n, _)| n == name) {
            Some((_, g)) => *g = v,
            None => {
                self.gauges.push((name.to_string(), v));
                self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
            }
        }
    }

    /// Fold `other` in: counters add, gauges keep the maximum,
    /// histograms merge bucket-wise, and phase windows merge window-wise
    /// by the same rules. This is the cross-rank (and cross-run)
    /// combination rule; with histogram merging exact and associative,
    /// any merge order yields the same result.
    pub fn merge_from(&mut self, other: &RankMetrics) {
        for (name, v) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, c)) => *c += v,
                None => self.counters.push((name.clone(), *v)),
            }
        }
        for (name, v) in &other.gauges {
            match self.gauges.iter_mut().find(|(n, _)| n == name) {
                Some((_, g)) => *g = g.max(*v),
                None => self.gauges.push((name.clone(), *v)),
            }
        }
        for (name, h) in &other.histograms {
            match self.histograms.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => mine.merge(h),
                None => self.histograms.push((name.clone(), h.clone())),
            }
        }
        for (name, w) in &other.windows {
            match self.windows.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => mine.merge_from(w),
                None => self.windows.push((name.clone(), w.clone())),
            }
        }
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        self.windows.sort_by(|a, b| {
            let key = |n: &str| Phase::from_name(n).map(|p| p.index()).unwrap_or(usize::MAX);
            key(&a.0).cmp(&key(&b.0)).then_with(|| a.0.cmp(&b.0))
        });
    }
}

/// Merge every rank's snapshot into one run-level view (rank field 0).
pub fn merge_ranks(ranks: &[RankMetrics]) -> RankMetrics {
    let mut out = RankMetrics::default();
    for r in ranks {
        out.merge_from(r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_observes_and_summarizes() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 100] {
            h.observe(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 106);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 100);
        assert_eq!(h.buckets[0], 1); // the zero
        assert_eq!(h.buckets[2], 2); // 2 and 3
        assert!((h.mean() - 21.2).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative() {
        let mk = |vals: &[u64]| {
            let mut h = Histogram::new();
            for &v in vals {
                h.observe(v);
            }
            h
        };
        let a = mk(&[1, 5, 9]);
        let b = mk(&[0, 0, 1024]);
        let c = mk(&[77]);

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);

        let mut cba = c.clone();
        cba.merge(&b);
        cba.merge(&a);

        assert_eq!(ab_c, a_bc, "associative");
        assert_eq!(ab_c, cba, "commutative");
        // And it equals observing everything into one histogram.
        assert_eq!(ab_c, mk(&[1, 5, 9, 0, 0, 1024, 77]));
    }

    #[test]
    fn merge_with_empty_preserves_min() {
        let mut h = Histogram::new();
        h.observe(5);
        let empty = Histogram::new();
        h.merge(&empty);
        assert_eq!(h.min, 5, "empty merge must not clobber min");
    }

    #[test]
    fn sparse_roundtrip() {
        let mut h = Histogram::new();
        for v in [3, 3, 900, 0] {
            h.observe(v);
        }
        let back =
            Histogram::from_parts(h.count, h.sum, h.min, h.max, &h.nonzero_buckets()).unwrap();
        assert_eq!(h, back);
        assert!(Histogram::from_parts(1, 1, 1, 1, &[(HIST_BUCKETS, 1)]).is_err());
    }

    #[test]
    fn disabled_shard_records_nothing() {
        let mut s = MetricsShard::new(MetricsConfig::off());
        s.open_window(Phase::Setup);
        s.add("a", 5);
        s.gauge("g", 1.5);
        s.observe("h", 3);
        s.add_in(Some(Phase::Coarse), "a", 1);
        s.observe_in(Some(Phase::Coarse), "h", 1);
        assert_eq!(s.open_phase(), None);
        s.close_window();
        let snap = s.snapshot(0);
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.windows.is_empty());
    }

    #[test]
    fn timers_time_only_when_timed_and_inside_a_window() {
        for (metrics, on) in [(MetricsConfig::off(), true), (MetricsConfig::on(), false)] {
            let mut s = MetricsShard::new(metrics).timed(on);
            s.open_window(Phase::Coarse);
            let start = s.start_timer();
            assert!(start.is_none(), "no clock read while the timers are off");
            s.stop_timer("t", start);
            assert!(s.timers().is_empty());
        }
        let mut s = MetricsShard::new(MetricsConfig::on()).timed(true);
        // Outside any window a timer has no phase to belong to.
        let start = s.start_timer();
        assert!(start.is_some());
        s.stop_timer("t", start);
        assert!(s.timers().is_empty());
        s.open_window(Phase::Switchable);
        for name in ["b", "a", "b"] {
            let start = s.start_timer();
            s.stop_timer(name, start);
        }
        s.open_window(Phase::Coarse);
        let start = s.start_timer();
        std::thread::sleep(std::time::Duration::from_millis(1));
        s.stop_timer("b", start);
        let got: Vec<_> = s
            .timers()
            .iter()
            .map(|&(p, n, t)| (p, n, t.calls))
            .collect();
        assert_eq!(
            got,
            vec![
                ("coarse", "b", 1),
                ("switchable", "a", 1),
                ("switchable", "b", 2)
            ]
        );
        assert!(s.timers()[0].2.ns >= 1_000_000, "host time is measured");
    }

    #[test]
    fn windows_partition_the_totals_exactly() {
        let mut s = MetricsShard::new(MetricsConfig::on());
        s.open_window(Phase::Steiner);
        s.add("c", 2);
        s.observe("h", 4);
        s.open_window(Phase::Connect);
        assert_eq!(s.open_phase(), Some(Phase::Connect));
        s.add("c", 5);
        s.add("only_connect", 1);
        s.observe("h", 900);
        // Stamped records go to the named window, not the open one —
        // and to the totals only when stamped with no phase.
        s.add_in(Some(Phase::Steiner), "c", 10);
        s.observe_in(Some(Phase::Steiner), "h", 7);
        s.add_in(None, "unphased", 1);
        s.close_window();
        let snap = s.snapshot(0);
        // Window values sum back to the cumulative totals.
        assert_eq!(snap.counter("c"), Some(17));
        let st = snap.window("steiner").expect("steiner window");
        let cn = snap.window("connect").expect("connect window");
        assert_eq!(st.counter("c"), Some(12));
        assert_eq!(st.histogram("h").unwrap().count, 2);
        assert_eq!(cn.counter("c"), Some(5));
        assert_eq!(snap.counter("unphased"), Some(1));
        assert_eq!(cn.counter("unphased"), None);
        assert_eq!(cn.counter("only_connect"), Some(1));
        let mut merged = Histogram::new();
        merged.merge(st.histogram("h").unwrap());
        merged.merge(cn.histogram("h").unwrap());
        assert_eq!(&merged, snap.histogram("h").unwrap());
    }

    #[test]
    fn records_outside_any_window_only_hit_totals() {
        let mut s = MetricsShard::new(MetricsConfig::on());
        s.add("pre", 1);
        s.open_window(Phase::Setup);
        s.add("in", 1);
        s.close_window();
        s.add("post", 1);
        let snap = s.snapshot(0);
        assert_eq!(snap.counter("pre"), Some(1));
        assert_eq!(snap.counter("post"), Some(1));
        let w = snap.window("setup").unwrap();
        assert_eq!(w.counter("in"), Some(1));
        assert_eq!(w.counter("pre"), None);
        assert_eq!(w.counter("post"), None);
    }

    #[test]
    fn reopening_a_window_accumulates_into_it() {
        // Recovery restarts the pipeline: the second "setup" entry must
        // land in the same window, keeping the sum invariant exact.
        let mut s = MetricsShard::new(MetricsConfig::on());
        s.open_window(Phase::Setup);
        s.add("c", 1);
        s.open_window(Phase::Steiner);
        s.add("c", 10);
        s.open_window(Phase::Setup);
        s.add("c", 100);
        let snap = s.snapshot(0);
        assert_eq!(snap.counter("c"), Some(111));
        assert_eq!(snap.window("setup").unwrap().counter("c"), Some(101));
        assert_eq!(snap.window("steiner").unwrap().counter("c"), Some(10));
        assert_eq!(snap.windows.len(), 2, "re-entry reuses the window");
    }

    #[test]
    fn snapshot_orders_windows_by_registry() {
        let mut s = MetricsShard::new(MetricsConfig::on());
        s.open_window(Phase::Assemble);
        s.add("c", 1);
        s.open_window(Phase::Setup);
        s.add("c", 1);
        let names: Vec<String> = s.snapshot(0).windows.into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["setup".to_string(), "assemble".to_string()]);
    }

    #[test]
    fn merge_from_merges_windows_recursively() {
        let mut a = MetricsShard::new(MetricsConfig::on());
        a.open_window(Phase::Connect);
        a.add("c", 1);
        a.observe("h", 2);
        let mut b = MetricsShard::new(MetricsConfig::on());
        b.open_window(Phase::Connect);
        b.add("c", 10);
        b.open_window(Phase::Switchable);
        b.add("c", 100);
        let merged = merge_ranks(&[a.snapshot(0), b.snapshot(1)]);
        assert_eq!(merged.window("connect").unwrap().counter("c"), Some(11));
        assert_eq!(merged.window("switchable").unwrap().counter("c"), Some(100));
        assert_eq!(
            merged
                .window("connect")
                .unwrap()
                .histogram("h")
                .unwrap()
                .count,
            1
        );
    }

    #[test]
    fn shard_accumulates_and_sorts() {
        let mut s = MetricsShard::new(MetricsConfig::on());
        s.add("z.count", 1);
        s.add("a.count", 2);
        s.add("z.count", 3);
        s.gauge("g", 1.0);
        s.gauge("g", 2.0);
        s.observe("h", 7);
        let snap = s.snapshot(3);
        assert_eq!(snap.rank, 3);
        assert_eq!(
            snap.counters,
            vec![("a.count".into(), 2), ("z.count".into(), 4)]
        );
        assert_eq!(snap.gauge("g"), Some(2.0), "gauge is last-write-wins");
        assert_eq!(snap.histogram("h").unwrap().count, 1);
    }

    #[test]
    fn merge_ranks_sums_counters_and_merges_histograms() {
        let mut a = MetricsShard::new(MetricsConfig::on());
        a.add("c", 1);
        a.observe("h", 2);
        a.gauge("g", 1.0);
        let mut b = MetricsShard::new(MetricsConfig::on());
        b.add("c", 10);
        b.add("only_b", 4);
        b.observe("h", 5);
        b.gauge("g", 3.0);
        let merged = merge_ranks(&[a.snapshot(0), b.snapshot(1)]);
        assert_eq!(merged.counter("c"), Some(11));
        assert_eq!(merged.counter("only_b"), Some(4));
        assert_eq!(merged.gauge("g"), Some(3.0), "gauges merge by max");
        let h = merged.histogram("h").unwrap();
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 7, 2, 5));
    }

    #[test]
    fn merge_ranks_is_order_independent() {
        let mut shards = Vec::new();
        for r in 0..4u64 {
            let mut s = MetricsShard::new(MetricsConfig::on());
            s.add("c", r + 1);
            s.observe("h", r * 100);
            shards.push(s.snapshot(r as usize));
        }
        let fwd = merge_ranks(&shards);
        shards.reverse();
        let mut rev = merge_ranks(&shards);
        rev.rank = fwd.rank;
        assert_eq!(fwd, rev);
    }
}
