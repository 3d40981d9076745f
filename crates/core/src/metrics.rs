//! Routing quality metrics and the routed solution.
//!
//! The paper reports two quality numbers per run: the **total track
//! count** (the sum over channels of the peak density — each channel must
//! be as tall as its densest column) and the **chip area** (core width ×
//! core height, where channel heights follow track counts and row widths
//! grow with inserted feedthroughs). Parallel results are reported
//! *scaled* to the serial run of the same circuit, which is how Tables
//! 2–4 present them.
//!
//! A [`RoutingResult`] carries the full routed span list, so solutions
//! can be independently re-checked ([`crate::verify`]) or consumed by a
//! downstream detailed router.

use crate::route::feedthrough::FtPlan;
use crate::route::state::Span;
use pgr_mpi::Comm;

/// Metric names the router emits into a [`Comm`]'s metrics shard.
///
/// Names are namespaced strings (`route.*` for quality numbers shared by
/// every driver, `parallel.*` for per-rank load facts only the parallel
/// algorithms emit; `pgr-mpi` itself owns `mpi.*`). They are `&'static
/// str` on purpose: the shard's fast path compares pointers.
pub mod names {
    /// Counter: total rectilinear wirelength (rank-local; sums globally).
    pub const WIRELENGTH: &str = "route.wirelength";
    /// Counter: feedthrough cells inserted.
    pub const FEEDTHROUGHS: &str = "route.feedthroughs";
    /// Counter: Σ over channels of peak density (the paper's quality
    /// metric).
    pub const TRACKS: &str = "route.tracks";
    /// Counter: horizontal spans in the solution.
    pub const SPANS: &str = "route.spans";
    /// Gauge: chip width after feedthrough growth, in columns.
    pub const CHIP_WIDTH: &str = "route.chip_width";
    /// Histogram: per-channel peak density.
    pub const CHANNEL_DENSITY: &str = "route.channel_density";
    /// Histogram: feedthroughs inserted per row.
    pub const FT_PER_ROW: &str = "route.feedthroughs_per_row";
    /// Counter: Steiner segments this rank routed in step 2.
    pub const SEGMENTS: &str = "route.segments";
    /// Counter: switchable segments step 5 actually moved.
    pub const SEGMENTS_FLIPPED: &str = "route.segments_flipped";
    /// Counter: nets this rank owns under the §5 partition.
    pub const NETS_OWNED: &str = "parallel.nets_owned";
    /// Counter: Steiner segments (or pieces) this rank is responsible
    /// for after boundary splitting.
    pub const SEGMENTS_OWNED: &str = "parallel.segments_owned";
    /// Counter: cell rows in this rank's partition band.
    pub const ROWS_OWNED: &str = "parallel.rows_owned";
    /// Gauge (rank 0, post-run): max rank time / mean rank time.
    pub const LOAD_IMBALANCE: &str = "parallel.load_imbalance";
    /// Counter: phase-boundary recovery rounds this rank survived (each
    /// round restarts the attempt on the shrunken world).
    pub const RECOVERY_EVENTS: &str = "parallel.recovery_events";
    /// Counter: dead ranks removed across those recovery rounds.
    pub const RANKS_LOST: &str = "parallel.ranks_lost";
    /// Counter (the completing rank): the recovery policy's bounds were
    /// breached and the run finished via the serial fallback pipeline.
    pub const DEGRADED_SERIAL: &str = "parallel.degraded_serial";
    /// Counter (the rank holding the result): violations found by the
    /// automatic post-recovery [`crate::verify::check`]. Present (at 0)
    /// whenever the check ran, so dumps prove verification happened.
    pub const VERIFY_VIOLATIONS: &str = "verify.violations";
    /// Timer: step 3's local feedthrough assignment, `feedthrough::assign`
    /// (the algorithms whose ranks assign their own crossings: serial,
    /// row-wise, hybrid).
    pub const FT_ASSIGN: &str = "ft.assign";
    /// Timer: the rest of step 3's `WorkNets::attach` — the node moves,
    /// the shift, the per-net sort and merge — `ft.assign` excluded
    /// (every algorithm).
    pub const FT_ATTACH: &str = "ft.attach";
    /// Timer: Connect's per-net kernel, `connect_all` (every driver).
    pub const CONNECT_KERNEL: &str = "connect.kernel";
    /// Timer: loading Connect's spans into the channel profiles (the
    /// drivers that load them in Connect: serial, row-wise, net-wise).
    pub const CONNECT_LOAD: &str = "connect.load";
    /// Timer: the hybrid's fragment exchange — the step-4 owner map,
    /// the fragment buckets, the `alltoall` and the merge.
    pub const HYBRID_GATHER: &str = "hybrid.gather";
    /// Timer: the hybrid's span dealing — the deal, the `alltoall` and
    /// the restore of switchable's input order.
    pub const HYBRID_DEAL: &str = "hybrid.deal";
}

/// Record the solution-quality metrics of an assembled result into the
/// calling rank's shard (the rank that holds the global result — rank 0
/// in parallel runs). No-op (and allocation-free) when metrics are off.
pub fn record_quality(result: &RoutingResult, comm: &mut Comm) {
    if !comm.metrics_enabled() {
        return;
    }
    comm.metric_add(names::WIRELENGTH, result.wirelength);
    comm.metric_add(names::FEEDTHROUGHS, result.feedthroughs);
    comm.metric_add(names::TRACKS, result.track_count().max(0) as u64);
    comm.metric_add(names::SPANS, result.span_count() as u64);
    comm.metric_gauge(names::CHIP_WIDTH, result.chip_width as f64);
    for &d in &result.channel_density {
        comm.metric_observe(names::CHANNEL_DENSITY, d.max(0) as u64);
    }
}

/// Record the feedthroughs-per-row distribution of one rank's insertion
/// plan. Each rank observes only its own rows, so the merged histogram
/// covers the chip exactly once.
pub fn record_ft_plan(plan: &FtPlan, comm: &mut Comm) {
    if !comm.metrics_enabled() {
        return;
    }
    for i in 0..plan.num_rows() {
        let row = plan.row0() + i as u32;
        comm.metric_observe(names::FT_PER_ROW, plan.row_count(row).max(0) as u64);
    }
}

/// Height of a cell row, in the same abstract unit as one routing track.
pub const ROW_HEIGHT: i64 = 8;
/// Height of one routing track.
pub const TRACK_PITCH: i64 = 1;

/// Result of one routing run.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingResult {
    pub circuit: String,
    /// Peak density per channel (len = rows + 1).
    pub channel_density: Vec<i64>,
    /// Widest row after feedthrough insertion, in columns.
    pub chip_width: i64,
    /// Number of rows (to derive area).
    pub rows: usize,
    /// Total rectilinear wirelength (columns + row-height units).
    pub wirelength: u64,
    /// Total feedthrough cells inserted.
    pub feedthroughs: u64,
    /// The routed solution: every final horizontal span.
    pub spans: Vec<Span>,
}

impl RoutingResult {
    /// Total track count: Σ over channels of peak density.
    pub fn track_count(&self) -> i64 {
        self.channel_density.iter().sum()
    }

    /// Number of horizontal spans in the solution.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Chip area: width × (row stack + channel stack).
    pub fn area(&self) -> i64 {
        let height = self.rows as i64 * ROW_HEIGHT + self.track_count() * TRACK_PITCH;
        self.chip_width * height
    }

    /// This result's track count scaled to a baseline (serial) run — the
    /// quality metric of Tables 2–4. 1.00 = identical quality; 1.03 =
    /// 3 % more tracks than serial.
    pub fn scaled_tracks(&self, baseline: &RoutingResult) -> f64 {
        assert_eq!(
            self.circuit, baseline.circuit,
            "scale against the same circuit"
        );
        self.track_count() as f64 / baseline.track_count() as f64
    }

    /// Area scaled to a baseline run.
    pub fn scaled_area(&self, baseline: &RoutingResult) -> f64 {
        self.area() as f64 / baseline.area() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(density: Vec<i64>, width: i64, rows: usize) -> RoutingResult {
        RoutingResult {
            circuit: "t".into(),
            channel_density: density,
            chip_width: width,
            rows,
            wirelength: 0,
            feedthroughs: 0,
            spans: Vec::new(),
        }
    }

    #[test]
    fn track_count_sums_channels() {
        let r = result(vec![3, 0, 5], 100, 2);
        assert_eq!(r.track_count(), 8);
    }

    #[test]
    fn area_combines_rows_and_tracks() {
        let r = result(vec![2, 2], 10, 1);
        assert_eq!(r.area(), 10 * (ROW_HEIGHT + 4 * TRACK_PITCH));
    }

    #[test]
    fn scaling_against_baseline() {
        let base = result(vec![10, 10], 100, 2);
        let worse = result(vec![10, 11], 100, 2);
        assert!((worse.scaled_tracks(&base) - 1.05).abs() < 1e-9);
        assert!(worse.scaled_area(&base) > 1.0);
        assert!((base.scaled_tracks(&base) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "same circuit")]
    fn scaling_different_circuits_panics() {
        let a = result(vec![1], 1, 1);
        let mut b = a.clone();
        b.circuit = "other".into();
        let _ = b.scaled_tracks(&a);
    }
}
