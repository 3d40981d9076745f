//! Observability primitives for the parallel global router.
//!
//! The paper's whole evaluation is a set of *cross-run comparisons* —
//! serial vs. row-wise vs. net-wise vs. hybrid over six circuits and
//! several rank counts. This crate supplies the metric types those
//! comparisons are built from:
//!
//! * [`Phase`] — the TWGR phase registry: the single source of truth
//!   for phase identity, ordering, and names, shared by the routing
//!   engine's checkpoints, trace marks, metric windows, and the
//!   aggregator's validation of dumped phase names;
//! * [`MetricsShard`] — counters, gauges, and fixed-bucket [`Histogram`]s
//!   with shard-per-rank storage: each rank owns its shard outright, so
//!   the hot path is uncontended, and a disabled shard records nothing
//!   and allocates nothing; while the engine holds a phase window open,
//!   records additionally land in that window, so per-phase values sum
//!   exactly to the run totals; under a wall clock its sub-phase
//!   [`Timer`]s also measure host time per phase window;
//! * [`metrics_json`] — a versioned (`schema_version`) JSON dump of one
//!   run's per-rank metrics, tagged with the [`RunMeta`] (circuit,
//!   algorithm, rank count, machine, scale, seed) that cross-run
//!   aggregation keys on;
//! * [`json`] — a small dependency-free JSON reader the aggregator uses
//!   to load `*.stats.json` / `*.metrics.json` dumps back in;
//! * [`Profile`] — the causal-profile model: a run's critical path with
//!   every second blamed on a [`BlameClass`], plus per-phase × rank
//!   compute/wait/slack tables (built from traces by `pgr-mpi`,
//!   rendered here as `*.profile.json` and markdown).
//!
//! The crate is deliberately free of router types: `pgr-mpi` embeds a
//! shard in every communicator, `pgr-router` records into it from the
//! five TWGR phases, and `pgr-bench` aggregates the dumps.

pub mod emit;
pub mod json;
pub mod metrics;
pub mod phase;
pub mod profile;

pub use emit::{json_escape, metrics_json, RunMeta, SCHEMA_VERSION};
pub use json::Json;
pub use metrics::{
    budget_names, merge_ranks, recovery_names, Histogram, MetricsConfig, MetricsShard, RankMetrics,
    Timer,
};
pub use phase::Phase;
pub use profile::{
    BlameClass, PathSegment, PhaseBlame, Profile, RankBlame, MARK_DEGRADED_SERIAL,
    MARK_RECOVERY_CAUGHT_UP, MARK_RECOVERY_RESTART,
};
