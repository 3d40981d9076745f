//! Regeneration of the paper's tables and figures.
//!
//! Table 1  — circuit characteristics.
//! Table 2 / Figure 4 — row-wise pin partition: scaled tracks + speedups.
//! Table 3 / Figure 5 — net-wise pin partition: scaled tracks + speedups.
//! Table 4 / Figure 6 — hybrid pin partition: scaled tracks + speedups.
//! Table 5  — hybrid, absolute results on the SMP and DMP machine models.
//! Extras   — §5 partition ablation, net-wise sync-period sweep,
//!            machine-model sensitivity, the net-wise sync-protocol and
//!            Steiner-refinement ablations, per-phase time breakdowns,
//!            detailed channel-routing validation, and communication
//!            matrices (all beyond the paper's own tables).

//!
//! One file per family; every target is built from [`cell::run_cell`].

mod ablations;
mod cell;
mod observability;
mod paper;
mod robustness;

pub use ablations::*;
pub use cell::{run_cell, write_traces, Opts};
pub use observability::*;
pub use paper::*;
pub use robustness::*;

use pgr_router::Algorithm;

/// One `repro` target: `(name, other names the command line accepts,
/// what it runs, whether `repro all` runs it)`.
pub type Target = (&'static str, &'static [&'static str], fn(&Opts), bool);

/// Every `repro` target, in `all`'s order: the one list the usage text,
/// the `all` expansion and the dispatch are generated from. The last two
/// are not tables or figures — a pass/fail gate over synthetic
/// adversarial families, and a scale smoke on an instance that is none
/// of the paper's — so `all` leaves them out.
pub const TARGETS: [Target; 19] = [
    ("table1", &[], table1, true),
    (
        "table2",
        &["figure4"],
        |o| quality_and_speedup(Algorithm::RowWise, o),
        true,
    ),
    (
        "table3",
        &["figure5"],
        |o| quality_and_speedup(Algorithm::NetWise, o),
        true,
    ),
    (
        "table4",
        &["figure6"],
        |o| quality_and_speedup(Algorithm::Hybrid, o),
        true,
    ),
    ("table5", &[], table5, true),
    ("partition-ablation", &[], partition_ablation, true),
    ("sync-sweep", &[], sync_sweep, true),
    ("machine-sweep", &[], machine_sweep, true),
    ("exact-sync-ablation", &[], exact_sync_ablation, true),
    ("beta-sweep", &[], beta_sweep, true),
    ("phase-breakdown", &[], phase_breakdown, true),
    ("detailed-refinement", &[], detailed_refinement, true),
    ("steiner-ablation", &[], steiner_ablation, true),
    ("comm-matrix", &[], comm_matrix, true),
    ("chaos", &[], chaos_smoke, true),
    ("wall-clock", &[], wall_clock, true),
    ("profile", &[], profile, true),
    ("stress", &[], stress, false),
    ("big-circuit", &[], big_circuit, false),
];
