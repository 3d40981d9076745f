//! Router configuration.

use pgr_mpi::{ClockMode, ResourceBudget};

/// Columns per coarse-grid cell (step 2 routes on this grid).
pub const GRID_W: i64 = 8;
/// Maximum improvement passes of coarse global routing.
pub const COARSE_PASSES: usize = 4;
/// Maximum improvement passes of switchable-segment optimization.
pub const SWITCH_PASSES: usize = 4;
/// Width of an inserted feedthrough cell, in columns.
pub const FT_WIDTH: i64 = 2;
/// Pin-weight exponent β of the hybrid's step-4 owner map (§5's
/// `-(pins^β)` under [`PartitionKind::PinWeight`]; the other heuristics
/// have no β). Step 1 builds a net's MST in time quadratic in its pins,
/// Connect in O(n log n) of its nodes, so the map that balances step 1
/// (`RouterConfig::pin_weight_beta`) overloads whichever rank connects
/// the giant nets; this lighter weight balances Connect's nodes.
///
/// [`PartitionKind::PinWeight`]: crate::parallel::partition::PartitionKind::PinWeight
pub const CONNECT_PIN_WEIGHT_BETA: f64 = 1.3;

/// Tunables of the TWGR-style router. Defaults reproduce the paper's
/// setup; the benchmark harness overrides `seed` and the parallel knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Master seed for every randomized ordering (coarse segment order,
    /// switchable-segment order). Parallel ranks derive per-rank streams.
    pub seed: u64,
    /// Weight of channel-density change in the coarse cost function.
    pub w_density: f64,
    /// Weight of feedthrough crowding in the coarse cost function.
    pub w_feedthrough: f64,
    /// Net-wise algorithm: decisions between two global synchronizations
    /// of the shared grid/channel state. Frequent sync controls quality
    /// but "is very costly"; the paper's experiments run with a sync
    /// frequency that is "not very high" (§7.2), trading quality away —
    /// the default mirrors that choice.
    pub sync_period: usize,
    /// Pin-number-weight partition exponent β (§5): net weight is
    /// `-(pin_count)^β`, so large nets are scheduled first and dealt
    /// round-robin.
    pub pin_weight_beta: f64,
    /// Net-wise synchronization protocol. `false` (default, faithful to a
    /// 1997 snapshot-exchange implementation): a rank's own writes win on
    /// grid cells both it and a remote rank updated since the last sync —
    /// concurrent remote updates to contended cells are *lost*, which
    /// underestimates congestion exactly where it matters and reproduces
    /// the paper's "severe loss of quality". `true`: exact delta merging
    /// (no lost updates) — an ablation this reproduction adds, showing
    /// the quality loss is a synchronization-protocol artifact while the
    /// poor speedup is not.
    pub netwise_exact_sync: bool,
    /// Net-wise algorithm: granularity multiplier of the *replicated*
    /// coarse grid. Every rank holds and periodically synchronizes the
    /// whole grid (§5), so the replicated copy is kept this many times
    /// coarser than the serial router's grid to bound state size and
    /// synchronization volume — at the price of blunter density/demand
    /// estimates and feedthrough placement, the main source of the
    /// algorithm's "significant degradation in quality" (§7.2). Only
    /// applies when more than one rank runs (a single rank replicates
    /// nothing and matches the serial router exactly).
    pub netwise_grid_factor: i64,
    /// Extension beyond the paper: refine each net's MST with median
    /// Steiner junctions before routing (step 1). Off by default — the
    /// paper's TWGR uses the plain MST approximation; the
    /// `steiner-ablation` benchmark quantifies what refinement buys.
    pub steiner_refine: bool,
    /// Bound on the rank-failure recovery loop: how many recovery rounds
    /// (world-shrinking restarts) the engine attempts before degrading to
    /// a serial completion on the lowest surviving rank.
    pub recovery_rounds: u32,
    /// Clock strategy of the run. `Virtual` (default) is the
    /// deterministic CI/reproduction mode; `Wall` lets ranks run free and
    /// reports real host seconds *alongside* the virtual account — it
    /// never changes routing decisions, results, or the virtual clocks.
    pub clock: ClockMode,
    /// Resource budgets enforced at phase boundaries and at chunk
    /// granularity inside the long phase loops. Unlimited by default —
    /// an unlimited budget adds **zero** collectives, so golden
    /// determinism of unbudgeted runs is untouched. A breach never
    /// panics: optional phases shed work (stamping `budget_degraded`),
    /// mandatory overruns surface as a structured
    /// [`crate::engine::RouteError::BudgetExceeded`] on every rank.
    /// `max_recovery_rounds` additionally caps the recovery loop below
    /// `recovery_rounds`.
    pub budget: ResourceBudget,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            seed: 1,
            w_density: 1.0,
            w_feedthrough: 0.35,
            sync_period: 128,
            pin_weight_beta: 1.6,
            netwise_exact_sync: false,
            netwise_grid_factor: 8,
            steiner_refine: false,
            recovery_rounds: 8,
            clock: ClockMode::Virtual,
            budget: ResourceBudget::unlimited(),
        }
    }
}

impl RouterConfig {
    pub fn with_seed(seed: u64) -> Self {
        RouterConfig {
            seed,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = RouterConfig::default();
        assert!(c.sync_period > 0);
        assert!(c.pin_weight_beta > 0.0);
        assert!(c.recovery_rounds >= 1);
        assert!(!c.budget.is_limited());
    }
}
