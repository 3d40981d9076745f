//! The differential oracle over the scenario families: every relation
//! of the harness that holds on any circuit, at every driver × P ∈
//! {1, 2, 3, 4} of the seven families at scale 0.25 (P clamped to the
//! family's rows).
//!
//! The robustness suites hold the same relations to the seeded generator
//! circuits they pin (`golden_determinism`, `kill_matrix`,
//! `chaos_recovery`, `budget_matrix`), so the relations and the run
//! helper exist once, in `harness/`.

mod harness;

use harness::{cases, check, families, grid, plain, with, Relation};
use pgr_router::Algorithm;

/// Each relation is its own `#[test]`, named after the relation and
/// fed the axis given here.
macro_rules! relations {
    ($($name:ident: $axis:expr,)*) => {
        $(#[test]
        fn $name() {
            check(Relation::$name($axis))
        })*
    };
}

relations! {
    one_rank_is_serial: grid(&cases().families, &[1], &Algorithm::DRIVERS),
    rerun: with(families(), plain()),
    wall_clock: families(),
    instrumented: families(),
    platform: families(),
    generous_budget: families(),
}
