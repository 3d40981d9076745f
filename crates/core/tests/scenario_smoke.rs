//! Every adversarial scenario family routes through every driver
//! without panicking, at P = 1 and P = 3 (clamped by row count), and
//! the results verify clean (the harness's cell invariant).

mod harness;

use harness::{cases, grid, outcome, plain, Machine, Run, Setup};
use pgr_router::Algorithm;

#[test]
fn all_families_route_under_all_drivers() {
    let ideal = Setup {
        machine: Machine::Ideal,
        ..plain()
    };
    for cell in grid(&cases().families, &[1, 3], &Algorithm::DRIVERS) {
        let run = Run::new(cell, ideal.clone());
        assert!(outcome(&run).result.is_ok(), "{run}");
    }
}
