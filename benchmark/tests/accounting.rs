//! Failure accounting: an op fails on an `Err`, a panic, a result that
//! differs from the verified reference, or virtual counters that differ
//! between passes.

use pgr_benchmark::ops::{Exact, Ops};

const EXACT: Exact = Exact {
    virtual_s: 1613.25,
    ops: 1_000,
    msgs: 7,
    bytes: 4_096,
};

#[test]
fn a_matching_outcome_is_not_a_failure() {
    let mut ops = Ops::default();
    let warm = ops
        .attempt("memory", None, || Ok(("route", EXACT)))
        .unwrap();
    let again = ops.attempt("timed", Some((&warm.0, &warm.1)), || Ok(("route", EXACT)));
    assert!(again.is_some());
    assert_eq!((ops.attempted, ops.failed), (2, 0));
    assert!(ops.failures.is_empty());
}

#[test]
fn an_injected_err_fails_the_op() {
    let mut ops = Ops::default();
    let out = ops.attempt::<&str>("timed", None, || Err("budget exceeded in coarse".into()));
    assert!(out.is_none());
    assert_eq!((ops.attempted, ops.failed), (1, 1));
    assert!(
        ops.failures[0].contains("budget exceeded in coarse"),
        "{:?}",
        ops.failures
    );
}

#[test]
fn an_injected_panic_fails_the_op_and_is_contained() {
    let mut ops = Ops::default();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // keep the test log quiet
    let out = ops.attempt::<&str>("timed", None, || panic!("rank 1 died"));
    std::panic::set_hook(hook);
    assert!(out.is_none());
    assert_eq!((ops.attempted, ops.failed), (1, 1));
    assert!(
        ops.failures[0].contains("rank 1 died"),
        "{:?}",
        ops.failures
    );
}

#[test]
fn an_injected_unequal_result_fails_the_op() {
    let mut ops = Ops::default();
    let reference = ("route", EXACT);
    let out = ops.attempt("traced", Some((&reference.0, &reference.1)), || {
        Ok(("another route", EXACT))
    });
    // The outcome is still handed back: its timings are worth printing.
    assert!(out.is_some());
    assert_eq!((ops.attempted, ops.failed), (1, 1));
    assert!(
        ops.failures[0].starts_with("traced: result differs"),
        "{:?}",
        ops.failures
    );
}

#[test]
fn drifting_virtual_counters_fail_the_op() {
    let reference = ("route", EXACT);
    for drifted in [
        Exact {
            virtual_s: EXACT.virtual_s + 1e-9,
            ..EXACT
        },
        Exact {
            ops: EXACT.ops + 1,
            ..EXACT
        },
        Exact {
            msgs: EXACT.msgs - 1,
            ..EXACT
        },
        Exact { bytes: 0, ..EXACT },
    ] {
        let mut ops = Ops::default();
        ops.attempt("full-trace", Some((&reference.0, &reference.1)), || {
            Ok(("route", drifted))
        });
        assert_eq!((ops.attempted, ops.failed), (1, 1), "{drifted:?}");
        assert!(ops.failures[0].contains("virtual counters differ"));
    }
}

#[test]
fn a_failed_verify_is_charged_to_the_op_that_produced_the_result() {
    let mut ops = Ops::default();
    ops.attempt("memory", None, || Ok(("route", EXACT)));
    ops.fail("memory: verify found 2 violations".into());
    assert_eq!((ops.attempted, ops.failed), (1, 1));
}
