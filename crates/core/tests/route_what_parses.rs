//! Route what parses: every netlist text the parser accepts routes to a
//! verified result or a structured error — never a panic.
//!
//! The texts are the 2 000 seeded edits of the parser's own agreement
//! test (`mutated_texts_parse_as_the_reference_parses_them` in
//! `crates/circuit/src/format.rs`, seed 50): random insertions and
//! replacements of separators, digits and letters in a small generated
//! circuit's text. Each text `from_text` accepts is routed twice, each
//! route under its own `catch_unwind`: serially at P = 1, and by the
//! hybrid driver at P = 2. A route's result must pass
//! [`verify::check`]; a `RouteError` is a structured refusal and passes
//! too. About one edit in fourteen parses; the whole set routes in
//! under a second in the dev profile, so tier-1 runs all of it.

use pgr_circuit::format::{from_text, to_text, FormatError};
use pgr_circuit::model::ModelError;
use pgr_circuit::{generate, Circuit, GeneratorConfig};
use pgr_mpi::{Comm, InstrumentConfig, MachineModel};
use pgr_router::{
    route_parallel_guarded, try_route_serial, verify, Algorithm, PartitionKind, RouterConfig,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

const EDITS: usize = 2_000;

/// The seeded edits of the parser's agreement test, in its order: the
/// same base text, seed, operators and random draws.
fn edited_texts() -> impl Iterator<Item = String> {
    const SPICE: [&str; 16] = [
        "0", "9", "-", "+", " ", "\t", "\n", "\r", "#", "\x0B", "\x0C", "\u{a0}", "\u{3000}", "T",
        "é", "n",
    ];
    let base = to_text(&generate(&GeneratorConfig {
        cells: 60,
        pins: 225,
        nets: 65,
        ..GeneratorConfig::small("mutate", 5)
    }));
    let mut rng = pgr_geom::rng::rng_from_seed(50);
    (0..EDITS).map(move |_| {
        let mut text = base.clone();
        for _ in 0..rng.gen_range(1..=6usize) {
            let mut at = rng.gen_range(0..text.len());
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            let spice = SPICE[rng.gen_range(0..SPICE.len())];
            if rng.gen_range(0..2u32) == 0 {
                text.insert_str(at, spice);
            } else if let Some(c) = text[at..].chars().next() {
                text.replace_range(at..at + c.len_utf8(), spice);
            }
        }
        text
    })
}

/// One route of `circuit`, caught: `Ok` for a verified result or a
/// structured error, `Err` with the panic's message otherwise.
fn routes_cleanly(circuit: &Circuit, parallel: bool) -> Result<(), String> {
    let cfg = RouterConfig::with_seed(50);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let routed = match parallel {
            false => try_route_serial(circuit, &cfg, &mut Comm::solo(MachineModel::ideal())),
            true => {
                let (algorithm, kind) = (Algorithm::Hybrid, PartitionKind::PinWeight);
                let instr = InstrumentConfig::off();
                route_parallel_guarded(
                    circuit,
                    &cfg,
                    algorithm,
                    kind,
                    2,
                    MachineModel::ideal(),
                    instr,
                )
                .result
            }
        };
        if let Ok(result) = routed {
            verify::check(circuit, &result, &mut Comm::solo(MachineModel::ideal()));
        }
    }));
    outcome.map_err(|p| {
        let msg = p.downcast_ref::<String>().cloned();
        msg.or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".into())
    })
}

#[test]
fn every_text_that_parses_routes_or_is_refused() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let (mut parsed, mut panics) = (0, Vec::new());
    for (i, text) in edited_texts().enumerate() {
        let Ok(circuit) = from_text(&text) else {
            continue;
        };
        parsed += 1;
        for (parallel, how) in [(false, "serial, P = 1"), (true, "hybrid, P = 2")] {
            if let Err(msg) = routes_cleanly(&circuit, parallel) {
                panics.push(format!("edit {i} ({how}): {msg}"));
            }
        }
    }
    std::panic::set_hook(prev);
    assert!(parsed > 100, "only {parsed} edits parse");
    assert!(
        panics.is_empty(),
        "{} route(s) panicked:\n{}",
        panics.len(),
        panics.join("\n")
    );
}

/// A row whose first cell starts left of the core once parsed and
/// routed: at column −5 to spans outside the chip, 2^40 columns left to
/// a wirelength of 2^40. `from_text` refuses both as
/// `ModelError::OutOfCore`, so no route starts; the same text with the
/// cell at column 0 routes and verifies.
#[test]
fn a_cell_left_of_the_core_is_refused() {
    let text = |x: i64| {
        format!(
            "pgr-circuit v1\nname left\nwidth 100\nrows 2\ncell 0 {x} 10\ncell 1 20 10\n\
             pin 0 1 T 0\npin 0 9 B 0\npin 1 3 B 0\nnet n 0 1 2\n"
        )
    };
    for x in [-5, -1_099_511_627_000] {
        let refused = from_text(&text(x));
        let left = matches!(refused, Err(FormatError::Invalid(ModelError::OutOfCore(_))));
        assert!(left, "cell at {x}: {refused:?}");
    }
    let circuit = from_text(&text(0)).expect("a cell at column 0 is inside the core");
    for parallel in [false, true] {
        assert_eq!(routes_cleanly(&circuit, parallel), Ok(()));
    }
}
