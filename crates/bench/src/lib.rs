//! Reproduction driver: regenerates every table and figure of the paper.
//!
//! The `repro` binary drives [`tables`] and [`aggregate`]. Everything
//! runs on synthetic MCNC-shaped circuits (see `pgr-circuit::mcnc`) over
//! the simulated SparcCenter 1000 / Paragon machine models, so all
//! reported runtimes and speedups are deterministic virtual times. What
//! a route costs on the *host* is `benchmark/`'s question, not this
//! crate's — see `benchmark/README.md`.

pub mod aggregate;
pub mod tables;

use pgr_circuit::mcnc::ALL;
use pgr_circuit::Circuit;

/// Default seed of every reproduction run.
pub const SEED: u64 = 1997;

/// The benchmark set at a given scale (1.0 = the paper's full sizes),
/// optionally filtered by circuit name.
pub fn circuits(scale: f64, filter: Option<&[String]>) -> Vec<Circuit> {
    ALL.iter()
        .filter(|m| {
            filter
                .map(|f| f.iter().any(|n| n == m.name()))
                .unwrap_or(true)
        })
        .map(|m| {
            if scale >= 1.0 {
                m.circuit()
            } else {
                m.circuit_scaled(scale)
            }
        })
        .collect()
}

/// Pretty seconds.
pub fn fmt_secs(t: f64) -> String {
    if t >= 100.0 {
        format!("{t:.0}")
    } else if t >= 10.0 {
        format!("{t:.1}")
    } else {
        format!("{t:.2}")
    }
}
