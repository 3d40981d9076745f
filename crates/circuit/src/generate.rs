//! Deterministic synthetic circuit generation.
//!
//! The MCNC layout-synthesis benchmarks the paper evaluates are not
//! redistributable, so the harness generates circuits matched to their
//! published shape: row/cell/net/pin counts, a short-tailed net-degree
//! distribution (most nets have 2–4 pins), spatial locality (a net's pins
//! cluster around a center, so the center/locus partitions are meaningful),
//! a fraction of electrically equivalent pins (the switchable-segment
//! optimization needs them), and optional giant "clock" nets spanning the
//! whole core (avq.large's >2000-pin net that motivates the
//! pin-number-weight partition).

use crate::builder::CircuitBuilder;
use crate::ids::{CellId, PinId, RowId};
use crate::model::{Circuit, PinSide};
use pgr_geom::rng::{rng_from_seed, SmallRng};

/// Parameters for [`generate`].
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    pub name: String,
    pub rows: usize,
    pub cells: usize,
    /// Total pin budget, including pins of `clock_nets`.
    pub pins: usize,
    /// Total net count, including `clock_nets`.
    pub nets: usize,
    pub seed: u64,
    /// Inclusive range of cell widths in columns.
    pub cell_width: (u32, u32),
    /// Probability that a pin has an equivalent mirror on the other side.
    pub equivalent_fraction: f64,
    /// 0.0 = pins uniform over the core; towards 1.0 = tightly clustered
    /// nets. MCNC-like circuits sit around 0.8.
    pub locality: f64,
    /// Degrees of special global nets (e.g. clock trees). Their pins are
    /// spread uniformly over the whole core.
    pub clock_nets: Vec<usize>,
}

impl GeneratorConfig {
    /// A small, quick circuit for tests and the quickstart example.
    pub fn small(name: impl Into<String>, seed: u64) -> Self {
        GeneratorConfig {
            name: name.into(),
            rows: 8,
            cells: 240,
            pins: 900,
            nets: 260,
            seed,
            cell_width: (4, 10),
            equivalent_fraction: 0.35,
            locality: 0.8,
            clock_nets: vec![],
        }
    }
}

/// Generate a circuit. Deterministic for a given config (including seed).
///
/// # Panics
/// Panics if the config is degenerate (`rows == 0`, `nets` smaller than
/// `clock_nets.len()`, or a pin budget below 2 pins/net).
pub fn generate(cfg: &GeneratorConfig) -> Circuit {
    assert!(cfg.rows > 0, "need at least one row");
    assert!(cfg.cells >= cfg.rows, "need at least one cell per row");
    assert!(
        cfg.nets > cfg.clock_nets.len(),
        "need ordinary nets besides clock nets"
    );
    let clock_pins: usize = cfg.clock_nets.iter().sum();
    let ordinary_nets = cfg.nets - cfg.clock_nets.len();
    assert!(
        cfg.pins >= clock_pins + 2 * ordinary_nets,
        "pin budget {} cannot give every net 2 pins ({} clock pins + {} nets)",
        cfg.pins,
        clock_pins,
        ordinary_nets
    );

    let mut rng = rng_from_seed(cfg.seed);

    // --- Cells: widths drawn uniformly, dealt row by row. ---
    let per_row = cfg.cells / cfg.rows;
    let extra = cfg.cells % cfg.rows;
    let widths: Vec<u32> = (0..cfg.cells)
        .map(|_| rng.gen_range(cfg.cell_width.0..=cfg.cell_width.1))
        .collect();
    // Core width: widest row's packed usage plus 8% slack.
    let mut w_iter = widths.iter();
    let mut max_usage: i64 = 0;
    for r in 0..cfg.rows {
        let n = per_row + usize::from(r < extra);
        let usage: i64 = w_iter.by_ref().take(n).map(|&w| w as i64).sum();
        max_usage = max_usage.max(usage);
    }
    let core_width = max_usage + (max_usage / 12).max(4);

    let mut b = CircuitBuilder::new(cfg.name.clone(), cfg.rows, core_width);
    let mut cells_by_row: Vec<Vec<CellId>> = vec![Vec::new(); cfg.rows];
    let mut w_iter = widths.iter();
    for (r, row_cells) in cells_by_row.iter_mut().enumerate() {
        let n = per_row + usize::from(r < extra);
        for _ in 0..n {
            let id = b.add_cell(RowId::from_index(r), *w_iter.next().expect("width budget"));
            row_cells.push(id);
        }
    }
    let cell_width_of: Vec<u32> = widths;

    // --- Net degrees: every ordinary net starts with 2 pins; the leftover
    // budget is sprinkled one pin at a time over random nets, yielding the
    // short geometric-ish tail real netlists have. ---
    let mut degrees = vec![2usize; ordinary_nets];
    let mut leftover = cfg.pins - clock_pins - 2 * ordinary_nets;
    while leftover > 0 {
        let i = rng.gen_range(0..ordinary_nets);
        degrees[i] += 1;
        leftover -= 1;
    }

    // --- Pins: each net clusters around a random center. ---
    let add_clustered_pin = |b: &mut CircuitBuilder,
                             rng: &mut SmallRng,
                             center_row: usize,
                             center_frac: f64,
                             spread_rows: usize,
                             spread_frac: f64,
                             equivalent_fraction: f64|
     -> PinId {
        let dr = if spread_rows == 0 {
            0
        } else {
            rng.gen_range(0..=spread_rows) as i64 * if rng.gen_bool(0.5) { 1 } else { -1 }
        };
        let row = (center_row as i64 + dr).clamp(0, cfg.rows as i64 - 1) as usize;
        let cells = &cells_by_row[row];
        let pos = center_frac + (rng.gen_f64() - 0.5) * spread_frac;
        let idx = ((pos.clamp(0.0, 1.0)) * (cells.len() - 1) as f64).round() as usize;
        let cell = cells[idx];
        let width = cell_width_of[cell.index()];
        let offset = rng.gen_range(0..width);
        let equivalent = rng.gen_bool(equivalent_fraction);
        let side = if rng.gen_bool(0.5) {
            PinSide::Top
        } else {
            PinSide::Bottom
        };
        b.add_pin(cell, offset, side, equivalent)
    };

    // Spread knobs from locality: locality 1.0 keeps a net within ~1 row
    // and ~2% of the core; locality 0.0 spans everything.
    let row_spread = (((cfg.rows as f64) * (1.0 - cfg.locality)) / 2.0).ceil() as usize;
    let frac_spread = (1.0 - cfg.locality).max(0.02);

    for (i, &deg) in degrees.iter().enumerate() {
        let center_row = rng.gen_range(0..cfg.rows);
        let center_frac = rng.gen_f64();
        let pins: Vec<PinId> = (0..deg)
            .map(|_| {
                add_clustered_pin(
                    &mut b,
                    &mut rng,
                    center_row,
                    center_frac,
                    row_spread.max(1),
                    frac_spread,
                    cfg.equivalent_fraction,
                )
            })
            .collect();
        b.add_net(format!("net{i}"), pins);
    }

    // Clock nets: global, uniform over the whole core.
    for (k, &deg) in cfg.clock_nets.iter().enumerate() {
        let pins: Vec<PinId> = (0..deg)
            .map(|_| {
                let center_row = rng.gen_range(0..cfg.rows);
                let center_frac = rng.gen_f64();
                add_clustered_pin(
                    &mut b,
                    &mut rng,
                    center_row,
                    center_frac,
                    cfg.rows,
                    1.0,
                    cfg.equivalent_fraction,
                )
            })
            .collect();
        b.add_net(format!("clk{k}"), pins);
    }

    b.finish().expect("generated circuit must validate")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_config_matches_requested_counts() {
        let cfg = GeneratorConfig::small("t", 1);
        let c = generate(&cfg);
        let s = c.stats();
        assert_eq!(s.rows, cfg.rows);
        assert_eq!(s.cells, cfg.cells);
        assert_eq!(s.nets, cfg.nets);
        assert_eq!(s.pins, cfg.pins, "pin budget is exact");
        c.validate().unwrap();
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = GeneratorConfig::small("t", 7);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.pin_x(PinId(17)), b.pin_x(PinId(17)));
        let c = generate(&GeneratorConfig::small("t", 8));
        // Different seed ⇒ (almost surely) different placement somewhere.
        let differs = (0..a.num_pins())
            .any(|i| a.pin_x(PinId::from_index(i)) != c.pin_x(PinId::from_index(i)));
        assert!(differs);
    }

    #[test]
    fn clock_nets_are_generated_with_requested_degree() {
        let mut cfg = GeneratorConfig::small("t", 3);
        cfg.nets = 120;
        cfg.pins = 700;
        cfg.clock_nets = vec![150, 60];
        let c = generate(&cfg);
        let max_deg = c.nets().map(|n| n.degree()).max().unwrap();
        assert_eq!(max_deg, 150);
        assert_eq!(c.nets().filter(|n| n.name.starts_with("clk")).count(), 2);
        assert_eq!(c.num_pins(), 700);
        c.validate().unwrap();
    }

    #[test]
    fn locality_shrinks_net_bboxes() {
        let mut tight = GeneratorConfig::small("tight", 5);
        tight.locality = 0.95;
        let mut loose = GeneratorConfig::small("loose", 5);
        loose.locality = 0.0;
        let ct = generate(&tight);
        let cl = generate(&loose);
        let avg_hp = |c: &Circuit| -> f64 {
            let total: u64 = (0..c.num_nets())
                .map(|i| c.net_bbox(crate::NetId::from_index(i)))
                .map(|bb| bb.width() + bb.height())
                .sum();
            total as f64 / c.num_nets() as f64
        };
        assert!(
            avg_hp(&ct) < avg_hp(&cl) / 2.0,
            "tight {} vs loose {}",
            avg_hp(&ct),
            avg_hp(&cl)
        );
    }

    #[test]
    fn equivalent_fraction_is_roughly_respected() {
        let mut cfg = GeneratorConfig::small("t", 11);
        cfg.equivalent_fraction = 0.5;
        cfg.pins = 4000;
        cfg.nets = 1000;
        cfg.cells = 1600;
        let c = generate(&cfg);
        let frac = c.pins().filter(|p| p.equivalent).count() as f64 / c.num_pins() as f64;
        assert!(
            (frac - 0.5).abs() < 0.05,
            "observed equivalent fraction {frac}"
        );
    }

    #[test]
    #[should_panic(expected = "pin budget")]
    fn rejects_infeasible_pin_budget() {
        let mut cfg = GeneratorConfig::small("t", 1);
        cfg.pins = cfg.nets; // < 2 pins per net
        generate(&cfg);
    }
}
