//! The paper's own tables and figures: Table 1, Tables 2–4 with Figures
//! 4–6, Table 5.

use super::cell::{cfg, clamp_procs, routed, Opts};
use crate::fmt_secs;
use pgr_mpi::MachineModel;
use pgr_router::Algorithm;

/// Table 1: characteristics of the test circuits.
pub fn table1(opts: &Opts) {
    println!("Table 1: Characteristics of test circuits");
    opts.note_scale();
    println!(
        "{:<12} {:>6} {:>8} {:>8} {:>8} {:>12}",
        "circuit", "rows", "pins", "cells", "nets", "max net deg"
    );
    for c in opts.circuits() {
        let s = c.stats();
        println!(
            "{:<12} {:>6} {:>8} {:>8} {:>8} {:>12}",
            s.name, s.rows, s.pins, s.cells, s.nets, s.max_net_degree
        );
    }
    println!();
}

/// Tables 2–4 + Figures 4–6: scaled track quality and speedups of one
/// parallel algorithm on the SparcCenter 1000 model, P ∈ {1, 2, 4, 8}.
pub fn quality_and_speedup(algo: Algorithm, opts: &Opts) {
    // The paper numbers them in `Algorithm::ALL` order.
    let nth = Algorithm::ALL.iter().position(|a| *a == algo);
    let nth = nth.expect("tables 2–4 are the three parallel algorithms'");
    let (tno, fno) = (2 + nth, 4 + nth);
    let machine = MachineModel::sparc_center_1000();
    let procs = [1usize, 2, 4, 8];
    let cfg = cfg();

    println!(
        "Table {tno}: Scaled track results of the {} pin partition algorithm",
        algo.name()
    );
    opts.note_scale();
    let header = format!(
        "{:<12} {:>8} {:>8} {:>8} {:>8}",
        "circuit", "1 proc", "2 procs", "4 procs", "8 procs"
    );
    println!("{header}");
    let mut speedups: Vec<(String, Vec<f64>)> = Vec::new();
    for c in opts.circuits() {
        // Instrumented under `--trace-out` (observation is free in
        // virtual time), so the aggregator gets the `algorithm="serial"`
        // record every speedup is scaled to.
        let label = format!("{}_serial", c.name);
        let base = opts.cell(&c, &cfg, Algorithm::Serial, 1, machine, Some(&label));
        let mut row = format!("{:<12}", c.name);
        let mut sp = Vec::new();
        for &p in &procs {
            let p = clamp_procs(p, &c);
            let label = format!("{}_{}_p{}", c.name, algo.name(), p);
            let out = opts.cell(&c, &cfg, algo, p, machine, Some(&label));
            row.push_str(&format!(
                " {:>8.3}",
                routed(&out).scaled_tracks(routed(&base))
            ));
            sp.push(base.time / out.time);
        }
        println!("{row}");
        speedups.push((c.name.clone(), sp));
    }
    println!();
    println!(
        "Figure {fno}: Speedup results of the {} pin partition algorithm",
        algo.name()
    );
    println!("{header}");
    let mut avg = vec![0.0; procs.len()];
    for (name, sp) in &speedups {
        let mut row = format!("{:<12}", name);
        for (i, s) in sp.iter().enumerate() {
            row.push_str(&format!(" {s:>8.2}"));
            avg[i] += s / speedups.len() as f64;
        }
        println!("{row}");
    }
    let mut row = format!("{:<12}", "average");
    for a in &avg {
        row.push_str(&format!(" {a:>8.2}"));
    }
    println!("{row}");
    println!();
}

/// Table 5: the hybrid algorithm's absolute results (track count, area,
/// simulated runtime, speedup) on both platform models. A serial run
/// whose modeled working set exceeds the Paragon's 32 MB/node is marked
/// `mem>32MB` and its speedups carry a `*` (computed against the
/// simulated serial time, which the hardware could not have produced —
/// the paper extrapolated those entries the same way).
pub fn table5(opts: &Opts) {
    let cfg = cfg();
    println!("Table 5: Hybrid pin partition results on both platforms");
    opts.note_scale();
    for (machine, procs) in [
        (MachineModel::sparc_center_1000(), [4usize, 8]),
        (MachineModel::intel_paragon(), [8, 16]),
    ] {
        println!("--- {} ---", machine.name);
        println!(
            "{:<12} {:>6} {:>9} {:>12} {:>9} {:>9} {:>9} {:>9}",
            "circuit", "procs", "tracks", "area", "time(s)", "speedup", "sc.trk", "sc.area"
        );
        for c in opts.circuits() {
            let base = opts.cell(&c, &cfg, Algorithm::Serial, 1, machine, None);
            let (base_result, serial_fits) = (routed(&base), base.fits_memory);
            let (star, serial_time) = match serial_fits {
                true => ("", fmt_secs(base.time)),
                false => ("*", "mem>32MB".to_string()),
            };
            // Serial row.
            println!(
                "{:<12} {:>6} {:>9} {:>12} {:>9} {:>9} {:>9} {:>9}",
                c.name,
                1,
                base_result.track_count(),
                base_result.area(),
                serial_time,
                "1.00",
                "1.000",
                "1.000"
            );
            for p in procs {
                let p = clamp_procs(p, &c);
                let out = opts.cell(&c, &cfg, Algorithm::Hybrid, p, machine, None);
                let result = routed(&out);
                let mem_note = if out.fits_memory { "" } else { "!" };
                println!(
                    "{:<12} {:>6} {:>9} {:>12} {:>9} {:>8}{}{} {:>9.3} {:>9.3}",
                    "",
                    p,
                    result.track_count(),
                    result.area(),
                    format!("{}{}", fmt_secs(out.time), mem_note),
                    format!("{:.2}", base.time / out.time),
                    star,
                    if star.is_empty() { " " } else { "" },
                    result.scaled_tracks(base_result),
                    result.scaled_area(base_result),
                );
            }
        }
    }
    println!(
        "(*: serial run exceeds the Paragon's 32 MB/node — speedup vs. simulated serial time)"
    );
    println!();
}
