//! Beyond the paper's tables: the 8-rank ablation tables and parameter
//! sweeps, and the detailed-routing validation of the track metric.

use super::cell::{cfg, clamp_procs, routed, run_cell, Opts};
use crate::fmt_secs;
use pgr_mpi::{InstrumentConfig, MachineModel};
use pgr_router::{Algorithm, PartitionKind, RouterConfig};

/// One 8-rank ablation table on the SparcCenter model: per circuit, the
/// serial base under the default config, then one cell per variant —
/// `(label, padded to its column; config; algorithm; net partition)` —
/// printed as scaled tracks / simulated seconds / speedup.
fn ablation_table(
    opts: &Opts,
    title: &str,
    column: String,
    variants: Vec<(String, RouterConfig, Algorithm, PartitionKind)>,
) {
    let machine = MachineModel::sparc_center_1000();
    println!("{title}");
    opts.note_scale();
    println!(
        "{:<12} {column} {:>10} {:>9} {:>9}",
        "circuit", "sc.tracks", "time(s)", "speedup"
    );
    for c in opts.circuits() {
        let base = opts.cell(&c, &cfg(), Algorithm::Serial, 1, machine, None);
        for (label, cfg, algo, kind) in &variants {
            let driver = (*algo, *kind, clamp_procs(8, &c));
            let out = run_cell(&c, cfg, driver, machine, InstrumentConfig::off(), None);
            println!(
                "{:<12} {label} {:>10.3} {:>9} {:>9.2}",
                c.name,
                routed(&out).scaled_tracks(routed(&base)),
                fmt_secs(out.time),
                base.time / out.time
            );
        }
    }
    println!();
}

/// §5 ablation: the four net-partition heuristics under the net-wise
/// algorithm (and the hybrid's connection phase), on the clock-heavy
/// avq.large instance where pin-number-weight matters most.
pub fn partition_ablation(opts: &Opts) {
    let variants = PartitionKind::ALL
        .into_iter()
        .map(|kind| {
            let label = format!("{:<12}", kind.name());
            (label, cfg(), Algorithm::NetWise, kind)
        })
        .collect();
    ablation_table(
        opts,
        "Net-partition heuristic ablation (8 procs, SparcCenter model)",
        format!("{:<12}", "partition"),
        variants,
    );
}

/// Beyond the paper: the net-wise quality/runtime trade-off as the
/// synchronization period varies (§5 discusses it qualitatively).
pub fn sync_sweep(opts: &Opts) {
    let variants = [16usize, 64, 256, 1024, 8192]
        .into_iter()
        .map(|period| {
            let mut cfg = cfg();
            cfg.sync_period = period;
            let label = format!("{period:>8}");
            (label, cfg, Algorithm::NetWise, PartitionKind::PinWeight)
        })
        .collect();
    ablation_table(
        opts,
        "Net-wise synchronization-period sweep (8 procs, SparcCenter model)",
        format!("{:>8}", "period"),
        variants,
    );
}

/// Beyond the paper: the reproduction's synchronization-protocol
/// ablation. The paper's net-wise quality loss is reproduced by (a) the
/// coarse replicated grid every rank keeps and (b) lossy
/// snapshot-overwrite conflict resolution; exact delta merging over a
/// full-resolution replica (impossible to afford in 1997, trivial today)
/// removes most of the quality loss while the communication bill — and
/// hence the poor speedup — remains.
pub fn exact_sync_ablation(opts: &Opts) {
    let variants = [
        ("1997 snapshot (paper)", false, 8),
        ("exact deltas, coarse", true, 8),
        ("exact deltas, full-res", true, 1),
    ]
    .into_iter()
    .map(|(label, exact, factor)| {
        let mut cfg = cfg();
        cfg.netwise_exact_sync = exact;
        cfg.netwise_grid_factor = factor;
        let label = format!("{label:<22}");
        (label, cfg, Algorithm::NetWise, PartitionKind::PinWeight)
    })
    .collect();
    ablation_table(
        opts,
        "Net-wise synchronization-protocol ablation (8 procs, SparcCenter model)",
        format!("{:<22}", "protocol"),
        variants,
    );
}

/// Extension ablation: median-point Steiner refinement of the step-1
/// trees (off in the paper's TWGR). Reports serial wirelength / track /
/// runtime deltas, and the refined flow's hybrid speedup.
pub fn steiner_ablation(opts: &Opts) {
    let machine = MachineModel::sparc_center_1000();
    println!("Steiner-refinement ablation (serial, and hybrid at 8 procs)");
    opts.note_scale();
    println!(
        "{:<12} {:<8} {:>12} {:>9} {:>10} {:>12} {:>10}",
        "circuit", "steiner", "wirelength", "tracks", "serial(s)", "hybrid sc.trk", "hybrid spd"
    );
    for c in opts.circuits() {
        for refine in [false, true] {
            let mut cfg = cfg();
            cfg.steiner_refine = refine;
            let base = opts.cell(&c, &cfg, Algorithm::Serial, 1, machine, None);
            let p = clamp_procs(8, &c);
            let out = opts.cell(&c, &cfg, Algorithm::Hybrid, p, machine, None);
            println!(
                "{:<12} {:<8} {:>12} {:>9} {:>10} {:>12.3} {:>10.2}",
                c.name,
                if refine { "median" } else { "plain" },
                routed(&base).wirelength,
                routed(&base).track_count(),
                fmt_secs(base.time),
                routed(&out).scaled_tracks(routed(&base)),
                base.time / out.time,
            );
        }
    }
    println!();
}

/// Beyond the paper: run the left-edge detailed channel router over the
/// serial global solution, proving each channel packs into its density
/// (the theorem the paper's track metric stands on) and quantifying the
/// small refinement same-net merging buys.
pub fn detailed_refinement(opts: &Opts) {
    use pgr_router::detailed::route_channels;
    println!("Detailed (left-edge) channel routing vs. the density metric (serial solutions)");
    opts.note_scale();
    println!(
        "{:<12} {:>12} {:>12} {:>9} {:>12}",
        "circuit", "density Σ", "LEA tracks", "ratio", "utilization"
    );
    for c in opts.circuits() {
        let base = opts.cell(
            &c,
            &cfg(),
            Algorithm::Serial,
            1,
            MachineModel::ideal(),
            None,
        );
        let tracks = routed(&base).track_count();
        let d = route_channels(routed(&base));
        assert!(d.validate(), "no shorts");
        println!(
            "{:<12} {:>12} {:>12} {:>9.3} {:>12.3}",
            c.name,
            tracks,
            d.track_count(),
            d.track_count() as f64 / tracks as f64,
            d.mean_utilization()
        );
    }
    println!();
}

/// §5's β knob: the pin-number-weight exponent, swept on the
/// clock-net-heavy circuits where it matters ("our experiments shows
/// that this technique works well for β≈… for AVQ-LARGE").
pub fn beta_sweep(opts: &Opts) {
    let variants = [0.5, 1.0, 1.6, 2.0, 3.0]
        .into_iter()
        .map(|beta| {
            let mut cfg = cfg();
            cfg.pin_weight_beta = beta;
            let label = format!("{beta:>6.1}");
            (label, cfg, Algorithm::Hybrid, PartitionKind::PinWeight)
        })
        .collect();
    ablation_table(
        opts,
        "Pin-number-weight β sweep (hybrid, 8 procs, SparcCenter model)",
        format!("{:>6}", "beta"),
        variants,
    );
}

/// Beyond the paper: speedup sensitivity to the machine's latency and
/// bandwidth (8 procs). The hybrid algorithm barely notices the network
/// (it is compute-bound); the net-wise algorithm's all-channel
/// synchronization makes it acutely bandwidth-sensitive — quantifying
/// the paper's "communication is more costly than computation".
pub fn machine_sweep(opts: &Opts) {
    println!("Machine-model sensitivity of speedup (8 procs)");
    opts.note_scale();
    println!(
        "{:<12} {:>10} {:>12} {:>12} {:>12}",
        "circuit", "latency", "bandwidth", "hybrid", "net-wise"
    );
    for c in opts.circuits() {
        for lat_us in [20.0, 500.0] {
            for bw_mb in [2.0, 18.0, 200.0] {
                let mut m = MachineModel::sparc_center_1000();
                m.latency = lat_us * 1e-6;
                m.sec_per_byte = 1.0 / (bw_mb * 1e6);
                let base = opts.cell(&c, &cfg(), Algorithm::Serial, 1, m, None);
                let p = clamp_procs(8, &c);
                let hybrid = opts.cell(&c, &cfg(), Algorithm::Hybrid, p, m, None);
                let netwise = opts.cell(&c, &cfg(), Algorithm::NetWise, p, m, None);
                println!(
                    "{:<12} {:>8}us {:>10}MB/s {:>12.2} {:>12.2}",
                    c.name,
                    lat_us,
                    bw_mb,
                    base.time / hybrid.time,
                    base.time / netwise.time
                );
            }
        }
    }
    println!();
}
