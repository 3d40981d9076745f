//! Machine models for virtual-time simulation.
//!
//! A [`MachineModel`] is a LogP-flavoured cost model: per-message latency,
//! per-byte transfer time, per-abstract-op compute time, and fixed
//! send/receive software overheads. Two presets encode the paper's
//! evaluation platforms; the constants are calibrated so serial runtimes
//! land in the paper's regime (minutes to ~an hour for the large MCNC
//! circuits on mid-1990s processors) and so the communication/computation
//! ratio reproduces the *shape* of the reported speedups — absolute
//! seconds are not the claim, shapes are.

/// The clock strategy of a run.
///
/// The virtual [`MachineModel`] clock is pure arithmetic — it never makes
/// a rank sleep — so it stays live in both modes and remains bit-identical
/// for a given program. `Wall` additionally timestamps the run against a
/// shared [`std::time::Instant`] epoch, so phase and run timings reflect
/// what the host actually did. Routing never reads either clock, which is
/// what lets the golden-determinism suite pin results across modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Deterministic virtual time only (the CI / reproduction mode).
    #[default]
    Virtual,
    /// Ranks run free and report real host seconds alongside the
    /// virtual ones.
    Wall,
}

impl ClockMode {
    /// Stable lowercase name, as stamped into `stats.json`.
    pub fn name(self) -> &'static str {
        match self {
            ClockMode::Virtual => "virtual",
            ClockMode::Wall => "wall",
        }
    }
}

/// A simulated parallel platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineModel {
    pub name: &'static str,
    /// End-to-end message latency in seconds (L in LogP).
    pub latency: f64,
    /// Transfer time per payload byte in seconds (1/bandwidth).
    pub sec_per_byte: f64,
    /// Time per abstract router operation in seconds (1/op-rate).
    pub sec_per_op: f64,
    /// Sender-side software overhead per message.
    pub send_overhead: f64,
    /// Receiver-side software overhead per message.
    pub recv_overhead: f64,
    /// Per-node memory capacity in bytes, if the platform is memory-gated
    /// (the Paragon's 32 MB/node); `None` means effectively unbounded.
    pub mem_per_node: Option<u64>,
}

impl MachineModel {
    /// Sun SparcCenter 1000: 8-processor bus-based SMP. Message passing
    /// through shared memory: low latency, high effective bandwidth.
    /// 50 MHz SuperSPARC-class compute rate.
    pub fn sparc_center_1000() -> Self {
        MachineModel {
            name: "SparcCenter1000",
            latency: 100e-6,
            sec_per_byte: 1.0 / 18.0e6,
            sec_per_op: 1.0 / 0.52e6,
            send_overhead: 30e-6,
            recv_overhead: 30e-6,
            mem_per_node: None,
        }
    }

    /// Intel Paragon: mesh-connected DMP, i860 nodes with 32 MB memory.
    /// Higher message latency than the SMP, slightly faster nodes, and the
    /// per-node memory cap that makes serial runs of the biggest circuits
    /// infeasible (Table 5).
    pub fn intel_paragon() -> Self {
        MachineModel {
            name: "Paragon",
            latency: 450e-6,
            sec_per_byte: 1.0 / 12.0e6,
            sec_per_op: 1.0 / 0.64e6,
            send_overhead: 70e-6,
            recv_overhead: 70e-6,
            mem_per_node: Some(32 * 1024 * 1024),
        }
    }

    /// Zero-cost communication and unit-cost computation: for algorithm
    /// correctness tests where timing must not matter.
    pub fn ideal() -> Self {
        MachineModel {
            name: "ideal",
            latency: 0.0,
            sec_per_byte: 0.0,
            sec_per_op: 0.0,
            send_overhead: 0.0,
            recv_overhead: 0.0,
            mem_per_node: None,
        }
    }

    /// Compute cost of `ops` abstract operations.
    pub fn compute_time(&self, ops: u64) -> f64 {
        ops as f64 * self.sec_per_op
    }

    /// Whether a working set of `bytes` fits on one node.
    pub fn fits_in_node(&self, bytes: u64) -> bool {
        self.mem_per_node.map(|cap| bytes <= cap).unwrap_or(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_sane_orderings() {
        let smp = MachineModel::sparc_center_1000();
        let dmp = MachineModel::intel_paragon();
        assert!(smp.latency < dmp.latency, "SMP messages are cheaper");
        assert!(
            dmp.sec_per_op < smp.sec_per_op,
            "Paragon nodes are a bit faster"
        );
        assert!(smp.mem_per_node.is_none());
        assert_eq!(dmp.mem_per_node, Some(32 * 1024 * 1024));
    }

    #[test]
    fn ideal_machine_is_free() {
        let m = MachineModel::ideal();
        assert_eq!(m.compute_time(u64::MAX / 2), 0.0);
        assert!(m.fits_in_node(u64::MAX));
    }

    #[test]
    fn memory_gate() {
        let dmp = MachineModel::intel_paragon();
        assert!(dmp.fits_in_node(16 * 1024 * 1024));
        assert!(!dmp.fits_in_node(64 * 1024 * 1024));
    }
}
