//! The repo benchmark: host seconds to a verified route on four
//! workloads, with per-layer probes and a separate traced pass.
//!
//! See `benchmark/README.md` for the command, every metric, and which
//! end-to-end metric each layer metric should move on which workload.
//! [`adapter`] is the only module that names router-crate items.

pub mod adapter;
pub mod alloc;
pub mod compare;
pub mod ops;
pub mod registry;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workload;
