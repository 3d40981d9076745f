//! TimberWolfSC-style global routing for standard cells, serial and
//! parallel — a reproduction of *"Parallel Global Routing Algorithms for
//! Standard Cells"* (Xing, Banerjee, Chandy; IPPS 1997).
//!
//! The crate provides:
//!
//! * the serial five-step TWGR router ([`route::try_route_serial`]);
//! * the three parallel algorithms of the paper, built on the
//!   [`pgr_mpi`] message-passing substrate:
//!   row-wise pin partition ([`parallel::rowwise`], §4),
//!   net-wise pin partition ([`parallel::netwise`], §5), and
//!   hybrid pin partition ([`parallel::hybrid`], §6) — one SPMD entry,
//!   [`Algorithm::try_route`], and one harness that spawns the ranks,
//!   [`route_parallel_guarded`];
//! * the four net-partitioning heuristics (center, locus, density,
//!   pin-number-weight) of §5 ([`parallel::partition`]);
//! * quality metrics matching the paper's tables ([`metrics`]).
//!
//! ```
//! use pgr_circuit::{generate, GeneratorConfig};
//! use pgr_mpi::{Comm, MachineModel};
//! use pgr_router::{try_route_serial, RouterConfig};
//!
//! let circuit = generate(&GeneratorConfig::small("demo", 1));
//! let mut comm = Comm::solo(MachineModel::sparc_center_1000());
//! // `Err` only when `RouterConfig::budget` is armed and breached.
//! let result = try_route_serial(&circuit, &RouterConfig::default(), &mut comm)?;
//! assert!(result.track_count() > 0);
//! println!("tracks: {}, simulated time: {:.2}s", result.track_count(), comm.now());
//! # Ok::<(), pgr_router::RouteError>(())
//! ```

pub mod config;
pub mod cost;
pub mod detailed;
pub mod engine;
pub mod metrics;
pub mod parallel;
pub mod route;
pub mod verify;

pub use config::RouterConfig;
pub use engine::{Phase, RouteError};
pub use metrics::RoutingResult;
pub use parallel::partition::PartitionKind;
pub use parallel::{route_parallel_guarded, Algorithm, GuardedOutcome};
pub use route::try_route_serial;
