//! A thread-backed message-passing substrate with MPI-style semantics and
//! deterministic virtual-time accounting.
//!
//! The paper implements its three parallel global-routing algorithms with
//! MPI and evaluates them on a Sun SparcCenter 1000 SMP and an Intel
//! Paragon DMP. Neither machine (nor a multi-node cluster) is available to
//! this reproduction, so this crate supplies the same *programming model* —
//! SPMD ranks, point-to-point sends with tags, and the standard collectives
//! — executed on one thread per rank, while **runtimes are simulated**:
//!
//! * every rank carries a logical clock (seconds, `f64`);
//! * [`Comm::compute`] charges computation through a [`MachineModel`]
//!   (`ops × sec_per_op`);
//! * a message stamps the sender's clock and the receiver advances to
//!   `max(local + recv_overhead, sent + latency + bytes × sec_per_byte)` —
//!   the classic LogP-style happens-before propagation;
//! * collectives are built from point-to-point messages (binomial trees),
//!   so their cost emerges from the same model.
//!
//! The reported makespan (`max` of final rank clocks) is a deterministic
//! function of the execution, independent of host scheduling, which makes
//! the paper's speedup tables reproducible bit-for-bit on any machine.
//!
//! Memory is also modeled: ranks register their dominant allocations via
//! [`Comm::charge_alloc`], and a [`MachineModel`] may cap per-node memory
//! (the Paragon's 32 MB/node), which is how Table 5's infeasible serial
//! runs are detected.

//!
//! Observability: [`run_instrumented`] — the one configured way to run a
//! world ([`run`] is its zero-config shorthand) — records per-rank
//! [`TraceEvent`] streams (exportable via [`chrome_trace_json`] /
//! [`stats_json`]), collects per-rank metric shards
//! (counters/gauges/histograms from `pgr-obs`) and can attach a
//! [`fault`] layer that drops, delays, reorders, or duplicates messages,
//! and failed communication patterns surface as structured [`CommError`]
//! diagnostics instead of bare panics.
//!
//! Robustness: the [`reliable`] transport (sequence numbers, reorder
//! buffer, duplicate suppression, ack-based retransmit with exponential
//! backoff) masks injected message faults bit-deterministically, and a
//! fault layer's kill schedule lets SPMD programs survive rank death:
//! the victim unwinds at a phase boundary ([`Comm::boundary`]),
//! survivors shrink the world ([`Comm::shrink_world`]) and continue on
//! dense logical ranks. Every rank whose closure ends — returned,
//! panicked or killed — sends each peer one exit notice behind every
//! frame it sent, so a recv whose source is gone ends without a timer:
//! [`CommError::RankDead`] with the death record of a killed source,
//! [`CommError::PeersDisconnected`] otherwise or once any peer panicked.
//!
//! Checkpointed recovery: when a kill is scheduled, every rank commits
//! a [`Snapshot`] of its pipeline state (a shared value) into a shared
//! [`checkpoint::CheckpointStore`] at each phase boundary — inside
//! [`Comm::boundary`], *before* the kill schedule is evaluated — so a
//! recovery round can resume from the last globally committed boundary
//! ([`Comm::shrink_world`] agrees on it, and takes each dead rank's exit
//! notice before it reads the store) instead of redoing the whole
//! attempt.
//!
//! Layout: [`comm`] is a facade over three layers whose state is private
//! to their modules — `transport` (frames, fault hook, reliable windows),
//! `account` (clock, counters, modeled memory), `control` (world map,
//! kill schedule, budget latch, checkpoints) — with the collectives
//! written purely against the facade's send/recv.

pub mod budget;
pub mod checkpoint;
pub mod comm;
pub mod error;
pub mod fault;
pub mod machine;
pub mod profile;
pub mod reliable;
pub mod trace;
pub mod wire;

pub use budget::{BudgetBreach, BudgetKind, ResourceBudget};
pub use checkpoint::{CheckpointStore, Snapshot};
pub use comm::{
    run, run_instrumented, Comm, InstrumentConfig, Payload, PhaseControl, RankStats, RunReport,
    WallStats, COLLECTIVE_TAG_BASE, RECV_WAIT_MICROS,
};
pub use error::{CommError, PendingMsg};
pub use fault::{ChaosConfig, ChaosLayer, FaultAction, FaultLayer, MsgCtx};
pub use machine::{ClockMode, MachineModel};
pub use pgr_obs::{MetricsConfig, Phase, RankMetrics, RunMeta};
pub use profile::{build_profile, match_messages, MatchedMessage};
pub use reliable::ReliabilityConfig;
pub use trace::{
    chrome_trace_json, chrome_trace_with_path, stats_json, RankTrace, TraceConfig, TraceEvent,
    TraceEventKind, TRACE_DROPPED,
};
pub use wire::{Reader, Wire, WireError};
