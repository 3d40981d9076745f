//! The phase-pipeline engine: one driver for the serial router and all
//! three parallel algorithms.
//!
//! Every routing driver in this crate is the same seven-phase sequence
//! ([`Phase::ALL`]) — setup → steiner → coarse → feedthrough → connect →
//! switchable → assemble — differing only in what each phase *does*. The
//! engine owns everything the phases share, exactly once:
//!
//! * **per-attempt context** ([`RouteCtx`]): the row partition and the
//!   rank-seeded RNG stream, re-derived over the logical world on every
//!   recovery attempt;
//! * **phase boundaries**: each pass is entered through
//!   [`Comm::boundary`], which commits the pipeline's snapshot, stamps
//!   the trace/stats mark, rotates the per-phase metric window,
//!   evaluates the fault layer's kill schedule and runs the budget
//!   agreement — a kill or an agreed breach aborts the attempt instead
//!   of running the pass;
//! * **checkpointed recovery** ([`drive`]'s loop): at every phase
//!   boundary past the first, each rank commits a snapshot of its
//!   pipeline state (a shared value) into the shared checkpoint store
//!   (`pgr_mpi::CheckpointStore`); on `PeersDied` the survivors count
//!   the recovery, shrink the world and agree on the last globally
//!   committed restorable boundary ([`Comm::shrink_world`] — the commit
//!   protocol), restore from the snapshots, and **resume**
//!   from that boundary instead of redoing the whole attempt. When no
//!   common committed boundary exists (a kill entering the very first
//!   phase, or a snapshot marked corrupt in the store) the round falls
//!   back to the full restart from a fresh context. Either way the loop
//!   is bounded by [`RouterConfig::recovery_rounds`]: once they are
//!   spent, the lowest surviving rank deterministically completes the
//!   route with the serial pipeline instead of retrying forever;
//! * **self-verification**: any run that recovered or degraded re-checks
//!   its result with [`crate::verify::check`] before returning it.
//!
//! Resume holds the repo's golden-determinism standard: a resumed
//! attempt is **bit-identical in its result** to a fresh run of the
//! surviving world. The restorable boundaries are exactly the ones
//! whose state is *world-portable* — a pure function of the circuit
//! and config, independent of the rank count. For the TWGR pipelines
//! that is everything up to the coarse phase: per-net Steiner trees
//! depend only on the net, and no pipeline consumes its RNG stream
//! before coarse, so restored state re-partitioned over the shrunken
//! world equals the fresh run's state exactly. Later boundaries commit
//! metadata-only records (their channel state is shaped by the old
//! world) and resume re-runs those phases from the last portable
//! boundary.
//!
//! An algorithm is a [`Pipeline`]: a state machine whose
//! [`pass`](Pipeline::pass) method executes the body of one phase,
//! carrying intermediate products (segments, plans, channel state) in
//! its fields between passes. No pipeline spells a phase name, calls a
//! checkpoint, or touches a metric window — that wiring lives here.

use crate::config::RouterConfig;
use crate::metrics::{names, RoutingResult};
use crate::parallel::partition::PartitionKind;
use pgr_circuit::{Circuit, RowPartition};
use pgr_geom::rng::{derive_seed, rng_from_seed, SmallRng};
use pgr_mpi::{BudgetKind, Comm, PhaseControl, Snapshot};
use pgr_obs::recovery_names;

pub use pgr_obs::Phase;

/// A structured, non-panicking routing failure. Today the only variant
/// is a resource-budget breach; kill-schedule deaths stay `Option`-shaped
/// (a victim simply holds no result) because they are injected faults,
/// not caller-visible errors.
#[derive(Debug, Clone, PartialEq)]
pub enum RouteError {
    /// A [`pgr_mpi::ResourceBudget`] limit was exceeded and could not be
    /// shed. Identical on every rank of the run (the engine agrees on
    /// the lowest breaching rank's report before anyone aborts).
    BudgetExceeded {
        /// Logical rank whose breach won the agreement (0 for the
        /// run-global recovery-rounds bound).
        rank: usize,
        /// Phase boundary at which the world agreed to stop.
        phase: Phase,
        /// Which limit tripped.
        budget: BudgetKind,
        /// The configured limit, in the limit's own unit.
        limit: f64,
        /// What was observed, same unit.
        observed: f64,
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::BudgetExceeded {
                rank,
                phase,
                budget,
                limit,
                observed,
            } => write!(
                f,
                "budget exceeded at {} on rank {rank}: {budget} limit {limit} exceeded (observed {observed})",
                phase.name()
            ),
        }
    }
}

impl std::error::Error for RouteError {}

/// Per-attempt context the engine derives once, before the first pass:
/// the inputs every pipeline reads and the two pieces of rank-local
/// state whose derivation must track the *logical* world so recovery
/// attempts equal fresh smaller runs.
pub(crate) struct RouteCtx<'a> {
    pub circuit: &'a Circuit,
    pub cfg: &'a RouterConfig,
    /// Net-partition heuristic (ignored by the serial pipeline).
    pub kind: PartitionKind,
    /// Contiguous row bands over the current logical world.
    pub rows: RowPartition,
    /// This rank's decision stream, derived from `cfg.seed` and the
    /// logical rank.
    pub rng: SmallRng,
    pub size: usize,
    pub rank: usize,
}

impl<'a> RouteCtx<'a> {
    /// Derive the context of logical rank `rank` for one attempt over a
    /// world of `size` ranks.
    pub(crate) fn new(
        circuit: &'a Circuit,
        cfg: &'a RouterConfig,
        kind: PartitionKind,
        (size, rank): (usize, usize),
    ) -> Self {
        assert!(
            size <= circuit.num_rows(),
            "row partitioning needs at least one row per rank"
        );
        RouteCtx {
            circuit,
            cfg,
            kind,
            rows: RowPartition::balanced(circuit, size),
            rng: rng_from_seed(derive_seed(cfg.seed, rank as u64)),
            size,
            rank,
        }
    }

    /// This rank's band: its first row and its row count.
    pub fn band(&self) -> (u32, usize) {
        (self.rows.start(self.rank) as u32, self.nrows())
    }

    /// Number of rows in this rank's band.
    pub fn nrows(&self) -> usize {
        self.rows.range(self.rank).len()
    }
}

/// One routing algorithm, expressed as phase bodies the engine drives.
///
/// The engine calls [`pass`](Pipeline::pass) once per phase of
/// [`Phase::ALL`], in order, entering each through a recovery checkpoint
/// first. Pass bodies are infallible — only the
/// checkpoints abort — and hand intermediate state to later passes
/// through `self`. After the final pass the engine collects the result
/// via [`take_result`](Pipeline::take_result) (`Some` on the rank that
/// assembled the global solution).
pub(crate) trait Pipeline {
    /// Execute the body of one phase.
    fn pass(&mut self, phase: Phase, ctx: &mut RouteCtx<'_>, comm: &mut Comm);

    /// Portable snapshot of the state a resumed attempt would need to
    /// start at the `at` boundary, or `None` when that state is shaped
    /// by the current world (non-portable) — the boundary then commits
    /// a metadata-only record that proves it was reached but cannot
    /// seed a shrunken world. Must be communication-free. The default
    /// commits metadata only (the serial pipeline never resumes).
    fn snapshot(&self, _at: Phase) -> Option<Snapshot> {
        None
    }

    /// Rebuild the state [`snapshot`](Pipeline::snapshot) captured at
    /// the `at` boundary from the *failed* world's snapshots (that
    /// world's logical-rank order), re-partitioned over the current
    /// world in `ctx`. Must be communication-free and must leave the
    /// pipeline bit-identical to a fresh run of the current world that
    /// executed every phase before `at`.
    fn restore(&mut self, _at: Phase, _payloads: &[Snapshot], _ctx: &mut RouteCtx<'_>) {}

    /// The assembled result, after the final pass.
    fn take_result(&mut self) -> Option<RoutingResult>;
}

/// Run one attempt of `pipe` over the current world: every pass entered
/// through its phase boundary (trace mark, metric window rotation, kill
/// evaluation), a boundary's stop verdict handed to the caller with the
/// phase it was reached at.
///
/// `resume` is [`Comm::shrink_world`]'s verdict on the previous attempt,
/// which died entering `killed_at`: the registry index of the boundary
/// to resume from and the failed world's snapshots there. Phases
/// before it are skipped (their windows never open — the resumed attempt
/// genuinely does not run them), the pipeline state is restored from the
/// snapshots, and the caught-up trace mark is dropped when execution
/// reaches `killed_at` again (the phases in between are the redone work).
/// Each executed boundary past the first re-commits its snapshot under
/// the current attempt, so a later kill can resume again.
fn run_attempt<P: Pipeline>(
    pipe: &mut P,
    ctx: &mut RouteCtx<'_>,
    comm: &mut Comm,
    resume: Option<&(usize, Vec<Snapshot>)>,
    killed_at: Phase,
) -> Result<Option<RoutingResult>, (Phase, PhaseControl)> {
    for phase in Phase::ALL {
        if let Some((from, payloads)) = resume {
            if phase.index() < *from {
                continue;
            }
            if phase.index() == *from {
                pipe.restore(phase, payloads, ctx);
            }
            if phase == killed_at {
                // Causal-profiler anchor: segments between the restart
                // mark and this one are the resume's replay.
                comm.trace_mark(pgr_obs::MARK_RECOVERY_CAUGHT_UP);
            }
        }
        match comm.boundary(phase, || pipe.snapshot(phase)) {
            PhaseControl::Continue => pipe.pass(phase, ctx, comm),
            stop => return Err((phase, stop)),
        }
    }
    // A breach latched inside the final pass has no later boundary to
    // surface it — agree once more before declaring the attempt complete.
    match comm.budget_agree() {
        PhaseControl::Continue => {}
        stop => return Err((Phase::Assemble, stop)),
    }
    comm.metric_window_close();
    Ok(pipe.take_result())
}

/// Complete the route serially on the lowest surviving rank after the
/// recovery policy gave up on the parallel pipeline. The fallback runs
/// the serial pipeline over a solo-shaped context — rank 0's RNG stream
/// (`derive_seed(cfg.seed, 0)`) is exactly the pure serial run's, so the
/// degraded result is bit-identical to `try_route_serial` on the same
/// circuit. Passes are entered through [`Comm::phase_mark`] — the phase
/// mark and metric-window rotation of a boundary but *no* kill
/// checkpoint: the schedule that forced the degradation must not be able
/// to kill the fallback too.
fn degraded_serial(circuit: &Circuit, cfg: &RouterConfig, comm: &mut Comm) -> RoutingResult {
    let mut ctx = RouteCtx::new(circuit, cfg, PartitionKind::PinWeight, (1, 0));
    let mut pipe = crate::route::serial::SerialPipeline::default();
    for phase in Phase::ALL {
        comm.phase_mark(phase);
        pipe.pass(phase, &mut ctx, comm);
    }
    comm.metric_window_close();
    pipe.take_result()
        .expect("the serial pipeline always assembles a result")
}

/// The SPMD entry point the serial router and every parallel algorithm
/// share ([`crate::route::try_route_serial`] is
/// `drive::<SerialPipeline>`, [`crate::parallel::Algorithm::try_route`]
/// picks the pipeline): the bounded recovery loop around engine-driven
/// attempts, each over a freshly derived [`RouteCtx`] and a fresh
/// pipeline; the serial fallback when the loop gives up (stamping
/// [`names::DEGRADED_SERIAL`] and the `degraded` stats flag downstream);
/// and the automatic post-recovery self-check — any run that recovered,
/// degraded, **or shed budgeted work** re-verifies its result via
/// [`crate::verify::check`] on the rank holding it, so every chaos
/// schedule and every shed ends in a *verified* completed route.
///
/// Recovery: attempts run until one completes, removing dead ranks at
/// every `PeersDied` abort and continuing — by **checkpoint resume** when
/// the failed attempt left a globally committed restorable boundary, by
/// full restart otherwise. A victim returns `Ok(None)` (it holds no
/// result); survivors renumber densely, so the continuation *is* the
/// algorithm on a fresh (P − killed)-rank world — partitions,
/// rank-derived RNG streams, and the rank-0 assembly role all follow the
/// logical ranks. Recovery rounds, ranks lost, and the redone-phase
/// accounting are counted into the metrics shard (inside the window of
/// the phase whose boundary failed), so degraded runs are
/// distinguishable in `*.metrics.json`. Where to resume is
/// [`Comm::shrink_world`]'s verdict (the commit protocol lives there): a
/// last globally committed restorable boundary with its snapshots, or
/// `None` — a kill entering the very first phase, no common portable
/// deposit, or a snapshot marked corrupt in the store — which
/// falls back to the full restart. The loop is bounded by
/// `cfg.recovery_rounds`: every survivor counts the same rounds, so once
/// they are spent all agree that the lowest surviving rank completes the
/// route with the serial fallback.
///
/// Budgets: `cfg.budget` is armed on the communicator for the duration
/// of the parallel attempts. `max_recovery_rounds` folds into
/// `recovery_rounds` (the tighter bound wins); exhausting the *budget's*
/// bound is a structured [`RouteError::BudgetExceeded`] on every rank,
/// not a silent serial fallback. The fallback itself always runs
/// unbudgeted — a degraded completion is strictly better than a hang,
/// and the shed stamp survives into the result's verification.
pub(crate) fn drive<P: Pipeline + Default>(
    circuit: &Circuit,
    cfg: &RouterConfig,
    kind: PartitionKind,
    comm: &mut Comm,
) -> Result<Option<RoutingResult>, RouteError> {
    if cfg.budget.is_limited() {
        comm.set_budget(cfg.budget);
    }
    let budget_rounds = cfg.budget.max_recovery_rounds;
    let max_rounds = budget_rounds.map_or(cfg.recovery_rounds, |b| b.min(cfg.recovery_rounds));
    let mut rounds = 0u32;
    // Where the next attempt resumes: `shrink_world`'s verdict on the last
    // one (`None`: from scratch).
    let mut resume: Option<(usize, Vec<Snapshot>)> = None;
    // The phase whose boundary the last kill fired at — also stamps the
    // recovery-rounds budget error with where the run actually died.
    let mut last_abort = Phase::ALL[0];
    let (result, recovered) = loop {
        if rounds >= max_rounds {
            // Exhaustion under the *budget's* rounds bound is a breach:
            // every survivor computes the same verdict from the same
            // SPMD state, so all ranks return the identical error.
            if let Some(b) = budget_rounds {
                if b < cfg.recovery_rounds && rounds >= b {
                    comm.clear_budget();
                    return Err(RouteError::BudgetExceeded {
                        rank: 0,
                        phase: last_abort,
                        budget: BudgetKind::RecoveryRounds,
                        limit: b as f64,
                        observed: rounds as f64,
                    });
                }
            }
            // The shed agreement must run on *every* survivor, before
            // the non-root ranks exit below (the epilogue's agreement
            // sees a cleared budget here and short-circuits).
            let _ = comm.budget_shed_agree();
            // Every survivor reached this decision from the same
            // deterministic state; only the lowest logical rank routes,
            // the rest hold no result and exit.
            if comm.rank() != 0 {
                comm.clear_budget();
                return Ok(None);
            }
            comm.metric_add(names::DEGRADED_SERIAL, 1);
            // Causal-profiler anchor: path segments after this mark are
            // blamed on the degraded fallback. The fallback itself runs
            // unbudgeted (clear before, so its phases are never timed),
            // but a pre-fallback shed still stamps the run.
            comm.trace_mark(pgr_obs::MARK_DEGRADED_SERIAL);
            comm.clear_budget();
            break (Some(degraded_serial(circuit, cfg, comm)), true);
        }
        let mut ctx = RouteCtx::new(circuit, cfg, kind, (comm.size(), comm.rank()));
        let mut pipe = P::default();
        match run_attempt(&mut pipe, &mut ctx, comm, resume.as_ref(), last_abort) {
            Ok(result) => break (result, rounds > 0),
            // This rank is the victim — unwind without touching the
            // network.
            Err((_, PhaseControl::SelfKilled)) => return Ok(None),
            Err((at, PhaseControl::BudgetExceeded { rank, breach })) => {
                // Already agreed world-wide at the boundary: every rank
                // takes this arm with the identical payload.
                comm.clear_budget();
                return Err(RouteError::BudgetExceeded {
                    rank,
                    phase: at,
                    budget: breach.kind,
                    limit: breach.limit,
                    observed: breach.observed,
                });
            }
            // Peers died entering `at`: shrink the world and retry —
            // resuming from the last committed checkpoint when one exists.
            Err((at, PhaseControl::PeersDied(dead))) => {
                last_abort = at;
                comm.metric_add(names::RECOVERY_EVENTS, 1);
                comm.metric_add(names::RANKS_LOST, dead.len() as u64);
                let killed_at = at.index();
                // The agreement runs before the restart mark, so its
                // cost is blamed on recovery, not on the resumed work.
                resume = comm.shrink_world(&dead, at);
                // Causal-profiler anchor: everything on this rank's
                // timeline before this mark is restart-tainted work and
                // gets blamed on the recovery class.
                comm.trace_mark(pgr_obs::MARK_RECOVERY_RESTART);
                match &resume {
                    Some((from, _)) => {
                        comm.metric_add(recovery_names::REDONE_PHASES, (killed_at - from) as u64);
                    }
                    None => {
                        comm.metric_add(recovery_names::REDONE_PHASES, killed_at as u64);
                        comm.metric_add(recovery_names::FULL_RESTARTS, 1);
                    }
                }
                rounds += 1;
            }
            Err((_, PhaseControl::Continue)) => unreachable!("an attempt only stops on a verdict"),
        }
    };
    // The post-run epilogue — the shed agreement and the self-check
    // verify — records into the assemble window, so per-phase metric
    // windows stay an exact partition of the run totals on budgeted
    // and recovered runs alike.
    comm.metric_window_open(Phase::Assemble);
    let shed = comm.budget_shed_agree();
    if recovered || shed {
        if let Some(result) = &result {
            crate::verify::check(circuit, result, comm);
        }
    }
    comm.metric_window_close();
    comm.clear_budget();
    Ok(result)
}
