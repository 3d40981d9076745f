//! The control plane: who is in the world, which boundary the kill
//! schedule is at, what the budget has latched and what this attempt has
//! checkpointed — and the [`Comm`] calls that run on that state: the
//! phase-boundary protocol ([`Comm::boundary`], [`Comm::shrink_world`])
//! and the cooperative budget polls.
//!
//! [`Control`] itself never communicates: every decision it takes is
//! from SPMD-deterministic local state (the shared kill schedule against
//! this rank's own boundary counter, this rank's own deposits and
//! latches). The collectives that turn those local readings into a
//! world-wide agreement sit in the `impl Comm` below, each next to the
//! reading it agrees on.

use super::transport::Death;
use super::{Comm, PhaseControl};
use crate::budget::{BudgetBreach, BudgetKind, ResourceBudget};
use crate::checkpoint::CheckpointStore;
use crate::fault::FaultLayer;
use pgr_obs::{budget_names, recovery_names, MetricsShard, Phase};
use std::sync::Arc;

#[derive(Default)]
pub(super) struct Control {
    /// This rank's immutable physical id.
    rank: usize,
    fault: Option<Arc<dyn FaultLayer>>,
    /// Set when the kill schedule fired on this rank: what its exit
    /// notice tells its peers.
    death: Option<Death>,
    /// Logical → physical rank map; identity until ranks die. All
    /// public rank/size arithmetic is logical; channels, stats, pending
    /// queues, and traces stay physical.
    world: Vec<usize>,
    /// This rank's logical id (its index in `world`).
    lrank: usize,
    /// Phase boundaries crossed so far — never reset, so each entry of
    /// a kill schedule fires exactly once.
    boundary: u64,
    /// Shared phase-boundary checkpoint store; present only when the
    /// run can lose a rank (or the caller supplied one), so fault-free
    /// runs never pay for snapshots.
    checkpoints: Option<Arc<CheckpointStore>>,
    /// Which attempt of the run this world is: 0 until the first rank
    /// death, bumped by every [`Control::remove_dead`]. Keys the
    /// checkpoint store.
    attempt: u32,
    /// Highest phase boundary at which *this rank* committed a portable
    /// snapshot during the current attempt. Deliberately local: the
    /// recovery commit protocol must base each rank's vote on
    /// deterministic own-rank knowledge (free-running peer threads make
    /// reads of the shared store racy) and agree via a collective.
    portable_boundary: Option<usize>,
    /// The run's resource budget. Default unlimited: every check
    /// short-circuits on one branch and no state changes.
    budget: ResourceBudget,
    /// Active-clock reading when the current phase began (virtual
    /// seconds in `ClockMode::Virtual`, host seconds in
    /// `ClockMode::Wall`) — the baseline for `max_phase_seconds`.
    phase_start: f64,
    /// Latched hard breach. Polls and boundary checks only ever *set*
    /// this; acting on it goes through the agreement collective at the
    /// next phase boundary, so every rank aborts the same way at the
    /// same point.
    breach: Option<BudgetBreach>,
    /// Whether the *current* phase has shed optional work (reset at
    /// each boundary): once set, further time polls in the phase are
    /// tolerated instead of re-shedding or escalating.
    shed: bool,
    /// Whether *any* phase of this run shed optional work — what stamps
    /// the result `budget_degraded`.
    shed_any: bool,
}

impl Control {
    pub(super) fn new(rank: usize, size: usize, fault: Option<Arc<dyn FaultLayer>>) -> Self {
        Control {
            rank,
            fault,
            world: (0..size).collect(),
            lrank: rank,
            ..Control::default()
        }
    }

    /// Attach the shared checkpoint store of a spawned world.
    pub(super) fn connect(&mut self, checkpoints: Option<Arc<CheckpointStore>>) {
        self.checkpoints = checkpoints;
    }

    /// How this rank died, if the kill schedule fired on it.
    pub(super) fn death(&self) -> Option<Death> {
        self.death
    }

    /// Cross one phase boundary: evaluate the fault layer's kill
    /// schedule there, recording this rank's death (clock `now`) when it
    /// is the victim.
    ///
    /// Kills only ever take effect here, and every rank evaluates the
    /// shared schedule against its own SPMD-lockstep boundary counter,
    /// so all survivors agree on the post-death world deterministically
    /// without hearing from the victim. The death record is diagnostic:
    /// it travels in the victim's exit notice, and a recv blocked on the
    /// victim reports it as `CommError::RankDead`.
    fn cross(&mut self, phase: Phase, now: f64) -> PhaseControl {
        self.boundary += 1;
        if let Some(fault) = &self.fault {
            let boundary = self.boundary;
            let killed = |p| fault.kill_at_boundary(p).is_some_and(|b| b < boundary);
            if killed(self.rank) {
                self.death = Some(Death {
                    clock: now,
                    phase,
                    boundary,
                });
                return PhaseControl::SelfKilled;
            }
            let dead: Vec<usize> = self
                .world
                .iter()
                .copied()
                .filter(|&p| p != self.rank && killed(p))
                .collect();
            if !dead.is_empty() {
                return PhaseControl::PeersDied(dead);
            }
        }
        PhaseControl::Continue
    }

    /// Take the `dead` physical ranks out of the logical rank space;
    /// survivors renumber densely in physical-id order — every survivor
    /// computes the same mapping from the same schedule. The shrunken
    /// world is a new attempt: its checkpoint deposits must not collide
    /// with the failed attempt's, and its portable progress starts over
    /// — so what the failed attempt leaves behind for the recovery
    /// commit protocol, its number (the store key) and this rank's vote
    /// (see `portable_boundary`), is handed out exactly here, where it
    /// would otherwise be lost.
    fn remove_dead(&mut self, dead: &[usize]) -> (u32, Option<usize>) {
        self.world.retain(|p| !dead.contains(p));
        self.lrank = self
            .world
            .iter()
            .position(|&p| p == self.rank)
            .unwrap_or_else(|| panic!("rank {} cannot remove itself from the world", self.rank));
        let failed = (self.attempt, self.portable_boundary.take());
        self.attempt += 1;
        failed
    }

    /// Commit this rank's snapshot for the upcoming `phase` boundary
    /// into the shared store. `Some(payload)` commits a
    /// portable (restorable-anywhere) snapshot; `None` commits a
    /// metadata-only record that proves the boundary was reached but
    /// cannot seed a shrunken world. No-op without a store.
    fn commit(&mut self, phase: Phase, payload: Option<Vec<u8>>, m: &mut MetricsShard) {
        let Some(store) = &self.checkpoints else {
            return;
        };
        let portable = payload.is_some();
        if portable {
            self.portable_boundary = Some(
                self.portable_boundary
                    .map_or(phase.index(), |b| b.max(phase.index())),
            );
        }
        let payload = payload.unwrap_or_default();
        m.add(recovery_names::CHECKPOINT_COMMITS, 1);
        m.add(recovery_names::CHECKPOINT_BYTES, payload.len() as u64);
        store.deposit(
            self.attempt,
            phase.index(),
            self.lrank,
            self.world.len(),
            portable,
            payload,
        );
    }

    /// Fetch all payloads of `attempt`'s snapshot at `phase_idx`, in
    /// the failed world's logical-rank order, re-verifying every CRC-32
    /// stamp. The caller has made sure every member of the failed world
    /// deposited the boundary (see [`Comm::shrink_world`]). Counts a
    /// restore on success; a `None` on a boundary the commit protocol
    /// agreed on means an integrity failure — counted, and the caller
    /// must fall back to a full restart.
    fn fetch(&self, attempt: u32, phase_idx: usize, m: &mut MetricsShard) -> Option<Vec<Vec<u8>>> {
        let store = self.checkpoints.as_ref()?;
        // Scheduled checkpoint rot fires between completeness and
        // verification — the deterministic window a real parallel
        // filesystem would corrupt in. The store's corruption is
        // idempotent, so every survivor may trigger it.
        if let Some(fault) = &self.fault {
            if fault.corrupt_checkpoint(attempt, phase_idx) {
                store.corrupt(attempt, phase_idx);
            }
        }
        let payloads = store.fetch(attempt, phase_idx);
        let outcome = match payloads {
            Some(_) => recovery_names::CHECKPOINT_RESTORES,
            None => recovery_names::CHECKPOINT_CRC_FAILURES,
        };
        m.add(outcome, 1);
        payloads
    }

    /// The phase has run past `max_phase_seconds` as of `now` (active
    /// clock).
    fn over_time(&self, now: f64) -> Option<BudgetBreach> {
        let limit = self.budget.max_phase_seconds?;
        let observed = now - self.phase_start;
        (observed > limit).then_some(BudgetBreach {
            kind: BudgetKind::PhaseSeconds,
            limit,
            observed,
        })
    }

    /// The rank's modeled memory `mem` exceeds `max_rank_bytes`.
    fn over_bytes(&self, mem: u64) -> Option<BudgetBreach> {
        let limit = self.budget.max_rank_bytes?;
        (mem > limit).then_some(BudgetBreach {
            kind: BudgetKind::RankBytes,
            limit: limit as f64,
            observed: mem as f64,
        })
    }

    /// Latch a hard breach — the first one of a run wins — and count it.
    fn latch(&mut self, breach: BudgetBreach, m: &mut MetricsShard) {
        if self.breach.is_none() {
            self.breach = Some(breach);
            m.add(budget_names::BREACHES, 1);
        }
    }
}

impl Comm {
    /// This rank's logical id: dense in `0..size()`, renumbered when
    /// ranks die. Equal to the physical rank until then.
    // Deliberately not `self.rank`: the physical id is an internal
    // address; the public contract is the logical world.
    #[allow(clippy::misnamed_getters)]
    pub fn rank(&self) -> usize {
        self.control.lrank
    }

    /// Live world size (shrinks when ranks die).
    pub fn size(&self) -> usize {
        self.control.world.len()
    }

    /// This rank's immutable physical id (thread index; what traces,
    /// stats, and error diagnostics report).
    pub fn physical_rank(&self) -> usize {
        self.control.rank
    }

    /// The live logical → physical rank map.
    pub fn world(&self) -> &[usize] {
        &self.control.world
    }

    // ----- phase boundaries -----

    /// Enter a registry [`Phase`]: [`Comm::phase_mark`] plus the
    /// failure protocol — flush reorder holdbacks, evaluate the fault
    /// layer's kill schedule at this boundary — and,
    /// on `Continue`, the armed budget's boundary check, which only
    /// *latches*. The window is rotated *before* the schedule is
    /// evaluated, so if a kill fires here the recovery accounting that
    /// follows the abort lands in the window of the phase whose boundary
    /// failed, keeping per-phase windows an exact partition of the run
    /// totals.
    ///
    /// This is the boundary without its collectives: SPMD programs that
    /// checkpoint or run under a budget go through [`Comm::boundary`].
    pub fn phase_enter(&mut self, phase: Phase) -> PhaseControl {
        self.phase_mark(phase);
        self.transport.flush_holdbacks(&mut self.metrics);
        let outcome = self.control.cross(phase, self.now());
        let ctl = &mut self.control;
        if outcome == PhaseControl::Continue && ctl.budget.is_limited() {
            // Close the books on the phase just ended and start the
            // next one's account. An overrun of a phase that *shed* is
            // tolerated — the shed already was the enforcement —
            // otherwise it latches a hard breach for the agreement.
            let now = self.account.active_now();
            if let Some(b) = ctl.over_time(now).filter(|_| !ctl.shed) {
                ctl.latch(b, &mut self.metrics);
            }
            if let Some(b) = ctl.over_bytes(self.account.peak_mem) {
                ctl.latch(b, &mut self.metrics);
            }
            ctl.phase_start = now;
            ctl.shed = false;
        }
        outcome
    }

    /// The whole phase-boundary protocol, in the one order that is
    /// correct — **commit, enter, agree**:
    ///
    /// 1. When the run keeps a checkpoint store, this rank's `snapshot`
    ///    for the boundary is deposited *before* the boundary is
    ///    crossed: a victim deposits and then dies entering the phase,
    ///    so the boundary it died at is globally committed and the
    ///    survivors can resume from it. `Some` is a portable payload,
    ///    `None` a metadata-only record; without a store `snapshot` is
    ///    never called. The first boundary carries no state and is
    ///    never deposited — a kill there has nothing to resume from
    ///    (full restart).
    /// 2. [`Comm::phase_enter`]. A kill returns from here.
    /// 3. [`Comm::budget_agree`], surfacing a breach latched by that
    ///    entry or by a mid-phase poll identically on every rank.
    pub fn boundary(
        &mut self,
        phase: Phase,
        snapshot: impl FnOnce() -> Option<Vec<u8>>,
    ) -> PhaseControl {
        if self.checkpointing() && phase.index() > 0 {
            self.control.commit(phase, snapshot(), &mut self.metrics);
        }
        match self.phase_enter(phase) {
            PhaseControl::Continue => self.budget_agree(),
            killed => killed,
        }
    }

    /// Shrink the world after the `dead` ranks were lost entering
    /// `killed_at`: the dead physical ranks leave the logical rank space,
    /// their unmatched frames are discarded, and survivors renumber
    /// densely in physical-id order. Then agree with the other survivors
    /// on where the next attempt can resume (the recovery commit
    /// protocol). Returns the registry index of the last globally
    /// committed restorable boundary with the failed world's snapshot
    /// payloads there (that world's logical-rank order, CRC-verified),
    /// or `None` when the next attempt must restart from scratch.
    ///
    /// Every survivor votes its *own* highest portable deposit of the
    /// failed attempt (deterministic local knowledge — the shared store
    /// fills from free-running peer threads, so reading it directly
    /// would race) and the survivors agree via an allreduce-min over
    /// the shrunken world. Every rank aborts at the same schedule
    /// boundary, so `killed_at` — and with it the choice to run the
    /// collective — is agreed without communication: a kill entering
    /// the very first phase has no boundary behind it and skips the
    /// protocol entirely, staying bit-identical to the fresh
    /// smaller-world run, virtual time included. An agreed boundary
    /// whose payloads then fail their CRC re-verification also yields
    /// `None` (counted in `recovery.checkpoint.crc_failures`).
    ///
    /// Before it fetches, every survivor has deposited (each reached the
    /// allreduce past its own deposits) and so has every dead rank: each
    /// deposits before it dies, and its exit notice, which the fetch
    /// waits for, is sent after its closure ends.
    pub fn shrink_world(
        &mut self,
        dead: &[usize],
        killed_at: Phase,
    ) -> Option<(usize, Vec<Vec<u8>>)> {
        self.transport.forget(dead);
        let (failed_attempt, vote) = self.control.remove_dead(dead);
        if killed_at.index() == 0 {
            return None;
        }
        // 0 encodes "no portable deposit".
        let agreed = self.allreduce(vote.map_or(0, |b| b as u64 + 1), u64::min);
        let from = agreed.checked_sub(1)? as usize;
        for &p in dead {
            self.transport.await_exit(p, &mut self.metrics);
        }
        let payloads = self
            .control
            .fetch(failed_attempt, from, &mut self.metrics)?;
        Some((from, payloads))
    }

    /// Whether this run keeps a checkpoint store (i.e. a rank can die).
    /// Pipelines consult this to decide whether to retain snapshot
    /// inputs during their passes; fault-free runs skip that work.
    pub fn checkpointing(&self) -> bool {
        self.control.checkpoints.is_some()
    }

    // ----- resource budgets -----

    /// Arm (or replace) the run's [`ResourceBudget`] and reset all
    /// budget state, with the current instant as the phase baseline.
    pub fn set_budget(&mut self, budget: ResourceBudget) {
        let ctl = &mut self.control;
        ctl.budget = budget;
        ctl.phase_start = self.account.active_now();
        ctl.breach = None;
        ctl.shed = false;
        ctl.shed_any = false;
    }

    /// Drop every limit and clear any latched breach — used before a
    /// degraded-serial fallback, which must not inherit the breach that
    /// triggered it.
    pub fn clear_budget(&mut self) {
        let ctl = &mut self.control;
        ctl.budget = ResourceBudget::unlimited();
        ctl.breach = None;
        ctl.shed = false;
    }

    /// Whether any budget limit is armed.
    pub fn budget_limited(&self) -> bool {
        self.control.budget.is_limited()
    }

    /// Mid-phase cooperative poll for *mandatory* work (Steiner, eval,
    /// connect chunk loops): latches a hard breach when the phase has
    /// overrun its time limit or the rank its byte cap, and reports
    /// whether one is latched. The caller should stop issuing further
    /// local work but MUST still join every collective its peers commit
    /// to — walking away mid-pattern deadlocks the world. The latch
    /// becomes a structured abort at the next [`Comm::boundary`].
    pub fn budget_poll_abort(&mut self) -> bool {
        let ctl = &mut self.control;
        if !ctl.budget.is_limited() {
            return false;
        }
        if ctl.breach.is_none() {
            let over = ctl
                .over_time(self.account.active_now())
                .or_else(|| ctl.over_bytes(self.account.peak_mem));
            if let Some(b) = over {
                ctl.latch(b, &mut self.metrics);
            }
        }
        ctl.breach.is_some()
    }

    /// Mid-phase cooperative poll for *optional* refinement work (the
    /// coarse improvement sweeps, the switchable passes): a time overrun
    /// here is not an error — the phase **sheds** its remaining
    /// iterations and the run completes `budget_degraded`. A byte-cap
    /// overrun still latches a hard breach (shedding refinement cannot
    /// return memory). Returns true when the caller should shed.
    pub fn budget_poll_shed(&mut self) -> bool {
        let ctl = &mut self.control;
        if !ctl.budget.is_limited() {
            return false;
        }
        if ctl.breach.is_some() || ctl.shed {
            return true;
        }
        if let Some(b) = ctl.over_bytes(self.account.peak_mem) {
            ctl.latch(b, &mut self.metrics);
            return true;
        }
        if ctl.over_time(self.account.active_now()).is_some() {
            ctl.shed = true;
            ctl.shed_any = true;
            self.metrics.add(budget_names::SHED_EVENTS, 1);
            return true;
        }
        false
    }

    /// The budget agreement collective: [`PhaseControl::BudgetExceeded`]
    /// when any rank has latched a hard breach, `Continue` otherwise.
    /// Breaches are *latched* rank-locally — by the boundary check or by
    /// a mid-phase [`Comm::budget_poll_abort`] — because a rank that
    /// walks away from a pass unilaterally deadlocks its peers. Here the
    /// world agrees: an allreduce-max over the breach flags, then (only
    /// when someone breached) an allgather of the reports, with the
    /// lowest breaching logical rank's report winning on every rank.
    /// [`Comm::boundary`] runs it after every crossing;
    /// the caller runs it once more after the final pass, which has no
    /// later boundary to surface its latch. An **unbudgeted run never
    /// reaches the collectives**, so golden determinism of pre-budget
    /// traces is untouched.
    pub fn budget_agree(&mut self) -> PhaseControl {
        if !self.budget_limited() {
            return PhaseControl::Continue;
        }
        let mut reports = vec![self.control.breach];
        if self.size() > 1 {
            if self.allreduce(reports[0].is_some() as u64, u64::max) == 0 {
                return PhaseControl::Continue;
            }
            reports = self.allgather(reports[0]);
        }
        let lowest = reports
            .into_iter()
            .enumerate()
            .find_map(|(r, b)| Some((r, b?)));
        match lowest {
            None => PhaseControl::Continue,
            Some((rank, breach)) => PhaseControl::BudgetExceeded { rank, breach },
        }
    }

    /// Whether any rank of the surviving world shed optional work under
    /// budget pressure — the run-wide `budget_degraded` stamp.
    /// Collective (allreduce-max over the local flags) only when a
    /// budget is armed and more than one rank runs; an unbudgeted run
    /// adds nothing.
    pub fn budget_shed_agree(&mut self) -> bool {
        if !self.budget_limited() {
            return false;
        }
        let local = self.control.shed_any as u64;
        if self.size() > 1 {
            self.allreduce(local, u64::max) != 0
        } else {
            local != 0
        }
    }
}
