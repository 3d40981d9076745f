//! Cooperative resource budgets.
//!
//! A [`ResourceBudget`] bounds what one routing run may consume: virtual
//! (or wall) seconds per phase, modeled bytes per rank, and recovery
//! rounds. The communicator checks the per-phase and per-rank limits
//! cooperatively — at every phase boundary ([`crate::Comm::phase_enter`])
//! and wherever a pipeline polls at chunk granularity inside its hot
//! loops — and *latches* a [`BudgetBreach`] instead of acting on it
//! unilaterally: in an SPMD program a rank that walks away from a pass
//! mid-loop leaves its peers blocked in matching sends/recvs. The next
//! [`crate::Comm::boundary`] surfaces the latch through an agreement
//! collective ([`crate::Comm::budget_agree`]), so every rank aborts (or
//! sheds) the same way at the same point, and a breach becomes a
//! structured error rather than a panic or a hang.
//!
//! Two breach severities exist by design:
//!
//! * **hard** — a mandatory phase overran, or the rank's modeled memory
//!   exceeded the cap. The run aborts with the breach (kind, limit,
//!   observed) attached.
//! * **shed** — an *optional* refinement loop (the coarse improvement
//!   sweeps, the switchable passes) noticed the phase running long and
//!   dropped its remaining iterations. The phase then finishes inside
//!   the comm pattern it already committed to, the run completes, and
//!   the result is stamped `budget_degraded` with a full verification
//!   pass as proof.
//!
//! On the virtual clock every check is bit-deterministic for a fixed
//! input and seed; on the wall clock ([`crate::ClockMode::Wall`]) the
//! time checks are best-effort by nature.

use crate::wire::{Reader, Wire, WireError};

/// Resource limits for one routing run. The default has every limit off,
/// costs nothing to check, and adds no collectives — an unbudgeted run
/// is bit-identical to one predating budgets.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceBudget {
    /// Maximum seconds any single phase may take on the active clock
    /// (virtual seconds in [`crate::ClockMode::Virtual`], host seconds
    /// in [`crate::ClockMode::Wall`]).
    pub max_phase_seconds: Option<f64>,
    /// Maximum modeled bytes charged to any one rank
    /// ([`crate::Comm::charge_alloc`] accounting: circuit arenas plus
    /// per-rank routing scratch).
    pub max_rank_bytes: Option<u64>,
    /// Maximum recovery rounds the engine may spend before the run is
    /// declared over budget (folded into the engine's `RecoveryPolicy`:
    /// the tighter of the two bounds wins, and exhaustion under *this*
    /// bound is a structured budget error, not a silent fallback).
    pub max_recovery_rounds: Option<u32>,
}

impl ResourceBudget {
    /// No limits (the default).
    pub const fn unlimited() -> Self {
        ResourceBudget {
            max_phase_seconds: None,
            max_rank_bytes: None,
            max_recovery_rounds: None,
        }
    }

    /// Whether any limit is set. When false, every check short-circuits
    /// and [`crate::Comm::boundary`] skips its agreement collective.
    pub fn is_limited(&self) -> bool {
        self.max_phase_seconds.is_some()
            || self.max_rank_bytes.is_some()
            || self.max_recovery_rounds.is_some()
    }
}

/// Which limit a breach tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// [`ResourceBudget::max_phase_seconds`].
    PhaseSeconds = 0,
    /// [`ResourceBudget::max_rank_bytes`].
    RankBytes = 1,
    /// [`ResourceBudget::max_recovery_rounds`].
    RecoveryRounds = 2,
}

impl BudgetKind {
    pub fn name(&self) -> &'static str {
        match self {
            BudgetKind::PhaseSeconds => "max_phase_seconds",
            BudgetKind::RankBytes => "max_rank_bytes",
            BudgetKind::RecoveryRounds => "max_recovery_rounds",
        }
    }
}

impl std::fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One latched hard breach: which limit, its configured value, and what
/// was actually observed (both in the limit's own unit — seconds for
/// [`BudgetKind::PhaseSeconds`], bytes for [`BudgetKind::RankBytes`],
/// rounds for [`BudgetKind::RecoveryRounds`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetBreach {
    pub kind: BudgetKind,
    pub limit: f64,
    pub observed: f64,
}

/// Travels in the agreement allgather as `(kind, limit, observed)`,
/// the kind as its stable discriminant byte.
impl Wire for BudgetBreach {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.kind as u8, self.limit, self.observed).encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let (tag, limit, observed) = <(u8, f64, f64)>::decode(r)?;
        let kind = match tag {
            0 => BudgetKind::PhaseSeconds,
            1 => BudgetKind::RankBytes,
            2 => BudgetKind::RecoveryRounds,
            t => return Err(WireError::BadTag(t)),
        };
        Ok(BudgetBreach {
            kind,
            limit,
            observed,
        })
    }
}

impl std::fmt::Display for BudgetBreach {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} limit {} exceeded (observed {})",
            self.kind, self.limit, self.observed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unlimited() {
        let b = ResourceBudget::default();
        assert_eq!(b, ResourceBudget::unlimited());
        assert!(!b.is_limited());
        assert!(ResourceBudget {
            max_phase_seconds: Some(1.0),
            ..Default::default()
        }
        .is_limited());
        assert!(ResourceBudget {
            max_rank_bytes: Some(1),
            ..Default::default()
        }
        .is_limited());
        assert!(ResourceBudget {
            max_recovery_rounds: Some(1),
            ..Default::default()
        }
        .is_limited());
    }

    #[test]
    fn breach_wire_roundtrip() {
        for kind in [
            BudgetKind::PhaseSeconds,
            BudgetKind::RankBytes,
            BudgetKind::RecoveryRounds,
        ] {
            let b = BudgetBreach {
                kind,
                limit: 1.5,
                observed: 2.25,
            };
            assert_eq!(BudgetBreach::from_bytes(&b.to_bytes()), Ok(b));
        }
        assert_eq!(
            BudgetBreach::from_bytes(&(9u8, 0.0, 0.0).to_bytes()),
            Err(WireError::BadTag(9))
        );
    }
}
