//! Heartbeat-based failure detector shared by all ranks of one run.
//!
//! Every rank heartbeats at each phase boundary
//! ([`Comm::phase_enter`](crate::comm::Comm::phase_enter), and through
//! it [`Comm::boundary`](crate::comm::Comm::boundary)), stamping its
//! virtual clock, phase name, and boundary count into its slot. When a
//! fault layer's kill schedule fires, the victim (and every survivor
//! that reaches the same boundary) marks the slot dead; a receive
//! blocked on a dead peer then surfaces
//! [`CommError::RankDead`](crate::CommError) with the victim's last
//! recorded heartbeat instead of hanging.
//!
//! The detector is *diagnostic* state: membership decisions (who is in
//! the world after a death) are taken deterministically from the kill
//! schedule at phase boundaries, never from racy detector reads, so
//! survivors always agree on the post-recovery world regardless of host
//! thread scheduling.

use std::sync::Mutex;

/// One rank's liveness slot.
#[derive(Debug, Clone, Copy)]
pub struct FailureInfo {
    pub alive: bool,
    /// Virtual clock of the rank's most recent heartbeat.
    pub last_heartbeat: f64,
    /// Phase the rank most recently reported (empty before the first
    /// boundary). For a dead rank: the phase it died at.
    pub phase: &'static str,
    /// Number of phase boundaries the rank had crossed.
    pub boundary: u64,
}

/// Shared (one per run) liveness table, indexed by physical rank.
#[derive(Debug)]
pub struct FailureDetector {
    slots: Mutex<Vec<FailureInfo>>,
}

impl FailureDetector {
    pub fn new(size: usize) -> Self {
        FailureDetector {
            slots: Mutex::new(vec![
                FailureInfo {
                    alive: true,
                    last_heartbeat: 0.0,
                    phase: "",
                    boundary: 0,
                };
                size
            ]),
        }
    }

    /// Record a heartbeat for `rank` at virtual time `tick`.
    pub fn heartbeat(&self, rank: usize, tick: f64, phase: &'static str, boundary: u64) {
        let mut slots = self.slots.lock().unwrap();
        let slot = &mut slots[rank];
        if slot.alive {
            slot.last_heartbeat = tick;
            slot.phase = phase;
            slot.boundary = boundary;
        }
    }

    /// Mark `rank` dead. Idempotent: the first death wins, so the
    /// recorded phase/boundary are the ones the victim actually died at
    /// and the last heartbeat is preserved.
    pub fn mark_dead(&self, rank: usize, phase: &'static str, boundary: u64) {
        let mut slots = self.slots.lock().unwrap();
        let slot = &mut slots[rank];
        if slot.alive {
            slot.alive = false;
            slot.phase = phase;
            slot.boundary = boundary;
        }
    }

    pub fn is_alive(&self, rank: usize) -> bool {
        self.slots.lock().unwrap()[rank].alive
    }

    pub fn snapshot(&self, rank: usize) -> FailureInfo {
        self.slots.lock().unwrap()[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_then_death_preserves_last_tick() {
        let det = FailureDetector::new(3);
        assert!(det.is_alive(1));
        det.heartbeat(1, 2.5, "coarse", 3);
        det.mark_dead(1, "feedthrough", 4);
        // A late heartbeat (or second death report) must not resurrect
        // or overwrite the death record.
        det.heartbeat(1, 9.0, "connect", 5);
        det.mark_dead(1, "connect", 5);
        let info = det.snapshot(1);
        assert!(!info.alive);
        assert_eq!(info.last_heartbeat, 2.5);
        assert_eq!(info.phase, "feedthrough");
        assert_eq!(info.boundary, 4);
        assert!(det.is_alive(0) && det.is_alive(2));
    }
}
