//! In-memory phase-boundary checkpoint store for checkpointed recovery.
//!
//! At every phase boundary past the first, each rank commits a compact
//! snapshot of its pipeline-visible state into this store, keyed by
//! `(run attempt, phase index)`. The store stands in for the parallel
//! filesystem of a real cluster: it is shared across ranks behind an
//! `Arc` and survives rank death, exactly like the trace hub and the
//! failure detector. When a recovery round needs to resume instead of
//! restarting from scratch, survivors read back the *last globally
//! committed boundary* — the highest phase index at which **every**
//! member of the failed attempt's world deposited a restorable snapshot.
//!
//! Every payload is stamped with a CRC-32 (same polynomial as the frame
//! integrity check in [`crate::wire`]) at deposit and re-verified at
//! fetch; a snapshot that no longer matches its stamp is treated as
//! never committed, and the round falls back to a full restart.
//!
//! Snapshots come in two flavors:
//!
//! * **portable** — restorable in any shrunken world (the payload is a
//!   function of the circuit and config only, not of the rank count);
//! * **non-portable** — a metadata-only commit record: it participates
//!   in the commit protocol (proving the boundary was reached) but
//!   cannot seed a differently-sized world, so
//!   [`CheckpointStore::fetch`] refuses it.

use crate::wire::crc32;
use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// One rank's committed snapshot at one boundary.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Wire-encoded pipeline state (empty for non-portable commits).
    pub payload: Vec<u8>,
    /// CRC-32 over `payload`, computed at deposit.
    pub crc: u32,
    /// Whether the payload can seed a world of a different size.
    pub portable: bool,
    /// The logical → physical world map at deposit time; all deposits
    /// at one key must agree on it.
    pub world: Vec<usize>,
    /// Depositing rank's virtual clock at the boundary.
    pub clock: f64,
}

/// One deposit slot per logical rank of a boundary's world.
type BoundarySlots = Vec<Option<Snapshot>>;

/// Shared, rank-death-surviving checkpoint store. Keys are
/// `(run attempt, phase index)`; values hold one slot per logical rank
/// of that attempt's world.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    inner: Mutex<BTreeMap<(u32, usize), BoundarySlots>>,
    /// Signalled on every deposit; [`CheckpointStore::fetch_wait`]
    /// blocks on it until a boundary's slots fill up.
    filled: Condvar,
}

impl CheckpointStore {
    pub fn new() -> Self {
        CheckpointStore::default()
    }

    /// Commit one rank's snapshot at `(attempt, phase_idx)`. The CRC
    /// stamp is computed here, over the payload as deposited.
    #[allow(clippy::too_many_arguments)]
    pub fn deposit(
        &self,
        attempt: u32,
        phase_idx: usize,
        lrank: usize,
        world: &[usize],
        portable: bool,
        payload: Vec<u8>,
        clock: f64,
    ) {
        assert!(lrank < world.len(), "lrank {lrank} outside world {world:?}");
        let snap = Snapshot {
            crc: crc32(&payload),
            payload,
            portable,
            world: world.to_vec(),
            clock,
        };
        let mut inner = self.inner.lock().expect("checkpoint store poisoned");
        let slots = inner.entry((attempt, phase_idx)).or_default();
        if slots.len() < world.len() {
            slots.resize(world.len(), None);
        }
        slots[lrank] = Some(snap);
        drop(inner);
        self.filled.notify_all();
    }

    /// Read back every rank's payload at `(attempt, phase_idx)`, in
    /// logical-rank order of the depositing world, re-verifying each
    /// CRC stamp. `None` when the boundary is incomplete, non-portable,
    /// or any payload fails its integrity check.
    pub fn fetch(&self, attempt: u32, phase_idx: usize) -> Option<Vec<Vec<u8>>> {
        let inner = self.inner.lock().expect("checkpoint store poisoned");
        let slots = inner.get(&(attempt, phase_idx))?;
        slots
            .iter()
            .map(|s| {
                let s = s.as_ref()?;
                (s.portable && crc32(&s.payload) == s.crc).then(|| s.payload.clone())
            })
            .collect()
    }

    /// Block until every rank of the depositing world has committed
    /// `(attempt, phase_idx)`. Ranks run on free-running OS threads, so
    /// a survivor can reach the recovery protocol in real time before a
    /// slower peer — or the victim itself — has deposited the agreed
    /// boundary. Every member of the failed world deposits all
    /// boundaries up to the one it aborted at *before* unwinding (the
    /// victim included: it commits, then dies entering the phase), so
    /// the wait always terminates; the timeout panic only fires on a
    /// protocol bug, never on a legal schedule.
    ///
    /// After this returns, the slot set is frozen — a subsequent
    /// [`CheckpointStore::fetch`] gives every caller the same verdict.
    pub fn wait_complete(&self, attempt: u32, phase_idx: usize) {
        let complete = |map: &BTreeMap<(u32, usize), BoundarySlots>| {
            map.get(&(attempt, phase_idx))
                .is_some_and(|slots| !slots.is_empty() && slots.iter().all(|s| s.is_some()))
        };
        let mut inner = self.inner.lock().expect("checkpoint store poisoned");
        while !complete(&inner) {
            let (guard, timeout) = self
                .filled
                .wait_timeout(inner, Duration::from_secs(60))
                .expect("checkpoint store poisoned");
            inner = guard;
            assert!(
                !timeout.timed_out() || complete(&inner),
                "checkpoint boundary (attempt {attempt}, phase {phase_idx}) never \
                 fully committed: a rank aborted without depositing"
            );
        }
    }

    /// Chaos/test support: break the CRC stamp of every snapshot stored
    /// at `(attempt, phase_idx)`, so the next [`CheckpointStore::fetch`]
    /// must reject the boundary and the recovery round must fall back to
    /// a full restart. Idempotent — each surviving rank of a recovery
    /// round may trigger the same scheduled corruption independently.
    pub fn corrupt(&self, attempt: u32, phase_idx: usize) {
        let mut inner = self.inner.lock().expect("checkpoint store poisoned");
        if let Some(slots) = inner.get_mut(&(attempt, phase_idx)) {
            for snap in slots.iter_mut().flatten() {
                snap.crc = !crc32(&snap.payload);
            }
        }
    }

    /// Total snapshots currently held (all attempts, all boundaries).
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().expect("checkpoint store poisoned");
        inner
            .values()
            .map(|slots| slots.iter().flatten().count())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_boundary(store: &CheckpointStore, attempt: u32, phase_idx: usize, world: &[usize]) {
        for lrank in 0..world.len() {
            store.deposit(
                attempt,
                phase_idx,
                lrank,
                world,
                true,
                vec![lrank as u8, phase_idx as u8],
                1.5,
            );
        }
    }

    #[test]
    fn fetch_needs_every_rank() {
        let store = CheckpointStore::new();
        assert_eq!(store.fetch(0, 1), None);
        let world = [0, 1, 2];
        store.deposit(0, 1, 0, &world, true, vec![1], 0.0);
        store.deposit(0, 1, 2, &world, true, vec![3], 0.0);
        // Rank 1's deposit is missing: not globally committed.
        assert_eq!(store.fetch(0, 1), None);
        store.deposit(0, 1, 1, &world, true, vec![2], 0.0);
        assert_eq!(store.fetch(0, 1), Some(vec![vec![1], vec![2], vec![3]]));
    }

    #[test]
    fn highest_fully_committed_boundary_wins_and_attempts_are_disjoint() {
        let store = CheckpointStore::new();
        let world = [0, 1];
        full_boundary(&store, 0, 1, &world);
        full_boundary(&store, 0, 2, &world);
        // Boundary 3 is only half committed.
        store.deposit(0, 3, 0, &world, true, vec![9], 0.0);
        assert!(store.fetch(0, 2).is_some());
        assert_eq!(store.fetch(0, 3), None);
        assert_eq!(store.fetch(1, 2), None);
        full_boundary(&store, 1, 2, &[0]);
        assert_eq!(store.fetch(1, 2), Some(vec![vec![0, 2]]));
        assert_eq!(store.len(), 6);
    }

    #[test]
    fn non_portable_commits_do_not_restore() {
        let store = CheckpointStore::new();
        let world = [0, 1];
        full_boundary(&store, 0, 2, &world);
        for lrank in 0..world.len() {
            store.deposit(0, 3, lrank, &world, false, Vec::new(), 2.0);
        }
        // Boundary 3 is committed by everyone but metadata-only: the
        // best *restorable* boundary stays 2, and fetching 3 fails.
        assert!(store.fetch(0, 2).is_some());
        assert_eq!(store.fetch(0, 3), None);
    }

    #[test]
    fn fetch_returns_payloads_in_lrank_order() {
        let store = CheckpointStore::new();
        let world = [0, 1, 3];
        full_boundary(&store, 0, 2, &world);
        let payloads = store.fetch(0, 2).expect("committed boundary fetches");
        assert_eq!(payloads, vec![vec![0u8, 2], vec![1, 2], vec![2, 2]]);
    }

    #[test]
    fn corruption_is_caught_by_the_crc_stamp() {
        let store = CheckpointStore::new();
        let world = [0, 1];
        full_boundary(&store, 0, 2, &world);
        assert!(store.fetch(0, 2).is_some());
        store.corrupt(0, 2);
        assert_eq!(store.fetch(0, 2), None);
    }

    #[test]
    fn corrupting_an_empty_payload_breaks_the_stamp() {
        let store = CheckpointStore::new();
        let world = [0];
        store.deposit(0, 1, 0, &world, true, Vec::new(), 0.0);
        assert!(store.fetch(0, 1).is_some());
        store.corrupt(0, 1);
        assert_eq!(store.fetch(0, 1), None);
    }
}
