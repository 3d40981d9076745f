//! In-memory phase-boundary checkpoint store for checkpointed recovery.
//!
//! At every phase boundary past the first, each rank commits a compact
//! snapshot of its pipeline-visible state into this store, keyed by
//! `(run attempt, phase index)`. The store stands in for the parallel
//! filesystem of a real cluster: it is shared across ranks behind an
//! `Arc` and survives rank death. When a recovery round needs to resume
//! instead of restarting from scratch, survivors read back the *last
//! globally committed boundary* — the highest phase index at which
//! **every** member of the failed attempt's world deposited a restorable
//! snapshot.
//! The store never waits: the recovery protocol reads a boundary only
//! once every depositor is known to be done
//! ([`Comm::shrink_world`](crate::Comm::shrink_world)), so a boundary is
//! complete or it never will be.
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
use std::sync::Mutex;

/// One rank's committed snapshot at one boundary.
#[derive(Debug, Clone)]
pub(crate) struct Snapshot {
    /// Wire-encoded pipeline state (empty for non-portable commits).
    pub payload: Vec<u8>,
    /// CRC-32 over `payload`, computed at deposit.
    pub crc: u32,
    /// Whether the payload can seed a world of a different size.
    pub portable: bool,
}

/// One deposit slot per logical rank of a boundary's world.
type BoundarySlots = Vec<Option<Snapshot>>;

/// Shared, rank-death-surviving checkpoint store. Keys are
/// `(run attempt, phase index)`; values hold one slot per logical rank
/// of that attempt's world.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    inner: Mutex<BTreeMap<(u32, usize), BoundarySlots>>,
}

impl CheckpointStore {
    pub fn new() -> Self {
        CheckpointStore::default()
    }

    /// Commit logical rank `lrank`'s snapshot at `(attempt, phase_idx)`
    /// of a world of `size` ranks (one world per attempt, so every
    /// deposit at one key agrees on it). The CRC stamp is computed here,
    /// over the payload as deposited.
    pub fn deposit(
        &self,
        attempt: u32,
        phase_idx: usize,
        lrank: usize,
        size: usize,
        portable: bool,
        payload: Vec<u8>,
    ) {
        assert!(lrank < size, "lrank {lrank} outside a world of {size}");
        let snap = Snapshot {
            crc: crc32(&payload),
            payload,
            portable,
        };
        let mut inner = self.inner.lock().expect("checkpoint store poisoned");
        let slots = inner.entry((attempt, phase_idx)).or_default();
        if slots.len() < size {
            slots.resize(size, None);
        }
        slots[lrank] = Some(snap);
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

    /// Total snapshots held (all attempts, all boundaries): what the
    /// tests assert a deposit left behind.
    #[cfg(test)]
    pub(crate) fn held(&self) -> usize {
        let inner = self.inner.lock().expect("checkpoint store poisoned");
        inner
            .values()
            .map(|slots| slots.iter().flatten().count())
            .sum()
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
                world.len(),
                true,
                vec![lrank as u8, phase_idx as u8],
            );
        }
    }

    #[test]
    fn fetch_needs_every_rank() {
        let store = CheckpointStore::new();
        assert_eq!(store.fetch(0, 1), None);
        let world = [0, 1, 2];
        store.deposit(0, 1, 0, world.len(), true, vec![1]);
        store.deposit(0, 1, 2, world.len(), true, vec![3]);
        // Rank 1's deposit is missing: not globally committed.
        assert_eq!(store.fetch(0, 1), None);
        store.deposit(0, 1, 1, world.len(), true, vec![2]);
        assert_eq!(store.fetch(0, 1), Some(vec![vec![1], vec![2], vec![3]]));
    }

    #[test]
    fn highest_fully_committed_boundary_wins_and_attempts_are_disjoint() {
        let store = CheckpointStore::new();
        let world = [0, 1];
        full_boundary(&store, 0, 1, &world);
        full_boundary(&store, 0, 2, &world);
        // Boundary 3 is only half committed.
        store.deposit(0, 3, 0, world.len(), true, vec![9]);
        assert!(store.fetch(0, 2).is_some());
        assert_eq!(store.fetch(0, 3), None);
        assert_eq!(store.fetch(1, 2), None);
        full_boundary(&store, 1, 2, &[0]);
        assert_eq!(store.fetch(1, 2), Some(vec![vec![0, 2]]));
        assert_eq!(store.held(), 6);
    }

    #[test]
    fn non_portable_commits_do_not_restore() {
        let store = CheckpointStore::new();
        let world = [0, 1];
        full_boundary(&store, 0, 2, &world);
        for lrank in 0..world.len() {
            store.deposit(0, 3, lrank, world.len(), false, Vec::new());
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
        store.deposit(0, 1, 0, world.len(), true, Vec::new());
        assert!(store.fetch(0, 1).is_some());
        store.corrupt(0, 1);
        assert_eq!(store.fetch(0, 1), None);
    }
}
