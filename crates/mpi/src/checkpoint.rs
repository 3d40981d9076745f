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
//! A snapshot is an immutable value behind an `Arc` that the store owns,
//! so it outlives the rank thread that deposited it; it is billed at its
//! encoded length and never encoded. Rot is a mark: a fault layer's
//! scheduled corruption marks a boundary's snapshots, and
//! [`CheckpointStore::fetch`] refuses a marked one as never committed,
//! so the round falls back to a full restart.
//!
//! Snapshots come in two flavors:
//!
//! * **portable** — restorable in any shrunken world (the value is a
//!   function of the circuit and config only, not of the rank count);
//! * **non-portable** — a metadata-only commit record: it participates
//!   in the commit protocol (proving the boundary was reached) but
//!   cannot seed a differently-sized world, so
//!   [`CheckpointStore::fetch`] refuses it.

use crate::comm::Payload;
use crate::wire::Wire;
use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// One rank's portable snapshot at one boundary: an immutable value,
/// shared, billed at the bytes it encodes to.
#[derive(Clone)]
pub struct Snapshot {
    value: Arc<dyn Any + Send + Sync>,
    /// [`Wire::wire_len`] of the value: what the checkpoint bills.
    pub(crate) bytes: usize,
}

impl Snapshot {
    /// `value` as a snapshot, billed at its [`Wire::wire_len`].
    pub fn new<T: Wire + Payload>(value: T) -> Self {
        Snapshot {
            bytes: value.wire_len(),
            value: Arc::new(value),
        }
    }

    /// The value, if it is a `T`.
    pub fn get<T: Any>(&self) -> Option<&T> {
        self.value.downcast_ref()
    }
}

impl fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Snapshot({} B)", self.bytes)
    }
}

/// One rank's commit at one boundary.
#[derive(Debug, Clone)]
struct Slot {
    /// `None` for a non-portable (metadata-only) commit.
    snapshot: Option<Snapshot>,
    /// Set by [`CheckpointStore::corrupt`]: the snapshot rotted.
    marked: bool,
}

/// One deposit slot per logical rank of a boundary's world.
type BoundarySlots = Vec<Option<Slot>>;

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
    /// deposit at one key agrees on it); `None` commits a metadata-only
    /// record.
    pub(crate) fn deposit(
        &self,
        attempt: u32,
        phase_idx: usize,
        lrank: usize,
        size: usize,
        snapshot: Option<Snapshot>,
    ) {
        assert!(lrank < size, "lrank {lrank} outside a world of {size}");
        let mut inner = self.inner.lock().expect("checkpoint store poisoned");
        let slots = inner.entry((attempt, phase_idx)).or_default();
        if slots.len() < size {
            slots.resize(size, None);
        }
        slots[lrank] = Some(Slot {
            snapshot,
            marked: false,
        });
    }

    /// Read back every rank's snapshot at `(attempt, phase_idx)`, in
    /// logical-rank order of the depositing world. `None` when the
    /// boundary is incomplete, non-portable, or any snapshot is marked.
    pub(crate) fn fetch(&self, attempt: u32, phase_idx: usize) -> Option<Vec<Snapshot>> {
        let inner = self.inner.lock().expect("checkpoint store poisoned");
        let slots = inner.get(&(attempt, phase_idx))?;
        slots
            .iter()
            .map(|s| s.as_ref().filter(|s| !s.marked)?.snapshot.clone())
            .collect()
    }

    /// Chaos/test support: mark every snapshot stored at
    /// `(attempt, phase_idx)` as rotted, so the next
    /// [`CheckpointStore::fetch`] must refuse the boundary and the
    /// recovery round must fall back to a full restart. Idempotent —
    /// each surviving rank of a recovery round may trigger the same
    /// scheduled corruption independently.
    pub(crate) fn corrupt(&self, attempt: u32, phase_idx: usize) {
        let mut inner = self.inner.lock().expect("checkpoint store poisoned");
        if let Some(slots) = inner.get_mut(&(attempt, phase_idx)) {
            for slot in slots.iter_mut().flatten() {
                slot.marked = true;
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

    fn snapshot(bytes: Vec<u8>) -> Option<Snapshot> {
        Some(Snapshot::new(bytes))
    }

    /// The values of a fetch, as the byte vectors deposited.
    fn fetched(store: &CheckpointStore, attempt: u32, phase_idx: usize) -> Option<Vec<Vec<u8>>> {
        let snapshots = store.fetch(attempt, phase_idx)?;
        let values = snapshots.iter().map(|s| s.get::<Vec<u8>>().cloned());
        Some(values.collect::<Option<_>>().expect("byte vectors"))
    }

    fn full_boundary(store: &CheckpointStore, attempt: u32, phase_idx: usize, world: &[usize]) {
        for lrank in 0..world.len() {
            let value = vec![lrank as u8, phase_idx as u8];
            store.deposit(attempt, phase_idx, lrank, world.len(), snapshot(value));
        }
    }

    #[test]
    fn fetch_needs_every_rank() {
        let store = CheckpointStore::new();
        assert_eq!(fetched(&store, 0, 1), None);
        let world = [0, 1, 2];
        store.deposit(0, 1, 0, world.len(), snapshot(vec![1]));
        store.deposit(0, 1, 2, world.len(), snapshot(vec![3]));
        // Rank 1's deposit is missing: not globally committed.
        assert_eq!(fetched(&store, 0, 1), None);
        store.deposit(0, 1, 1, world.len(), snapshot(vec![2]));
        assert_eq!(fetched(&store, 0, 1), Some(vec![vec![1], vec![2], vec![3]]));
    }

    #[test]
    fn highest_fully_committed_boundary_wins_and_attempts_are_disjoint() {
        let store = CheckpointStore::new();
        let world = [0, 1];
        full_boundary(&store, 0, 1, &world);
        full_boundary(&store, 0, 2, &world);
        // Boundary 3 is only half committed.
        store.deposit(0, 3, 0, world.len(), snapshot(vec![9]));
        assert!(store.fetch(0, 2).is_some());
        assert_eq!(fetched(&store, 0, 3), None);
        assert_eq!(fetched(&store, 1, 2), None);
        full_boundary(&store, 1, 2, &[0]);
        assert_eq!(fetched(&store, 1, 2), Some(vec![vec![0, 2]]));
        assert_eq!(store.held(), 6);
    }

    #[test]
    fn non_portable_commits_do_not_restore() {
        let store = CheckpointStore::new();
        let world = [0, 1];
        full_boundary(&store, 0, 2, &world);
        for lrank in 0..world.len() {
            store.deposit(0, 3, lrank, world.len(), None);
        }
        // Boundary 3 is committed by everyone but metadata-only: the
        // best *restorable* boundary stays 2, and fetching 3 fails.
        assert!(store.fetch(0, 2).is_some());
        assert_eq!(fetched(&store, 0, 3), None);
    }

    #[test]
    fn fetch_returns_payloads_in_lrank_order() {
        let store = CheckpointStore::new();
        let world = [0, 1, 3];
        full_boundary(&store, 0, 2, &world);
        let payloads = fetched(&store, 0, 2).expect("committed boundary fetches");
        assert_eq!(payloads, vec![vec![0u8, 2], vec![1, 2], vec![2, 2]]);
    }

    #[test]
    fn corruption_is_caught_by_the_crc_stamp() {
        let store = CheckpointStore::new();
        let world = [0, 1];
        full_boundary(&store, 0, 2, &world);
        assert!(store.fetch(0, 2).is_some());
        store.corrupt(0, 2);
        assert_eq!(fetched(&store, 0, 2), None, "a marked snapshot is refused");
        store.corrupt(0, 2);
        assert_eq!(fetched(&store, 0, 2), None, "marking is idempotent");
    }

    #[test]
    fn corrupting_an_empty_payload_breaks_the_stamp() {
        // A stateless snapshot (billed at nothing) is marked and refused
        // like any other.
        let store = CheckpointStore::new();
        store.deposit(0, 1, 0, 1, Some(Snapshot::new(())));
        let stateless = store.fetch(0, 1).expect("committed");
        assert_eq!(
            (stateless[0].bytes, stateless[0].get::<()>()),
            (0, Some(&()))
        );
        store.corrupt(0, 1);
        assert!(store.fetch(0, 1).is_none(), "a marked snapshot is refused");
    }
}
