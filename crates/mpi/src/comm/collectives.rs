//! The collectives, built from point-to-point messages (binomial trees
//! and root loops) so their cost emerges from the same machine model.
//! Every rooted one roots at logical rank 0: the paper's master, which
//! after a shrink is the lowest survivor.
//!
//! Every frame is a typed one: each rank hands its value over, billed
//! at the bytes it encodes to (or, for a charged value, at what the
//! caller's bill says it stands for).
//!
//! Written purely against the facade: [`Comm::rank`]/[`Comm::size`],
//! the checked send entry, the typed receive and the trace hook — no
//! layer's state is reachable from here. The one piece of state the
//! collectives own is `coll_seq`, the counter that keeps successive
//! operations' internal tags apart.

use super::{Comm, Payload, Value, COLLECTIVE_TAG_BASE};
use crate::trace::TraceEventKind;
use crate::wire::Wire;
use std::sync::Arc;

/// What a collective bills each frame it sends: a function of the value
/// the frame carries.
type Bill<'a, T> = &'a dyn Fn(&T) -> usize;

impl Comm {
    /// Wraps one short of the top tag, which is the exit notice's.
    fn next_coll_tag(&mut self) -> u32 {
        let tag = COLLECTIVE_TAG_BASE | (self.coll_seq % 0x7FFF_FFFF);
        self.coll_seq = self.coll_seq.wrapping_add(1);
        tag
    }

    fn coll_enter(&mut self, op: &'static str) {
        if self.tracing() {
            self.record(TraceEventKind::Collective { op }, self.now(), self.now());
        }
    }

    /// Collective-internal send: `value` is handed over in a typed frame
    /// billed at `bytes` — a charged one if `charged`.
    fn send_tagged<T: Payload>(
        &mut self,
        dst: usize,
        tag: u32,
        value: T,
        bytes: usize,
        charged: bool,
    ) {
        self.post(dst, tag, Value::new(value, bytes, charged));
    }

    /// Collective-internal receive (of a charged frame if `charged`):
    /// like [`Comm::recv`] but the panic names the collective whose
    /// internal exchange failed, so a corrupt frame or dead peer inside
    /// e.g. an `allgather` is attributed to the operation the caller
    /// actually invoked.
    fn coll_recv<T: Payload>(
        &mut self,
        op: &'static str,
        src: usize,
        tag: u32,
        charged: bool,
    ) -> T {
        let (value, _) = self
            .accept(src, tag, charged)
            .unwrap_or_else(|e| panic!("collective {op} failed: {e}"));
        value
    }

    /// Block until all ranks reach the barrier; clocks synchronize to the
    /// slowest participant (plus tree costs).
    pub fn barrier(&mut self) {
        self.coll_enter("barrier");
        let tag = self.next_coll_tag();
        self.reduce_tagged("barrier", (), |_, _| (), tag);
        let tag2 = self.next_coll_tag();
        self.bcast_tagged("barrier", Some(()), tag2, &<()>::wire_len, false);
    }

    /// The binomial tree under every broadcast from rank 0 (`value` is
    /// `Some` there and ignored elsewhere): every rank gets the one shared
    /// copy, each child's frame billed at `bill` of it (charged if
    /// `charged`), never a clone of the value; a failed receive names
    /// `op`, the collective invoked.
    fn bcast_tagged<T: Payload>(
        &mut self,
        op: &'static str,
        value: Option<T>,
        tag: u32,
        bill: Bill<'_, T>,
        charged: bool,
    ) -> Arc<T> {
        let (rank, size) = (self.rank(), self.size());
        let mut value = if rank == 0 {
            Some(Arc::new(
                value.expect("rank 0 must supply the broadcast value"),
            ))
        } else {
            None
        };
        let mut step = 1;
        while step < size {
            if rank < step {
                let dst = rank + step;
                if dst < size {
                    let v = value.as_ref().expect("already received");
                    let bytes = bill(v);
                    self.send_tagged(dst, tag, Arc::clone(v), bytes, charged);
                }
            } else if rank < 2 * step {
                value = Some(self.coll_recv(op, rank - step, tag, charged));
            }
            step <<= 1;
        }
        value.expect("broadcast reaches every rank")
    }

    /// Reduce all ranks' values to rank 0 with `op` (binomial tree; the
    /// combine order is fixed by the tree, hence deterministic). Returns
    /// `Some(result)` on rank 0, `None` elsewhere.
    pub fn reduce<T: Wire + Payload, F: FnMut(T, T) -> T>(&mut self, value: T, op: F) -> Option<T> {
        self.coll_enter("reduce");
        let tag = self.next_coll_tag();
        self.reduce_tagged("reduce", value, op, tag)
    }

    /// The binomial tree under every reduction to rank 0; a failed
    /// receive names `op`, the collective invoked.
    fn reduce_tagged<T: Wire + Payload, F: FnMut(T, T) -> T>(
        &mut self,
        op: &'static str,
        value: T,
        mut combine: F,
        tag: u32,
    ) -> Option<T> {
        let (rank, size) = (self.rank(), self.size());
        let mut acc = value;
        let mut step = 1;
        while step < size {
            if rank & step != 0 {
                let bytes = acc.wire_len();
                self.send_tagged(rank - step, tag, acc, bytes, false);
                return None;
            }
            if rank + step < size {
                let other: T = self.coll_recv(op, rank + step, tag, false);
                acc = combine(acc, other);
            }
            step <<= 1;
        }
        debug_assert_eq!(rank, 0);
        Some(acc)
    }

    /// Reduce to rank 0 then broadcast: every rank gets the result.
    pub fn allreduce<T: Wire + Payload, F: FnMut(T, T) -> T>(&mut self, value: T, op: F) -> T {
        self.coll_enter("allreduce");
        let r = {
            let tag = self.next_coll_tag();
            self.reduce_tagged("allreduce", value, op, tag)
        };
        let tag = self.next_coll_tag();
        Arc::unwrap_or_clone(self.bcast_tagged("allreduce", r, tag, &T::wire_len, false))
    }

    /// Gather all ranks' values at rank 0, in rank order.
    pub fn gather<T: Wire + Payload>(&mut self, value: T) -> Option<Vec<T>> {
        self.coll_enter("gather");
        self.gather_to("gather", value, &T::wire_len, false)
    }

    /// The root loop under `gather` and `allgather`: every other rank
    /// hands its value to rank 0 (billed at `bill` of it, charged if
    /// `charged`); rank 0 keeps its own first and receives the rest in
    /// rank order.
    fn gather_to<T: Payload>(
        &mut self,
        op: &'static str,
        value: T,
        bill: Bill<'_, T>,
        charged: bool,
    ) -> Option<Vec<T>> {
        let tag = self.next_coll_tag();
        if self.rank() != 0 {
            let bytes = bill(&value);
            self.send_tagged(0, tag, value, bytes, charged);
            return None;
        }
        let mut out = Vec::with_capacity(self.size());
        out.push(value);
        out.extend((1..self.size()).map(|src| self.coll_recv(op, src, tag, charged)));
        Some(out)
    }

    /// Gather at rank 0 then broadcast the whole vector.
    pub fn allgather<T: Wire + Payload>(&mut self, value: T) -> Vec<T> {
        self.coll_enter("allgather");
        let g = self.gather_to("allgather", value, &T::wire_len, false);
        let tag = self.next_coll_tag();
        Arc::unwrap_or_clone(self.bcast_tagged("allgather", g, tag, &Vec::<T>::wire_len, false))
    }

    /// [`Comm::allgather`] of compact values, each standing for a dense
    /// value that encodes to `bill` of it: every account bills each rank's
    /// gather frame at `bill` of its value and the broadcast at
    /// `4 + Σ bill`, as `allgather` of the dense values does; the ranks
    /// hand the compact values over. A rank forwarding the broadcast sums
    /// the bills of the values it holds. Every rank reads the one gathered
    /// vector rank 0 holds: nothing is cloned for the broadcast.
    pub fn allgather_charged<T: Payload>(
        &mut self,
        value: T,
        bill: impl Fn(&T) -> usize,
    ) -> Arc<Vec<T>> {
        self.coll_enter("allgather");
        let g = self.gather_to("allgather", value, &bill, true);
        let tag = self.next_coll_tag();
        // A u32 count, then the values.
        let all = |all: &Vec<T>| 4 + all.iter().map(&bill).sum::<usize>();
        self.bcast_tagged("allgather", g, tag, &all, true)
    }

    /// Personalized all-to-all: `data[dst]` goes to rank `dst`; returns
    /// the bucket received from each source (own bucket passes through).
    /// A bucket is usually a `Vec`, but any value that encodes itself
    /// will do.
    pub fn alltoall<B: Wire + Payload + Default>(&mut self, data: Vec<B>) -> Vec<B> {
        let (rank, size) = (self.rank(), self.size());
        assert_eq!(data.len(), size, "alltoall needs one bucket per rank");
        self.coll_enter("alltoall");
        let tag = self.next_coll_tag();
        // Eager sends first (channels are unbounded, so this cannot block),
        // then receive in rank order for determinism.
        let mut own = B::default();
        for (dst, bucket) in data.into_iter().enumerate() {
            if dst == rank {
                own = bucket;
            } else {
                let bytes = bucket.wire_len();
                self.send_tagged(dst, tag, bucket, bytes, false);
            }
        }
        let mut out: Vec<B> = Vec::with_capacity(size);
        for src in 0..size {
            if src == rank {
                out.push(std::mem::take(&mut own));
            } else {
                out.push(self.coll_recv("alltoall", src, tag, false));
            }
        }
        out
    }
}
