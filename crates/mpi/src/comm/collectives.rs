//! The collectives, built from point-to-point messages (binomial trees
//! and root loops) so their cost emerges from the same machine model.
//! Every rooted one roots at logical rank 0: the paper's master, which
//! after a shrink is the lowest survivor.
//!
//! Written purely against the facade: [`Comm::rank`]/[`Comm::size`],
//! the checked send entry, the typed receive and the trace hook — no
//! layer's state is reachable from here. The one piece of state the
//! collectives own is `coll_seq`, the counter that keeps successive
//! operations' internal tags apart.

use super::{Body, Comm, COLLECTIVE_TAG_BASE};
use crate::trace::TraceEventKind;
use crate::wire::Wire;

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

    /// Collective-internal send: `value` travels, billed at `charge` bytes if given.
    fn send_tagged<T: Wire>(&mut self, dst: usize, tag: u32, value: &T, charge: Option<usize>) {
        let payload = value.to_bytes();
        let body = match charge {
            None => Body::Bytes(payload),
            Some(bytes) => Body::Modeled { bytes, payload },
        };
        self.post(dst, tag, body);
    }

    /// Collective-internal receive (of a charged frame if `charged`):
    /// like [`Comm::recv`] but the panic names the collective whose
    /// internal exchange failed, so a corrupt frame or dead peer inside
    /// e.g. an `allgather` is attributed to the operation the caller
    /// actually invoked.
    fn coll_recv<T: Wire>(&mut self, op: &'static str, src: usize, tag: u32, charged: bool) -> T {
        self.recv_as(src, tag, charged)
            .unwrap_or_else(|e| panic!("collective {op} failed: {e}"))
    }

    /// Block until all ranks reach the barrier; clocks synchronize to the
    /// slowest participant (plus tree costs).
    pub fn barrier(&mut self) {
        self.coll_enter("barrier");
        let tag = self.next_coll_tag();
        self.reduce_tagged("barrier", (), |_, _| (), tag);
        let tag2 = self.next_coll_tag();
        self.bcast_tagged("barrier", Some(()), tag2, None);
    }

    /// The binomial tree under every broadcast from rank 0 (`value` is
    /// `Some` there and ignored elsewhere), each frame billed at `charge`
    /// of the value it carries; a failed receive names `op`, the
    /// collective invoked.
    fn bcast_tagged<T: Wire>(
        &mut self,
        op: &'static str,
        value: Option<T>,
        tag: u32,
        charge: Option<&dyn Fn(&T) -> usize>,
    ) -> T {
        let (rank, size) = (self.rank(), self.size());
        let mut value = if rank == 0 {
            Some(value.expect("rank 0 must supply the broadcast value"))
        } else {
            None
        };
        let mut step = 1;
        while step < size {
            if rank < step {
                let dst = rank + step;
                if dst < size {
                    let v = value.as_ref().expect("already received");
                    self.send_tagged(dst, tag, v, charge.map(|bill| bill(v)));
                }
            } else if rank < 2 * step {
                value = Some(self.coll_recv(op, rank - step, tag, charge.is_some()));
            }
            step <<= 1;
        }
        value.expect("broadcast reaches every rank")
    }

    /// Reduce all ranks' values to rank 0 with `op` (binomial tree; the
    /// combine order is fixed by the tree, hence deterministic). Returns
    /// `Some(result)` on rank 0, `None` elsewhere.
    pub fn reduce<T: Wire, F: FnMut(T, T) -> T>(&mut self, value: T, op: F) -> Option<T> {
        self.coll_enter("reduce");
        let tag = self.next_coll_tag();
        self.reduce_tagged("reduce", value, op, tag)
    }

    /// The binomial tree under every reduction to rank 0; a failed
    /// receive names `op`, the collective invoked.
    fn reduce_tagged<T: Wire, F: FnMut(T, T) -> T>(
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
                self.send_tagged(rank - step, tag, &acc, None);
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
    pub fn allreduce<T: Wire, F: FnMut(T, T) -> T>(&mut self, value: T, op: F) -> T {
        self.coll_enter("allreduce");
        let r = {
            let tag = self.next_coll_tag();
            self.reduce_tagged("allreduce", value, op, tag)
        };
        let tag = self.next_coll_tag();
        self.bcast_tagged("allreduce", r, tag, None)
    }

    /// Gather all ranks' values at rank 0, in rank order.
    pub fn gather<T: Wire>(&mut self, value: T) -> Option<Vec<T>> {
        self.coll_enter("gather");
        self.gather_to("gather", value, None)
    }

    /// The root loop under `gather` and `allgather`: every other rank
    /// sends its value to rank 0 (billed at `charge` of it, if given);
    /// rank 0 keeps its own first and receives the rest in rank order.
    fn gather_to<T: Wire>(
        &mut self,
        op: &'static str,
        value: T,
        charge: Option<&dyn Fn(&T) -> usize>,
    ) -> Option<Vec<T>> {
        let tag = self.next_coll_tag();
        if self.rank() != 0 {
            self.send_tagged(0, tag, &value, charge.map(|bill| bill(&value)));
            return None;
        }
        let charged = charge.is_some();
        let mut out = Vec::with_capacity(self.size());
        out.push(value);
        out.extend((1..self.size()).map(|src| self.coll_recv(op, src, tag, charged)));
        Some(out)
    }

    /// Gather at rank 0 then broadcast the whole vector.
    pub fn allgather<T: Wire>(&mut self, value: T) -> Vec<T> {
        self.allgather_billed(value, None)
    }

    /// [`Comm::allgather`] of compact values, each standing for a dense
    /// value that encodes to `bill` of it: every account bills each rank's
    /// gather frame at `bill` of its value and the broadcast at
    /// `4 + Σ bill`, as `allgather` of the dense values does; the host
    /// moves what `T` encodes. A rank forwarding the broadcast sums the
    /// bills of the values it holds.
    pub fn allgather_charged<T: Wire>(&mut self, value: T, bill: impl Fn(&T) -> usize) -> Vec<T> {
        self.allgather_billed(value, Some(&bill))
    }

    fn allgather_billed<T: Wire>(
        &mut self,
        value: T,
        bill: Option<&dyn Fn(&T) -> usize>,
    ) -> Vec<T> {
        self.coll_enter("allgather");
        let g = self.gather_to("allgather", value, bill);
        let tag = self.next_coll_tag();
        // A u32 count, then the values.
        let all = bill.map(|bill| move |all: &Vec<T>| 4 + all.iter().map(bill).sum::<usize>());
        let all = all.as_ref().map(|f| f as &dyn Fn(&Vec<T>) -> usize);
        self.bcast_tagged("allgather", g, tag, all)
    }

    /// Personalized all-to-all: `data[dst]` goes to rank `dst`; returns
    /// the bucket received from each source (own bucket passes through).
    /// A bucket is usually a `Vec`, but any value that encodes itself
    /// will do.
    pub fn alltoall<B: Wire + Default>(&mut self, data: Vec<B>) -> Vec<B> {
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
                self.send_tagged(dst, tag, &bucket, None);
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
