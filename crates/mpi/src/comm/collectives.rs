//! The collectives, built from point-to-point messages (binomial trees
//! and root loops) so their cost emerges from the same machine model.
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
    /// Wraps one short of the top tag, which is the abort frame's.
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
        self.reduce_tagged("barrier", 0, (), |_, _| (), tag);
        let tag2 = self.next_coll_tag();
        self.bcast_tagged("barrier", 0, Some(()), tag2, None);
    }

    /// Broadcast `value` from `root`. `value` must be `Some` on the root
    /// and is ignored elsewhere.
    pub fn bcast<T: Wire>(&mut self, root: usize, value: Option<T>) -> T {
        self.coll_enter("bcast");
        let tag = self.next_coll_tag();
        self.bcast_tagged("bcast", root, value, tag, None)
    }

    /// The binomial tree under every broadcast, its frames billed at
    /// `charge`; a failed receive names `op`, the collective invoked.
    fn bcast_tagged<T: Wire>(
        &mut self,
        op: &'static str,
        root: usize,
        value: Option<T>,
        tag: u32,
        charge: Option<usize>,
    ) -> T {
        let (rank, size) = (self.rank(), self.size());
        assert!(root < size);
        let rel = (rank + size - root) % size;
        let mut value = if rel == 0 {
            Some(value.expect("root must supply the broadcast value"))
        } else {
            None
        };
        let mut step = 1;
        while step < size {
            if rel < step {
                let dst_rel = rel + step;
                if dst_rel < size {
                    let dst = (dst_rel + root) % size;
                    let v = value.as_ref().expect("already received");
                    self.send_tagged(dst, tag, v, charge);
                }
            } else if rel < 2 * step {
                let src = (rel - step + root) % size;
                value = Some(self.coll_recv(op, src, tag, charge.is_some()));
            }
            step <<= 1;
        }
        value.expect("broadcast reaches every rank")
    }

    /// Reduce all ranks' values to `root` with `op` (binomial tree; the
    /// combine order is fixed by the tree, hence deterministic). Returns
    /// `Some(result)` on the root, `None` elsewhere.
    pub fn reduce<T: Wire, F: FnMut(T, T) -> T>(
        &mut self,
        root: usize,
        value: T,
        op: F,
    ) -> Option<T> {
        self.coll_enter("reduce");
        let tag = self.next_coll_tag();
        self.reduce_tagged("reduce", root, value, op, tag)
    }

    /// The binomial tree under every reduction; a failed receive names
    /// `op`, the collective invoked.
    fn reduce_tagged<T: Wire, F: FnMut(T, T) -> T>(
        &mut self,
        op: &'static str,
        root: usize,
        value: T,
        mut combine: F,
        tag: u32,
    ) -> Option<T> {
        let (rank, size) = (self.rank(), self.size());
        assert!(root < size);
        let rel = (rank + size - root) % size;
        let mut acc = value;
        let mut step = 1;
        while step < size {
            if rel & step != 0 {
                let dst = (rel - step + root) % size;
                self.send_tagged(dst, tag, &acc, None);
                return None;
            }
            if rel + step < size {
                let src = (rel + step + root) % size;
                let other: T = self.coll_recv(op, src, tag, false);
                acc = combine(acc, other);
            }
            step <<= 1;
        }
        debug_assert_eq!(rel, 0);
        Some(acc)
    }

    /// Reduce to rank 0 then broadcast: every rank gets the result.
    pub fn allreduce<T: Wire, F: FnMut(T, T) -> T>(&mut self, value: T, op: F) -> T {
        self.coll_enter("allreduce");
        let r = {
            let tag = self.next_coll_tag();
            self.reduce_tagged("allreduce", 0, value, op, tag)
        };
        let tag = self.next_coll_tag();
        self.bcast_tagged("allreduce", 0, r, tag, None)
    }

    /// Gather all ranks' values at `root`, in rank order.
    pub fn gather<T: Wire>(&mut self, root: usize, value: T) -> Option<Vec<T>> {
        self.coll_enter("gather");
        self.gather_to("gather", root, value, None)
    }

    /// The root loop under `gather` and `allgather`: everyone but `root`
    /// sends its value there (billed at `charge` bytes, if given); `root`
    /// receives in rank order and moves its own value into its slot.
    fn gather_to<T: Wire>(
        &mut self,
        op: &'static str,
        root: usize,
        value: T,
        charge: Option<usize>,
    ) -> Option<Vec<T>> {
        let tag = self.next_coll_tag();
        if self.rank() != root {
            self.send_tagged(root, tag, &value, charge);
            return None;
        }
        let charged = charge.is_some();
        let mut out = Vec::with_capacity(self.size());
        out.extend((0..root).map(|src| self.coll_recv(op, src, tag, charged)));
        out.push(value);
        out.extend((root + 1..self.size()).map(|src| self.coll_recv(op, src, tag, charged)));
        Some(out)
    }

    /// Gather at rank 0 then broadcast the whole vector.
    pub fn allgather<T: Wire>(&mut self, value: T) -> Vec<T> {
        self.allgather_billed(value, None)
    }

    /// [`Comm::allgather`] of compact values standing for `bytes_each`
    /// dense bytes on every rank: every account bills each gather frame at
    /// `bytes_each` and the broadcast at `4 + P · bytes_each`, as
    /// `allgather` of the dense values does; the host moves what `T` encodes.
    pub fn allgather_charged<T: Wire>(&mut self, value: T, bytes_each: usize) -> Vec<T> {
        self.allgather_billed(value, Some(bytes_each))
    }

    fn allgather_billed<T: Wire>(&mut self, value: T, each: Option<usize>) -> Vec<T> {
        self.coll_enter("allgather");
        let g = self.gather_to("allgather", 0, value, each);
        let tag = self.next_coll_tag();
        let all = each.map(|n| 4 + self.size() * n); // a u32 count, then the values
        self.bcast_tagged("allgather", 0, g, tag, all)
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
