//! Hot paths that must not allocate: the metrics API when metrics are
//! off (a disabled shard is one branch, no bookkeeping) and the density
//! profile's read path (the eval loops query it per candidate, so a
//! single allocation there multiplies by every span of every sweep).
//! And two that must not allocate *in proportion*: the profiles' bulk load
//! makes the same allocations however many spans it loads, and a modeled
//! transfer's heap bytes are independent of the size it models. And one
//! that must not allocate once warm: Connect's per-net kernel, whose
//! every buffer lives in the caller's `ConnectArena`.
//! This runs as a harness-less test (`harness = false` in Cargo.toml):
//! the libtest harness spawns helper threads whose own allocations would
//! race the process-wide counter, so the check must be the only thread
//! alive.

use pgr_geom::DensityProfile;
use pgr_mpi::{ClockMode, Comm, MachineModel, Phase};
use pgr_obs::MetricsConfig;
use pgr_router::route::connect::{connect_net_with, ConnectArena};
use pgr_router::route::state::{Node, WorkNet};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Heap bytes requested while `f` runs.
fn bytes_allocated_by(f: impl FnOnce()) -> u64 {
    let before = ALLOC_BYTES.load(Ordering::Relaxed);
    f();
    ALLOC_BYTES.load(Ordering::Relaxed) - before
}

// One scenario, plain `main`: disabled path, enabled first touch,
// enabled steady state.
fn main() {
    // Sanity: the counting hook actually fires.
    let before = allocs();
    let v = std::hint::black_box(vec![1u8, 2, 3]);
    assert!(allocs() > before, "counting allocator must observe allocs");
    drop(v);

    let mut comm = Comm::solo(MachineModel::ideal());
    assert!(!comm.metrics_enabled(), "solo comm has metrics off");

    let before = allocs();
    for i in 0..10_000u64 {
        comm.metric_window_open(Phase::ALL[(i % Phase::ALL.len() as u64) as usize]);
        comm.metric_add("bench.alloc.counter", 1);
        comm.metric_observe("bench.alloc.hist", i);
        comm.metric_gauge("bench.alloc.gauge", i as f64);
        comm.metric_window_close();
    }
    assert_eq!(
        allocs(),
        before,
        "disabled metrics must not allocate on add/observe/gauge/window"
    );

    // Contrast: the enabled path does allocate on first touch (name
    // registration) — proving the zero above is the branch, not a
    // miscounting hook.
    let mut comm = Comm::solo_with(
        MachineModel::ideal(),
        MetricsConfig::on(),
        ClockMode::Virtual,
    );
    assert!(comm.metrics_enabled());
    let before = allocs();
    comm.metric_add("bench.alloc.counter", 1);
    comm.metric_observe("bench.alloc.hist", 1);
    assert!(allocs() > before, "enabled first touch registers names");

    // First touch of each phase window allocates its store and the
    // per-window name slots...
    for phase in Phase::ALL {
        comm.metric_window_open(phase);
        comm.metric_add("bench.alloc.counter", 1);
        comm.metric_observe("bench.alloc.hist", 1);
    }

    // ...then steady state on the enabled path is allocation-free too,
    // even while rotating windows: repeat updates to registered names
    // only bump in-place slots, and re-opening a window is index lookup.
    let before = allocs();
    for i in 0..10_000u64 {
        comm.metric_window_open(Phase::ALL[(i % Phase::ALL.len() as u64) as usize]);
        comm.metric_add("bench.alloc.counter", 1);
        comm.metric_observe("bench.alloc.hist", i);
    }
    comm.metric_window_close();
    assert_eq!(allocs(), before, "steady-state updates must not allocate");

    // The density profile's read path: `counts()` allocates a fresh
    // vector per call, `counts_into` fills a caller-owned buffer — along
    // with the point/range queries and the updates it must stay
    // allocation-free whatever adds are pending in the tree.
    let mut p = DensityProfile::new(4096);
    for i in 0..500i64 {
        p.add_span((i * 7) % 4000, (i * 7) % 4000 + 60, 1);
    }
    let mut out = vec![0i64; p.width()];
    p.counts_into(&mut out);
    let before = allocs();
    for i in 0..1_000i64 {
        p.add_span((i * 11) % 4000, (i * 11) % 4000 + 30, 1);
        std::hint::black_box(p.max());
        std::hint::black_box(p.max_in(i % 4000, i % 4000 + 90));
        std::hint::black_box(p.max_if_added(i % 4000, i % 4000 + 90));
        std::hint::black_box(p.at((i % 4096) as usize));
        p.counts_into(&mut out);
        std::hint::black_box(out[2048]);
        p.add_span((i * 11) % 4000, (i * 11) % 4000 + 30, -1);
    }
    assert_eq!(
        allocs(),
        before,
        "density profile reads and updates must not allocate"
    );

    // The bulk load stages its spans in the profiles' own vectors and
    // shares one width-long scratch: the allocations it makes do not
    // depend on how many spans it loads (nor, beyond that scratch, on how
    // many profiles).
    let load_allocs = |nspans: i64| {
        let mut profiles = vec![DensityProfile::new(4096); 8];
        let spans = (0..nspans).map(|i| ((i % 8) as usize, (i * 7) % 4000, (i * 7) % 4000 + 60, 1));
        let before = allocs();
        DensityProfile::load_spans(&mut profiles, spans);
        std::hint::black_box(profiles[3].max());
        allocs() - before
    };
    assert_eq!(load_allocs(0), 1, "the scratch, once for all profiles");
    assert_eq!(load_allocs(10), load_allocs(50_000));

    // Connect: a first pass grows the arena to the largest net and the
    // span vector to its final length; a second pass over the same nets,
    // through the same arena into the same (cleared) vector, allocates
    // nothing — sort, candidates, union-find and tree are all in place.
    let works: Vec<WorkNet> = (0..200u32)
        .map(|k| WorkNet {
            net: pgr_circuit::NetId(k),
            nodes: (0..2 + (k * 37) % 90)
                .map(|i| Node::fake(((i * 13 + k) % 41) as i64, (i * 7 + k) % 6))
                .collect(),
        })
        .collect();
    let mut comm = Comm::solo(MachineModel::ideal());
    let mut arena = ConnectArena::default();
    let mut spans = Vec::new();
    let mut pass = |spans: &mut Vec<_>| -> u64 {
        spans.clear();
        works
            .iter()
            .map(|w| connect_net_with(w, &mut comm, &mut arena, spans).0)
            .sum()
    };
    let warm = pass(&mut spans);
    assert!(warm > 0 && !spans.is_empty());
    let before = allocs();
    let again = pass(&mut spans);
    assert_eq!(allocs(), before, "a warm Connect pass must not allocate");
    assert_eq!(again, warm);

    // A modeled transfer and its receive move a fixed-size header: the
    // heap bytes they ask for do not depend on the size modeled, where
    // the zero-filled frame they replace allocates every byte of it.
    const MIB: usize = 1 << 20;
    let mut comm = Comm::solo(MachineModel::ideal());
    let mut modeled_roundtrip = |n: usize| {
        comm.send_modeled(0, 1, n);
        assert_eq!(comm.recv_modeled(0, 1), n);
    };
    modeled_roundtrip(1); // warm: the pending queue's first growth
    let small = bytes_allocated_by(|| modeled_roundtrip(8));
    let large = bytes_allocated_by(|| modeled_roundtrip(MIB));
    assert_eq!(small, large, "modeled transfer heap bytes depend on N");
    assert!(large < 64, "a modeled transfer allocates {large} B");
    let real = bytes_allocated_by(|| {
        comm.send_bytes(0, 1, vec![0u8; MIB]);
        assert_eq!(comm.recv_bytes(0, 1).len(), MIB);
    });
    assert!(real >= MIB as u64, "the real frame allocates its payload");
}
