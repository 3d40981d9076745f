//! Hot paths that must not allocate: the metrics API when metrics are
//! off (a disabled shard is one branch, no bookkeeping), a sub-phase
//! timer that does not time, a warm one, and the density
//! profile's read path (the eval loops query it per candidate, so a
//! single allocation there multiplies by every span of every sweep), and
//! the profiles' bulk load, however many spans it loads. And one that must
//! not allocate *in proportion*: a modeled transfer's heap bytes are
//! independent of the size it models. And one
//! that must not allocate once warm, or once sized for its largest net:
//! Connect's per-net kernel, whose every buffer lives in the caller's
//! `ConnectArena`, and step 1's Prim, whose scratch the Steiner pass
//! keeps across its nets. And step 3's
//! rebuild of the node store, which allocates the same few buffers for
//! any number of nets. And the serial route's heap peak: the work nets,
//! the spans and the channel profiles — the three largest stores of
//! Connect — are never live at once.
//! This runs as a harness-less test (`harness = false` in Cargo.toml):
//! the libtest harness spawns helper threads whose own allocations would
//! race the process-wide counter, so the check must be the only thread
//! alive.

use pgr_circuit::{generate, GeneratorConfig, NetId};
use pgr_geom::{DensityProfile, Point, PrimScratch};
use pgr_mpi::{ClockMode, Comm, MachineModel, Phase};
use pgr_obs::{MetricsConfig, MetricsShard};
use pgr_router::metrics::names;
use pgr_router::parallel::common::merge_by;
use pgr_router::route::connect::{connect_net_with, ConnectArena};
use pgr_router::route::feedthrough::{assign, Crossing, FtPlan};
use pgr_router::route::state::{Grid, Node, Span, WorkNets};
use pgr_router::{try_route_serial, RouterConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed, and the most of them seen at once.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters never influence what is allocated or freed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        grew(new_size);
        // SAFETY: as above, and the caller upholds `realloc`'s contract.
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

/// What `f` returns, and the most heap bytes live at once while it ran
/// above those live when it began.
fn peak_above_start<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = LIVE.load(Ordering::Relaxed);
    PEAK.store(start, Ordering::Relaxed);
    let out = f();
    (out, (PEAK.load(Ordering::Relaxed) - start) as u64)
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

    // A sub-phase timer on a shard that does not time (metrics off, or
    // on under a virtual clock) reads no clock and allocates nothing; a
    // timing shard allocates a timer's slot on its first use only.
    let shards = [
        MetricsShard::new(MetricsConfig::off()).timed(true),
        MetricsShard::new(MetricsConfig::on()).timed(false),
    ];
    for mut shard in shards {
        shard.open_window(Phase::Coarse);
        let before = allocs();
        for _ in 0..10_000 {
            let start = shard.start_timer();
            shard.stop_timer("bench.alloc.timer", start);
        }
        assert_eq!(allocs(), before, "timers that are off must not allocate");
        assert!(shard.timers().is_empty());
    }
    let mut shard = MetricsShard::new(MetricsConfig::on()).timed(true);
    for phase in Phase::ALL {
        shard.open_window(phase);
        let start = shard.start_timer();
        shard.stop_timer("bench.alloc.timer", start);
    }
    let before = allocs();
    for i in 0..10_000u64 {
        shard.open_window(Phase::ALL[(i % Phase::ALL.len() as u64) as usize]);
        let start = shard.start_timer();
        shard.stop_timer("bench.alloc.timer", start);
    }
    assert_eq!(allocs(), before, "a warm timer must not allocate");

    // The router's timers go through its `Comm`: off there (metrics off,
    // or on under a virtual clock), they allocate nothing either.
    let comms = [
        Comm::solo(MachineModel::ideal()),
        Comm::solo_with(
            MachineModel::ideal(),
            MetricsConfig::on(),
            ClockMode::Virtual,
        ),
    ];
    for mut comm in comms {
        comm.metric_window_open(Phase::Connect);
        let before = allocs();
        for _ in 0..10_000 {
            for name in [names::FT_ASSIGN, names::FT_ATTACH, names::CONNECT_KERNEL] {
                let start = comm.start_timer();
                comm.stop_timer(name, start);
            }
        }
        assert_eq!(
            allocs(),
            before,
            "a router timer that is off must not allocate"
        );
    }

    // The hybrid's order restore merges the span arrivals in the longest
    // one's buffer: one allocation (its growth to the total), nothing
    // for the other arrivals' cursors.
    let span = |net: u32| Span::new(NetId(net), net % 7, 0, 1, None);
    let arrivals = |nets: [u32; 3]| -> Vec<Vec<Span>> {
        (0..4)
            .map(|a| (0..nets[a % 3]).map(|i| span(i * 4 + a as u32)).collect())
            .collect()
    };
    for nets in [[3, 0, 9], [2_000, 10, 500]] {
        let parts = arrivals(nets);
        let total: usize = parts.iter().map(Vec::len).sum();
        let before = allocs();
        let merged = merge_by(parts, |s| s.net);
        assert_eq!(allocs() - before, 1, "the order restore of {nets:?}");
        assert_eq!((merged.len(), merged.capacity()), (total, total));
        assert!(merged.is_sorted_by_key(|s| s.net));
    }

    // The density profile's point/range queries and updates stay
    // allocation-free, the recount after a last peak column drops included.
    let mut p = DensityProfile::new(4096);
    for i in 0..500i64 {
        p.add_span((i * 7) % 4000, (i * 7) % 4000 + 60, 1);
    }
    let before = allocs();
    for i in 0..1_000i64 {
        p.add_span((i * 11) % 4000, (i * 11) % 4000 + 30, 1);
        std::hint::black_box(p.max());
        std::hint::black_box(p.max_in(i % 4000, i % 4000 + 90));
        std::hint::black_box(p.max_if_added(i % 4000, i % 4000 + 90));
        std::hint::black_box(p.max_if_removed(i % 4000, i % 4000 + 90));
        std::hint::black_box(p.at((i % 4096) as usize));
        p.add_span((i * 11) % 4000, (i * 11) % 4000 + 30, -1);
    }
    assert_eq!(
        allocs(),
        before,
        "density profile reads and updates must not allocate"
    );

    // The bulk load stages its spans in the profiles' own columns and sums
    // them in place: it allocates nothing, however many spans it loads.
    let load_allocs = |nspans: i64| {
        let mut profiles = vec![DensityProfile::new(4096); 8];
        let spans = (0..nspans).map(|i| ((i % 8) as usize, (i * 7) % 4000, (i * 7) % 4000 + 60, 1));
        let before = allocs();
        DensityProfile::load_spans(&mut profiles, spans);
        std::hint::black_box(profiles[3].max());
        allocs() - before
    };
    for nspans in [0, 10, 50_000] {
        assert_eq!(load_allocs(nspans), 0, "load_spans of {nspans} spans");
    }

    // Connect: a first pass grows the arena to the largest net and the
    // span vector to its final length; a second pass over the same nets,
    // read in place from the store, through the same arena into the same
    // (cleared) vector, allocates nothing — candidates, union-find and
    // tree are all in place.
    let mut works = WorkNets::default();
    for k in 0..200u32 {
        let mut nodes: Vec<Node> = (0..2 + (k * 37) % 90)
            .map(|i| Node::fake(((i * 13 + k) % 41) as i64, (i * 7 + k) % 6))
            .collect();
        nodes.sort_unstable_by_key(Node::sort_key); // the store's order
        works.push(NetId(k), nodes);
    }
    let mut comm = Comm::solo(MachineModel::ideal());
    let mut arena = ConnectArena::default();
    let mut spans = Vec::new();
    let mut pass = |spans: &mut Vec<_>| -> u64 {
        spans.clear();
        works
            .iter()
            .map(|(net, nodes)| connect_net_with(net, nodes, &mut comm, &mut arena, spans).0)
            .sum()
    };
    let warm = pass(&mut spans);
    assert!(warm > 0 && !spans.is_empty());
    let before = allocs();
    let again = pass(&mut spans);
    assert_eq!(allocs(), before, "a warm Connect pass must not allocate");
    assert_eq!(again, warm);

    // Sized for its largest net, a cold arena allocates nothing either:
    // `connect_all` sizes one so that its loop leaves the heap where it
    // stands. These nets press the candidate bound of 3n: every node its
    // own column, up to eight rows interleaved in x.
    let mut dense = WorkNets::default();
    for k in 0..24u32 {
        let rows = 1 + k % 8;
        let mut nodes: Vec<Node> = (0..2 + k * 11)
            .map(|i| Node::fake(i as i64, i % rows))
            .collect();
        nodes.sort_unstable_by_key(Node::sort_key);
        dense.push(NetId(k), nodes);
    }
    let largest = dense.iter().map(|(_, nodes)| nodes.len()).max().unwrap();
    let mut arena = ConnectArena::with_capacity(largest);
    let mut spans = Vec::with_capacity(dense.iter().map(|(_, nodes)| nodes.len()).sum());
    let before = allocs();
    for (net, nodes) in dense.iter() {
        connect_net_with(net, nodes, &mut comm, &mut arena, &mut spans);
    }
    assert_eq!(allocs(), before, "a sized arena must not allocate");
    assert!(!spans.is_empty());

    // Step 1's Prim: a scratch that built every net once builds them
    // all again without allocating — its vertex records and its tree are
    // reserved for the largest net and reused below it.
    let nets: Vec<Vec<Point>> = (0..300u32)
        .map(|k| {
            let n = if k == 150 { 700 } else { (k * 37) % 40 };
            (0..n)
                .map(|i| Point::new(((i * 13 + k) % 97) as i64, ((i * 7 + k) % 9) as i64))
                .collect()
        })
        .collect();
    let mut prim = PrimScratch::default();
    let mut prim_pass = || -> u64 {
        let tree = |points: &Vec<Point>| prim.build(points).iter().map(|e| e.weight).sum::<u64>();
        nets.iter().map(tree).sum()
    };
    let warm = prim_pass();
    let before = allocs();
    let again = prim_pass();
    assert_eq!(allocs(), before, "a warm Prim pass must not allocate");
    assert_eq!(again, warm);

    // Step 3's rebuild — the assignment's counting sort and the attach
    // that writes the new store — allocates a fixed handful of buffers,
    // however many nets it rebuilds: nothing per net.
    let rebuild_allocs = |nets: u32| {
        let (rows, gcols, grid_w) = (6, 16, 8);
        let (mut works, mut crossings) = (WorkNets::default(), Vec::new());
        let mut demand = Grid::new(rows, gcols);
        for k in 0..nets {
            let pin = |i: u32| Node::fake(((k * 7 + i * 13) % 140) as i64, (k + i) % 6);
            works.push(NetId(k), [pin(0), pin(1), pin(2)]);
            for row in 1..4 {
                let x = ((k * 5) % 150) as i64;
                demand[row as usize][((x / grid_w) as usize).min(gcols - 1)] += 1;
                crossings.push(Crossing {
                    net: NetId(k),
                    row,
                    x: x as i32,
                });
            }
        }
        let plan = FtPlan::new(0, demand, grid_w, 2);
        let mut comm = Comm::solo(MachineModel::ideal());
        let before = allocs();
        works.attach(
            |nd| nd.set_x(plan.shifted_x(nd.row, nd.x())),
            crossings.iter().map(|c| c.net),
            |sink| {
                assign(&plan, crossings.iter().copied(), &mut comm, |net, nd| {
                    sink.put(net, nd)
                })
            },
        );
        let made = allocs() - before;
        assert_eq!(
            works.iter().map(|w| w.1.len()).sum::<usize>(),
            6 * nets as usize
        );
        made
    };
    let (small, large) = (rebuild_allocs(200), rebuild_allocs(2_000));
    assert_eq!(small, large, "step 3's rebuild allocates per net");
    assert!(large <= 8, "step 3's rebuild makes {large} allocations");

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

    // Each of Connect's stores is freed by its last reader: the work nets
    // when `connect_all` returns, before the channel profiles exist. So the
    // route's heap peak stays below the three of them together, each
    // counted from the circuit and the result at its smallest: every pin of
    // a multi-pin net and every feedthrough a node, every span the result
    // holds, each channel of the final chip width one `i32` a column. The
    // circuit is the `repro big-circuit` shape at 4 000 nets over 113 rows
    // (as `serial_big_100k`), where feedthroughs outnumber pins.
    let (nets, clock_nets) = (4_000, vec![64, 32]);
    let circuit = generate(&GeneratorConfig {
        rows: 113,
        cells: nets,
        pins: nets * 3 + nets / 2 + clock_nets.iter().sum::<usize>(),
        nets,
        locality: 0.85,
        clock_nets,
        ..GeneratorConfig::small("heap-peak", 7)
    });
    let mut comm = Comm::solo(MachineModel::ideal());
    let (result, peak) =
        peak_above_start(|| try_route_serial(&circuit, &RouterConfig::with_seed(3), &mut comm));
    let result = result.expect("the serial route completes");
    let pins: usize = (0..circuit.num_nets())
        .map(|i| circuit.net_degree(NetId::from_index(i)))
        .filter(|&degree| degree >= 2)
        .sum();
    let nodes = pins + result.feedthroughs as usize;
    let works = nodes * std::mem::size_of::<Node>();
    let spans = result.spans.len() * std::mem::size_of::<Span>();
    let columns = (circuit.num_rows() + 1) * result.chip_width as usize;
    let profiles = columns * std::mem::size_of::<i32>();
    assert!(
        peak < (works + spans + profiles) as u64,
        "heap peak {peak} B holds the work nets ({works} B), the spans ({spans} B) \
         and the profiles ({profiles} B) at once"
    );
}
