//! The counting allocator is off outside a measurement, counts inside
//! one, and is off again afterwards — even when the measured call
//! panics. `harness = false`: the counters are process-wide, so this
//! must be the only thread alive.

use pgr_benchmark::alloc::{counting, measure};
use std::hint::black_box;

fn main() {
    // Off by default: nothing the timed pass allocates is counted.
    assert!(!counting());
    let ((), idle) = measure(|| ());
    assert_eq!((idle.peak_bytes, idle.allocs, idle.alloc_bytes), (0, 0, 0));

    // On inside `measure`: peak, retained bytes and allocation counts.
    let (kept, stats) = measure(|| {
        assert!(counting());
        let scratch = black_box(vec![0u8; 1 << 20]);
        drop(scratch);
        black_box(vec![0u8; 1 << 16])
    });
    assert!(!counting(), "counting stops when the measurement ends");
    assert!(stats.peak_bytes >= 1 << 20, "{stats:?}");
    assert!(
        stats.peak_bytes < (1 << 20) + (1 << 16) + 4096,
        "scratch was freed first: {stats:?}"
    );
    assert_eq!(stats.retained_bytes, 1 << 16, "{stats:?}");
    assert_eq!(stats.allocs, 2, "{stats:?}");
    assert_eq!(stats.alloc_bytes, (1 << 20) + (1 << 16), "{stats:?}");
    drop(kept);

    // Growth by realloc is seen as growth, not as a second block.
    let (v, stats) = measure(|| {
        let mut v: Vec<u8> = Vec::with_capacity(1 << 10);
        v.extend(std::iter::repeat_n(1u8, 1 << 12));
        black_box(v)
    });
    assert_eq!(stats.retained_bytes as usize, v.capacity(), "{stats:?}");

    // Outside a measurement allocations leave the counters alone: the
    // next measurement starts from zero and sees only its own.
    let outside = black_box(vec![0u8; 1 << 22]);
    let (_, stats) = measure(|| black_box(Box::new(7u64)));
    assert_eq!(
        (stats.allocs, stats.alloc_bytes, stats.peak_bytes),
        (1, 8, 8),
        "{stats:?}"
    );
    drop(outside);

    // Threads spawned inside the measurement are counted too (the P = 2
    // workloads route on two).
    let (_, stats) = measure(|| {
        std::thread::scope(|s| {
            s.spawn(|| drop(black_box(vec![0u8; 1 << 21])));
        })
    });
    assert!(stats.peak_bytes >= 1 << 21, "{stats:?}");

    // A panic inside the measured call (a failed op) still switches
    // counting off.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let caught = std::panic::catch_unwind(|| measure(|| panic!("op failed")));
    std::panic::set_hook(hook);
    assert!(caught.is_err());
    assert!(!counting(), "a panicking op must not leave counting on");

    println!("alloc: counting allocator is off outside the memory pass — ok");
}
