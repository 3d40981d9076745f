//! Cross-crate randomized property tests: the density profile against a
//! naive reference, the segment-split tiling invariant that keeps
//! parallel feedthrough demand identical to serial, netlist format
//! roundtrips, partition coverage, and wire-codec laws. All cases are
//! drawn from the workspace's seeded RNG, so runs are reproducible.

use pgr::circuit::format::{from_text, to_text};
use pgr::circuit::{generate, GeneratorConfig, NetId, RowId, RowPartition};
use pgr::geom::rng::{rng_from_seed, SmallRng};
use pgr::geom::DensityProfile;
use pgr::mpi::Wire;
use pgr::router::parallel::common::split_segment;
use pgr::router::parallel::partition::{partition_nets, pins_per_owner, PartitionKind};
use pgr::router::route::state::{ChannelPref, Node, Segment};

// ---------- density profile vs naive reference ----------

#[derive(Debug, Clone)]
enum ProfileOp {
    Add { lo: i64, hi: i64, delta: i64 },
    QueryMax,
    QueryRange { lo: i64, hi: i64 },
    MaxIfAdded { lo: i64, hi: i64 },
}

fn random_op(rng: &mut SmallRng, width: i64) -> ProfileOp {
    match rng.gen_range(0..4u32) {
        0 => ProfileOp::Add {
            lo: rng.gen_range(0..width),
            hi: rng.gen_range(0..width),
            delta: rng.gen_range(-3i64..4),
        },
        1 => ProfileOp::QueryMax,
        2 => ProfileOp::QueryRange {
            lo: rng.gen_range(0..width),
            hi: rng.gen_range(0..width),
        },
        _ => ProfileOp::MaxIfAdded {
            lo: rng.gen_range(0..width),
            hi: rng.gen_range(0..width),
        },
    }
}

#[test]
fn profile_matches_naive_model() {
    let mut rng = rng_from_seed(0xD301);
    // 64 drawn widths, then the edges of a power of two and avq.large's chip.
    let fixed = [2usize, 255, 256, 257, 1_000, 8_365];
    for case in 0..64 + fixed.len() {
        let width = if case < 64 {
            rng.gen_range(1usize..200)
        } else {
            fixed[case - 64]
        };
        let n_ops = rng.gen_range(1usize..80);
        let mut profile = DensityProfile::new(width);
        let mut naive = vec![0i64; width];
        for _ in 0..n_ops {
            // Operands overshoot the profile, so some spans clamp.
            match random_op(&mut rng, 200.max(width as i64 + 8)) {
                ProfileOp::Add { lo, hi, delta } => {
                    profile.add_span(lo, hi, delta);
                    let (a, b) = if lo <= hi { (lo, hi) } else { (hi, lo) };
                    for col in a.max(0)..=b.min(width as i64 - 1) {
                        naive[col as usize] += delta;
                    }
                }
                ProfileOp::QueryMax => {
                    assert_eq!(profile.max(), *naive.iter().max().unwrap(), "case {case}");
                }
                ProfileOp::QueryRange { lo, hi } => {
                    let (a, b) = if lo <= hi { (lo, hi) } else { (hi, lo) };
                    let (a, b) = (a.max(0), b.min(width as i64 - 1));
                    let expect = if a > b {
                        0
                    } else {
                        *naive[a as usize..=b as usize].iter().max().unwrap()
                    };
                    assert_eq!(profile.max_in(lo, hi), expect, "case {case}");
                }
                ProfileOp::MaxIfAdded { lo, hi } => {
                    let (a, b) = if lo <= hi { (lo, hi) } else { (hi, lo) };
                    let (a2, b2) = (a.max(0), b.min(width as i64 - 1));
                    let global = *naive.iter().max().unwrap();
                    let expect = if a2 > b2 {
                        global
                    } else {
                        global.max(naive[a2 as usize..=b2 as usize].iter().max().unwrap() + 1)
                    };
                    assert_eq!(profile.max_if_added(lo, hi), expect, "case {case}");
                }
            }
        }
        assert_eq!(profile.counts(), naive, "case {case}");
    }
}

// ---------- segment splitting tiles demand exactly ----------

#[test]
fn split_pieces_tile_the_original_demand_rows() {
    let mut rng = rng_from_seed(0xD302);
    for case in 0..256 {
        let rows = rng.gen_range(2usize..40);
        let parts = rng.gen_range(1usize..8).min(rows);
        let x1 = rng.gen_range(0i64..500);
        let x2 = rng.gen_range(0i64..500);
        let r1 = rng.gen_range(0u32..40) % rows as u32;
        let r2 = rng.gen_range(0u32..40) % rows as u32;
        let rp = RowPartition::uniform(rows, parts);
        // Whole-net segment: pin endpoints.
        let seg = Segment::new(
            NetId(0),
            Node::pin(0, x1, r1, ChannelPref::Either),
            Node::pin(1, x2, r2, ChannelPref::Either),
        );
        let pieces: Vec<_> = split_segment(&seg, &rp).collect();

        // 1. Every piece stays within one part.
        for (p, piece) in &pieces {
            assert_eq!(rp.owner(RowId(piece.lower.row)), *p, "case {case}");
            assert_eq!(rp.owner(RowId(piece.upper.row)), *p, "case {case}");
        }
        // 2. The union of the pieces' demand rows equals the original's
        //    (this is what keeps parallel feedthrough insertion — and so
        //    cell shifting — identical to serial).
        let mut union: Vec<u32> = pieces.iter().flat_map(|(_, s)| s.demand_rows()).collect();
        union.sort_unstable();
        let expect: Vec<u32> = seg.demand_rows().collect();
        assert_eq!(union, expect, "case {case}");
        // 3. Adjacent pieces share the cut column so the boundary hop is
        //    a pure vertical.
        for w in pieces.windows(2) {
            let (_, a) = &w[0];
            let (_, b) = &w[1];
            assert_eq!(a.upper.x, b.lower.x, "case {case}");
            assert_eq!(a.upper.row + 1, b.lower.row, "case {case}");
        }
    }
}

// ---------- netlist format ----------

#[test]
fn generated_circuits_roundtrip_through_the_text_format() {
    let mut rng = rng_from_seed(0xD303);
    for _ in 0..12 {
        let seed = rng.gen_range(0u64..1000);
        let rows = rng.gen_range(2usize..10);
        let mut cfg = GeneratorConfig::small("prop", seed);
        cfg.rows = rows;
        cfg.cells = rows * 12;
        cfg.nets = 40;
        cfg.pins = 150;
        let c = generate(&cfg);
        let c2 = from_text(&to_text(&c)).expect("roundtrip parses");
        assert_eq!(c.stats(), c2.stats());
        assert_eq!(to_text(&c), to_text(&c2), "canonical form is a fixed point");
    }
}

// ---------- net partitions ----------

#[test]
fn partitions_cover_all_nets_and_balance_pins() {
    let mut rng = rng_from_seed(0xD304);
    for _ in 0..12 {
        let seed = rng.gen_range(0u64..500);
        let c = generate(&GeneratorConfig::small("part-prop", seed));
        let parts = rng.gen_range(1usize..6).min(c.num_rows());
        let rp = RowPartition::balanced(&c, parts);
        for kind in PartitionKind::ALL {
            let owner = partition_nets(&c, kind, &rp, parts, 1.6);
            assert_eq!(owner.len(), c.num_nets());
            assert!(owner.iter().all(|&o| (o as usize) < parts));
            let pins = pins_per_owner(&c, &owner, parts);
            assert_eq!(pins.iter().sum::<usize>(), c.num_pins());
            if parts > 1 {
                let max = *pins.iter().max().unwrap();
                assert!(max * parts <= c.num_pins() * 3, "{}: {pins:?}", kind.name());
            }
        }
    }
}

// ---------- wire codec ----------

#[test]
fn codec_roundtrips_nested_values() {
    let mut rng = rng_from_seed(0xD305);
    for _ in 0..128 {
        let len = rng.gen_range(0usize..50);
        let v: Vec<(u32, i64, Option<bool>)> = (0..len)
            .map(|_| {
                let opt = match rng.gen_range(0..3u32) {
                    0 => None,
                    1 => Some(false),
                    _ => Some(true),
                };
                (rng.next_u64() as u32, rng.next_u64() as i64, opt)
            })
            .collect();
        let bytes = v.to_bytes();
        let back = Vec::<(u32, i64, Option<bool>)>::from_bytes(&bytes).unwrap();
        assert_eq!(v, back);
    }
}

#[test]
fn codec_rejects_any_truncation() {
    let mut rng = rng_from_seed(0xD306);
    for _ in 0..128 {
        let len = rng.gen_range(1usize..20);
        let v: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
        let bytes = v.to_bytes();
        let cut = rng.gen_range(1usize..8).min(bytes.len() - 1).max(1);
        let r = Vec::<u64>::from_bytes(&bytes[..bytes.len() - cut]);
        assert!(r.is_err(), "truncated by {cut} must fail");
    }
}

#[test]
fn codec_strings_roundtrip() {
    let mut rng = rng_from_seed(0xD307);
    for _ in 0..128 {
        let len = rng.gen_range(0usize..64);
        let s: String = (0..len)
            .map(|_| {
                // Mix ASCII with multi-byte code points to exercise UTF-8.
                match rng.gen_range(0..4u32) {
                    0 => char::from(rng.gen_range(b' '..=b'~')),
                    1 => char::from_u32(rng.gen_range(0xA0u32..0x2FF)).unwrap(),
                    2 => char::from_u32(rng.gen_range(0x4E00u32..0x9FFF)).unwrap(),
                    _ => '\u{1F600}',
                }
            })
            .collect();
        assert_eq!(String::from_bytes(&s.to_bytes()).unwrap(), s);
    }
}
