//! Randomized tests over the routing pipeline's internal invariants:
//! feedthrough plans, coarse-state bookkeeping, and the
//! demand-to-assignment contract between steps 2 and 3. Driven by the
//! workspace's seeded RNG for reproducible cases.

use pgr_circuit::NetId;
use pgr_geom::rng::rng_from_seed;
use pgr_mpi::{Comm, MachineModel};
use pgr_router::config::GRID_W;
use pgr_router::route::coarse::CoarseState;
use pgr_router::route::feedthrough::{assign, FtPlan};
use pgr_router::route::serial::crossings_of;
use pgr_router::route::state::{ChannelPref, Grid, Node, Orientation, Segment};
use pgr_router::RouterConfig;

fn comm() -> Comm {
    Comm::solo(MachineModel::ideal())
}

/// A grid holding `rows`, which must be equally long.
fn grid<R: AsRef<[i64]>>(rows: &[R]) -> Grid {
    let mut grid = Grid::new(rows.len(), rows[0].as_ref().len());
    for (r, row) in rows.iter().enumerate() {
        grid[r].copy_from_slice(row.as_ref());
    }
    grid
}

#[test]
fn ftplan_shift_is_monotone_and_bounded() {
    let mut rng = rng_from_seed(0x5701);
    for _ in 0..64 {
        let nrows = rng.gen_range(1usize..6);
        let gcols = rng.gen_range(1usize..24);
        let grid_w = rng.gen_range(2i64..16);
        let ft_w = rng.gen_range(1i64..4);
        let demand: Vec<Vec<i64>> = (0..nrows)
            .map(|_| (0..gcols).map(|_| rng.gen_range(0i64..4)).collect())
            .collect();
        let plan = FtPlan::new(0, grid(&demand), grid_w, ft_w);
        for (ri, row) in demand.iter().enumerate() {
            let row_total: i64 = row.iter().sum();
            assert_eq!(plan.row_growth(ri as u32), row_total * ft_w);
            // shifted_x is monotone in x and bounded by the row growth.
            let mut last = i64::MIN;
            for x in (0..gcols as i64 * grid_w).step_by(grid_w as usize / 2 + 1) {
                let sx = plan.shifted_x(ri as u32, x);
                assert!(sx >= x, "shift never moves left");
                assert!(sx <= x + plan.row_growth(ri as u32));
                assert!(sx >= last, "monotone");
                last = sx;
            }
        }
        assert_eq!(
            plan.total(),
            demand.iter().flatten().map(|&d| d as u64).sum::<u64>()
        );
        assert_eq!(
            plan.max_growth(),
            (0..demand.len())
                .map(|r| plan.row_growth(r as u32))
                .max()
                .unwrap_or(0)
        );
    }
}

#[test]
fn ft_positions_are_distinct_and_ordered_within_a_row() {
    let mut rng = rng_from_seed(0x5702);
    for _ in 0..64 {
        let cols = rng.gen_range(2usize..20);
        let grid_w = rng.gen_range(2i64..12);
        let ft_w = rng.gen_range(1i64..4);
        let demand_row: Vec<i64> = (0..cols).map(|_| rng.gen_range(0i64..5)).collect();
        let plan = FtPlan::new(0, grid(&[&demand_row]), grid_w, ft_w);
        let mut xs = Vec::new();
        for (g, &d) in demand_row.iter().enumerate() {
            for i in 0..d {
                xs.push(plan.ft_x(0, g, i));
            }
        }
        for w in xs.windows(2) {
            assert!(
                w[0] < w[1],
                "feedthrough positions strictly increase: {xs:?}"
            );
        }
    }
}

#[test]
fn demand_always_matches_crossings() {
    let mut meta = rng_from_seed(0x5703);
    for _ in 0..64 {
        // Build random segments, route them coarsely, and check the
        // contract: the crossings derived from the final orientations
        // match the demand grid exactly — so assignment cannot panic.
        let seed = meta.gen_range(0u64..500);
        let nsegs = meta.gen_range(1usize..60);
        let mut rng = rng_from_seed(seed);
        let rows = 8u32;
        let width = 128i64;
        let segs: Vec<Segment> = (0..nsegs)
            .map(|i| {
                let r1 = rng.gen_range(0..rows);
                let r2 = rng.gen_range(0..rows);
                let (x1, x2) = (rng.gen_range(0..width), rng.gen_range(0..width));
                let (f1, f2) = (rng.gen_bool(0.2), rng.gen_bool(0.2));
                let make = |x, r, fake: bool| {
                    if fake {
                        Node::fake(x, r)
                    } else {
                        Node::pin(i as u32, x, r, ChannelPref::Either)
                    }
                };
                Segment::new(NetId(i as u32 % 7), make(x1, r1, f1), make(x2, r2, f2))
            })
            .collect();
        let cfg = RouterConfig::with_seed(seed);
        let mut st = CoarseState::new(0, rows as usize, width, GRID_W);
        let orients = st.route(&segs, &cfg, &mut rng_from_seed(seed ^ 1), &mut comm());
        let crossings = crossings_of(&segs, &orients);
        let plan = st.into_plan();
        assert_eq!(crossings.len() as u64, plan.total());
        // assign() asserts per-(row, gcol) equality internally.
        let nodes = assign(&plan, &crossings, &mut comm());
        assert_eq!(nodes.len(), crossings.len());
        // Every assigned feedthrough row matches its crossing's row set.
        let mut want: Vec<u32> = crossings.iter().map(|c| c.row).collect();
        let mut got: Vec<u32> = nodes.iter().map(|(_, n)| n.row).collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(want, got);
    }
}

#[test]
fn coarse_apply_remove_is_involutive() {
    for seed in 0u64..64 {
        let mut rng = rng_from_seed(seed);
        let mut st = CoarseState::new(0, 6, 96, 8);
        let segs: Vec<Segment> = (0..20)
            .map(|i| {
                Segment::new(
                    NetId(i),
                    Node::pin(
                        i,
                        rng.gen_range(0..96),
                        rng.gen_range(0..6),
                        ChannelPref::Either,
                    ),
                    Node::pin(
                        i,
                        rng.gen_range(0..96),
                        rng.gen_range(0..6),
                        ChannelPref::Either,
                    ),
                )
            })
            .collect();
        let orients: Vec<Orientation> = (0..20)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    Orientation::VertAtLower
                } else {
                    Orientation::VertAtUpper
                }
            })
            .collect();
        for (s, &o) in segs.iter().zip(&orients) {
            st.apply(s, o, 1);
        }
        for (s, &o) in segs.iter().zip(&orients).rev() {
            st.apply(s, o, -1);
        }
        for ch in 0..=6u32 {
            assert_eq!(st.channel_max(ch), 0, "channel {ch} clean");
        }
        assert!(st.demand().cells().iter().all(|&d| d == 0));
    }
}

#[test]
fn crossing_count_is_orientation_invariant() {
    for seed in 0u64..64 {
        // The number of feedthroughs a segment needs is a property of its
        // row extent, not of which L shape is chosen.
        let mut rng = rng_from_seed(seed);
        let segs: Vec<Segment> = (0..30)
            .map(|i| {
                Segment::new(
                    NetId(i),
                    Node::pin(
                        i,
                        rng.gen_range(0..64),
                        rng.gen_range(0..10),
                        ChannelPref::Either,
                    ),
                    Node::pin(
                        i,
                        rng.gen_range(0..64),
                        rng.gen_range(0..10),
                        ChannelPref::Either,
                    ),
                )
            })
            .collect();
        let lower = vec![Orientation::VertAtLower; segs.len()];
        let upper = vec![Orientation::VertAtUpper; segs.len()];
        assert_eq!(
            crossings_of(&segs, &lower).len(),
            crossings_of(&segs, &upper).len()
        );
    }
}
