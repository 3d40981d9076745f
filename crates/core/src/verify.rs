//! Independent verification of routed solutions.
//!
//! A [`crate::RoutingResult`] carries the full span list, so its derived
//! metrics can be re-checked from scratch — catching any divergence
//! between the incremental bookkeeping the routers maintain and the
//! solution they report. The parallel drivers in particular merge spans
//! produced on many ranks; these checks guard that assembly.
//!
//! It shares no code with the phases it judges: a checker that recounted
//! with the routers' own `ChannelState` / `DensityProfile` would inherit
//! their bugs, so density is recounted by a difference array of its own
//! ([`recount`]) over the reported spans. What these checks cannot see is
//! listed in DESIGN.md §4.

use crate::metrics::RoutingResult;
use pgr_circuit::Circuit;
use pgr_mpi::Comm;
use std::fmt;

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A span's channel index is outside `0 ..= rows`.
    ChannelOutOfRange { span: usize, channel: u32 },
    /// A span's columns fall outside `0 .. chip_width`.
    SpanOutOfBounds { span: usize, lo: i64, hi: i64 },
    /// A span is inverted or empty (`lo >= hi`).
    DegenerateSpan { span: usize, lo: i64, hi: i64 },
    /// The reported per-channel density differs from a recount.
    DensityMismatch {
        channel: usize,
        reported: i64,
        recount: i64,
    },
    /// The reported wirelength is less than the spans' horizontal length
    /// alone (vertical runs only add to it).
    WirelengthTooSmall { reported: u64, horizontal_only: u64 },
    /// The density vector has the wrong number of channels.
    ChannelCountMismatch { reported: usize, expected: usize },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::ChannelOutOfRange { span, channel } => {
                write!(f, "span {span}: channel {channel} out of range")
            }
            Violation::SpanOutOfBounds { span, lo, hi } => {
                write!(f, "span {span}: [{lo},{hi}] outside the chip")
            }
            Violation::DegenerateSpan { span, lo, hi } => {
                write!(f, "span {span}: degenerate extent [{lo},{hi}]")
            }
            Violation::DensityMismatch {
                channel,
                reported,
                recount,
            } => {
                write!(
                    f,
                    "channel {channel}: reported density {reported}, recount {recount}"
                )
            }
            Violation::WirelengthTooSmall {
                reported,
                horizontal_only,
            } => {
                write!(
                    f,
                    "wirelength {reported} below horizontal span total {horizontal_only}"
                )
            }
            Violation::ChannelCountMismatch { reported, expected } => {
                write!(
                    f,
                    "{reported} channel densities reported, {expected} channels exist"
                )
            }
        }
    }
}

/// Re-check a routing result against the circuit it claims to route.
/// Returns every violation found (empty = verified).
pub fn verify(circuit: &Circuit, result: &RoutingResult) -> Vec<Violation> {
    let mut out = Vec::new();
    let channels = circuit.num_rows() + 1;
    if result.channel_density.len() != channels {
        out.push(Violation::ChannelCountMismatch {
            reported: result.channel_density.len(),
            expected: channels,
        });
        return out; // everything below depends on the channel count
    }

    let (mut horizontal, mut cols) = (0u64, 1);
    for (i, s) in result.spans.iter().enumerate() {
        let channel = s.channel();
        if channel as usize >= channels {
            out.push(Violation::ChannelOutOfRange { span: i, channel });
            continue;
        }
        if s.lo >= s.hi {
            out.push(Violation::DegenerateSpan {
                span: i,
                lo: s.lo,
                hi: s.hi,
            });
        }
        if s.lo < 0 || s.hi >= result.chip_width {
            out.push(Violation::SpanOutOfBounds {
                span: i,
                lo: s.lo,
                hi: s.hi,
            });
        }
        horizontal += s.width();
        cols = cols.max(s.hi + 2);
    }
    if !out.is_empty() {
        return out; // recounting with broken spans would double-report
    }

    // Recount densities from scratch, over the columns the spans reach:
    // every span lies in `0 ..= cols - 2`, so one past its end is a column
    // too, and `cols <= chip_width + 1` (the checks above).
    let spans = result.spans.iter();
    let recounts = recount(
        spans.map(|s| (s.channel() as usize, s.lo, s.hi)),
        channels,
        cols,
    );
    for (c, (&reported, recount)) in result.channel_density.iter().zip(recounts).enumerate() {
        if reported != recount {
            out.push(Violation::DensityMismatch {
                channel: c,
                reported,
                recount,
            });
        }
    }

    if result.wirelength < horizontal {
        out.push(Violation::WirelengthTooSmall {
            reported: result.wirelength,
            horizontal_only: horizontal,
        });
    }
    out
}

/// Each channel's largest number of spans covering one column, from
/// `(channel, lo, hi)` closed intervals within columns `0 .. cols - 1`: a
/// difference array a channel, +1 at each `lo` and −1 one past each `hi`,
/// whose running sum is a column's count (so abutting spans do not
/// overlap). Linear in spans plus channels × columns; a column counts in
/// an `i32`, as no result holds 2^31 spans.
fn recount(spans: impl Iterator<Item = (usize, i64, i64)>, channels: usize, cols: i64) -> Vec<i64> {
    let cols = cols as usize;
    let mut diff = vec![0i32; channels * cols];
    for (channel, lo, hi) in spans {
        let row = &mut diff[channel * cols..][..cols];
        row[lo as usize] += 1;
        row[hi as usize + 1] -= 1;
    }
    let peak = |row: &[i32]| {
        let mut open = 0;
        row.iter()
            .map(|&d| {
                open += d;
                open
            })
            .fold(0, i32::max)
    };
    diff.chunks_exact(cols)
        .map(|row| peak(row).into())
        .collect()
}

/// Panic with a readable report if `result` fails verification.
pub fn assert_verified(circuit: &Circuit, result: &RoutingResult) {
    let violations = verify(circuit, result);
    if !violations.is_empty() {
        let header = format!(
            "routing result for '{}' failed verification:",
            result.circuit
        );
        fail(header, &violations);
    }
}

/// Panic with `header` on its own line, then the first 20 `violations`,
/// one per line, and a count of the rest.
fn fail(header: String, violations: &[Violation]) -> ! {
    let mut msg = header + "\n";
    for v in violations.iter().take(20) {
        msg.push_str(&format!("  - {v}\n"));
    }
    if violations.len() > 20 {
        msg.push_str(&format!("  … and {} more\n", violations.len() - 20));
    }
    panic!("{msg}");
}

/// The engine's post-recovery self-check: verify `result`, count the
/// violations into [`names::VERIFY_VIOLATIONS`](crate::metrics::names)
/// on `comm`'s metrics shard (added even at zero, so a dump carrying
/// the counter proves the check ran), and fail loudly — with the same
/// readable report as [`assert_verified`] — if any violation survives.
/// Touches no virtual time: a verified recovery costs the same clock as
/// an unverified one.
pub fn check(circuit: &Circuit, result: &RoutingResult, comm: &mut Comm) -> usize {
    let violations = verify(circuit, result);
    comm.metric_add(
        crate::metrics::names::VERIFY_VIOLATIONS,
        violations.len() as u64,
    );
    if !violations.is_empty() {
        let header = format!(
            "post-recovery verification of '{}' failed ({} violation(s)):",
            result.circuit,
            violations.len()
        );
        fail(header, &violations);
    }
    violations.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::state::Span;
    use crate::route::try_route_serial;
    use crate::RouterConfig;
    use pgr_circuit::{generate, GeneratorConfig, NetId};
    use pgr_mpi::{Comm, MachineModel};

    fn routed() -> (pgr_circuit::Circuit, RoutingResult) {
        let c = generate(&GeneratorConfig::small("verify", 4));
        let r = try_route_serial(
            &c,
            &RouterConfig::with_seed(2),
            &mut Comm::solo(MachineModel::ideal()),
        )
        .unwrap();
        (c, r)
    }

    #[test]
    fn serial_results_verify_clean() {
        let (c, r) = routed();
        assert!(verify(&c, &r).is_empty());
        assert_verified(&c, &r);
    }

    #[test]
    fn detects_density_tampering() {
        let (c, mut r) = routed();
        r.channel_density[3] += 1;
        let v = verify(&c, &r);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::DensityMismatch { channel: 3, .. })),
            "{v:?}"
        );
    }

    /// Per-column span counts of `channel`, counted the slow way.
    fn columns(r: &RoutingResult, channel: u32) -> Vec<i64> {
        let mut cols = vec![0i64; r.chip_width as usize];
        for s in r.spans.iter().filter(|s| s.channel() == channel) {
            for x in s.lo..=s.hi {
                cols[x as usize] += 1;
            }
        }
        cols
    }

    fn density_mismatches(v: &[Violation]) -> Vec<(usize, i64, i64)> {
        v.iter()
            .map(|x| match *x {
                Violation::DensityMismatch {
                    channel,
                    reported,
                    recount,
                } => (channel, reported, recount),
                ref other => panic!("unexpected violation {other}"),
            })
            .collect()
    }

    #[test]
    fn detects_span_dropped_at_the_peak() {
        let (c, mut r) = routed();
        // A span covering every peak column of its channel: without it
        // the channel needs one track fewer than reported.
        let (idx, peak) = (0..r.spans.len())
            .find_map(|i| {
                let s = r.spans[i];
                let cols = columns(&r, s.channel());
                let peak = *cols.iter().max().unwrap();
                let covers_all_peaks = (0..cols.len() as i64)
                    .all(|x| cols[x as usize] < peak || (s.lo..=s.hi).contains(&x));
                covers_all_peaks.then_some((i, peak))
            })
            .expect("some span covers its channel's whole peak");
        let dropped = r.spans.remove(idx);
        assert_eq!(
            density_mismatches(&verify(&c, &r)),
            [(dropped.channel() as usize, peak, peak - 1)]
        );
    }

    #[test]
    fn detects_swapped_channels() {
        let (c, r) = routed();
        let peaks = |r: &RoutingResult| -> Vec<i64> {
            (0..=c.num_rows() as u32)
                .map(|ch| columns(r, ch).into_iter().max().unwrap_or(0))
                .collect()
        };
        assert_eq!(peaks(&r), r.channel_density, "fixture sanity");
        // Two fixed-channel spans trading channels: every channel whose
        // slow recount moves must be reported, with that recount.
        let fixed: Vec<usize> = (0..r.spans.len())
            .filter(|&i| r.spans[i].switch_row().is_none())
            .collect();
        let mut caught = 0;
        for (&i, &j) in fixed.iter().zip(&fixed[1..]).take(64) {
            let mut m = r.clone();
            let moved = |s: Span, to: &Span| Span::new(s.net, to.channel(), s.lo, s.hi, None);
            (m.spans[i], m.spans[j]) = (
                moved(r.spans[i], &r.spans[j]),
                moved(r.spans[j], &r.spans[i]),
            );
            let expected: Vec<(usize, i64, i64)> = peaks(&m)
                .into_iter()
                .enumerate()
                .filter(|&(ch, p)| p != r.channel_density[ch])
                .map(|(ch, p)| (ch, r.channel_density[ch], p))
                .collect();
            assert_eq!(
                density_mismatches(&verify(&c, &m)),
                expected,
                "spans {i},{j}"
            );
            caught += usize::from(!expected.is_empty());
        }
        assert!(caught > 0, "fixture must contain a density-changing swap");
    }

    #[test]
    fn detects_out_of_range_channel() {
        let (c, mut r) = routed();
        let s = r.spans[0];
        r.spans[0] = Span::new(s.net, 1000, s.lo, s.hi, None);
        let v = verify(&c, &r);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::ChannelOutOfRange { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn detects_out_of_chip_span() {
        let (c, mut r) = routed();
        r.spans[0].lo = -5;
        let v = verify(&c, &r);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::SpanOutOfBounds { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn detects_degenerate_span() {
        let (c, mut r) = routed();
        let s = r.spans[0];
        (r.spans[0].lo, r.spans[0].hi) = (s.hi, s.lo);
        let v = verify(&c, &r);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::DegenerateSpan { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn detects_illegal_switch_channel() {
        // A span names its switch row by which side of it the channel is,
        // so no span holds a channel beside neither side: decoding one is
        // refused. A switchable span moved off its row therefore arrives
        // as a fixed span, and the channel it lands in recounts above its
        // reported peak: moved onto a peak column there.
        use pgr_mpi::wire::{Wire, WireError};
        let (c, mut r) = routed();
        let (idx, to) = (0..r.spans.len())
            .filter(|&i| r.spans[i].switch_row().is_some())
            .find_map(|i| {
                let (s, row) = (r.spans[i], r.spans[i].switch_row().unwrap());
                (0..=c.num_rows() as u32)
                    .filter(|&ch| ch != row && ch != row + 1)
                    .find(|&ch| {
                        let cols = columns(&r, ch);
                        let peak = *cols.iter().max().unwrap();
                        (s.lo..=s.hi).any(|x| cols[x as usize] == peak)
                    })
                    .map(|ch| (i, ch))
            })
            .expect("some switchable span can land on another channel's peak");
        let s = r.spans[idx];
        let mut illegal = Vec::new();
        (s.net.0, to, s.lo, s.hi).encode(&mut illegal);
        s.switch_row().encode(&mut illegal);
        assert!(
            matches!(
                Span::from_bytes(&illegal),
                Err(WireError::OutOfRange { len: 2, .. })
            ),
            "a switchable span in channel {to} is refused"
        );
        r.spans[idx] = Span::new(s.net, to, s.lo, s.hi, None);
        let v = verify(&c, &r);
        assert!(
            v.contains(&Violation::DensityMismatch {
                channel: to as usize,
                reported: r.channel_density[to as usize],
                recount: r.channel_density[to as usize] + 1,
            }),
            "{v:?}"
        );
    }

    /// Largest number of intervals covering one column, from their endpoint
    /// events `(column, +1)` at each `lo` and `(column, -1)` one past each
    /// `hi` (spans are closed intervals). Sorting puts a `-1` before a `+1`
    /// at the same column, so abutting spans do not count as overlapping.
    /// The sweep [`recount`] replaced, kept as its reference.
    fn peak_overlap(ends: &mut [(i64, i64)]) -> i64 {
        ends.sort_unstable();
        let (mut open, mut peak) = (0, 0);
        for &(_, d) in ends.iter() {
            open += d;
            peak = peak.max(open);
        }
        peak
    }

    /// The difference array recounts what the endpoint sweep it replaced
    /// counted, on random spans over a few channels: narrow columns make
    /// abutting spans (`hi + 1 == lo`) and shared endpoints common.
    #[test]
    fn recount_equals_the_endpoint_sweep() {
        for seed in 0..300u64 {
            let mut rng = pgr_geom::rng::rng_from_seed(0xD1FF_0000 + seed);
            let (channels, cols) = (rng.gen_range(1usize..5), rng.gen_range(2i64..24));
            let spans: Vec<(usize, i64, i64)> = (0..rng.gen_range(0usize..40))
                .map(|_| {
                    let lo = rng.gen_range(0..cols - 1);
                    (rng.gen_range(0..channels), lo, rng.gen_range(lo..cols - 1))
                })
                .collect();
            let mut abutting = spans.clone();
            for &(ch, _, hi) in spans.iter().filter(|s| s.2 + 2 < cols) {
                abutting.push((ch, hi + 1, hi + 1));
            }
            for spans in [spans, abutting] {
                let swept: Vec<i64> = (0..channels)
                    .map(|ch| {
                        let mut ends: Vec<(i64, i64)> = (spans.iter())
                            .filter(|s| s.0 == ch)
                            .flat_map(|&(_, lo, hi)| [(lo, 1), (hi + 1, -1)])
                            .collect();
                        peak_overlap(&mut ends)
                    })
                    .collect();
                let got = recount(spans.iter().copied(), channels, cols);
                assert_eq!(got, swept, "seed {seed}: {spans:?}");
            }
        }
    }

    #[test]
    fn detects_wirelength_undercount() {
        let (c, mut r) = routed();
        r.wirelength = 1;
        let v = verify(&c, &r);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::WirelengthTooSmall { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn detects_missing_channel_vector() {
        let (c, mut r) = routed();
        r.channel_density.pop();
        let v = verify(&c, &r);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], Violation::ChannelCountMismatch { .. }));
    }

    #[test]
    #[should_panic(expected = "failed verification")]
    fn assert_verified_panics_with_report() {
        let (c, mut r) = routed();
        r.channel_density[0] += 7;
        assert_verified(&c, &r);
    }

    #[test]
    fn parallel_results_verify_clean() {
        use crate::parallel::{route_parallel_guarded, Algorithm};
        use crate::PartitionKind;
        use pgr_mpi::InstrumentConfig;
        let c = generate(&GeneratorConfig::small("verify-par", 6));
        let cfg = RouterConfig::with_seed(3);
        for algo in Algorithm::ALL {
            let out = route_parallel_guarded(
                &c,
                &cfg,
                algo,
                PartitionKind::PinWeight,
                3,
                MachineModel::sparc_center_1000(),
                InstrumentConfig::off(),
            );
            let result = out.result.unwrap();
            assert_verified(&c, &result);
            // Spans must reference real nets.
            assert!(
                result.spans.iter().all(|s| (s.net.index()) < c.num_nets()),
                "{}",
                algo.name()
            );
            let _ = NetId(0);
        }
    }
}
