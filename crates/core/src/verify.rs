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
//! their bugs, so density is recounted by a plain endpoint sweep
//! ([`peak_overlap`]) over the reported spans. What these checks cannot
//! see is listed in DESIGN.md §4.

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
    /// A switchable span sits in neither of its two legal channels.
    SwitchRowMismatch {
        span: usize,
        channel: u32,
        switch_row: u32,
    },
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
            Violation::SwitchRowMismatch {
                span,
                channel,
                switch_row,
            } => {
                write!(
                    f,
                    "span {span}: channel {channel} not in {{{switch_row}, {}}}",
                    switch_row + 1
                )
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

    let mut horizontal = 0u64;
    for (i, s) in result.spans.iter().enumerate() {
        if s.channel as usize >= channels {
            out.push(Violation::ChannelOutOfRange {
                span: i,
                channel: s.channel,
            });
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
        if let Some(r) = s.switch_row {
            if s.channel != r && s.channel != r + 1 {
                out.push(Violation::SwitchRowMismatch {
                    span: i,
                    channel: s.channel,
                    switch_row: r,
                });
            }
        }
        horizontal += s.width();
    }
    if !out.is_empty() {
        return out; // recounting with broken spans would double-report
    }

    // Recount densities from scratch: every span's two endpoints, bucketed
    // by channel.
    let mut ends: Vec<Vec<(i64, i64)>> = vec![Vec::new(); channels];
    for s in &result.spans {
        ends[s.channel as usize].extend([(s.lo, 1), (s.hi + 1, -1)]);
    }
    for (c, (&reported, ends)) in result.channel_density.iter().zip(&mut ends).enumerate() {
        let recount = peak_overlap(ends);
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

/// Largest number of intervals covering one column, from their endpoint
/// events `(column, +1)` at each `lo` and `(column, -1)` one past each
/// `hi` (spans are closed intervals). Sorting puts a `-1` before a `+1`
/// at the same column, so abutting spans do not count as overlapping.
fn peak_overlap(ends: &mut [(i64, i64)]) -> i64 {
    ends.sort_unstable();
    let (mut open, mut peak) = (0, 0);
    for &(_, d) in ends.iter() {
        open += d;
        peak = peak.max(open);
    }
    peak
}

/// Panic with a readable report if `result` fails verification.
pub fn assert_verified(circuit: &Circuit, result: &RoutingResult) {
    let violations = verify(circuit, result);
    if !violations.is_empty() {
        let mut msg = format!(
            "routing result for '{}' failed verification:\n",
            result.circuit
        );
        for v in violations.iter().take(20) {
            msg.push_str(&format!("  - {v}\n"));
        }
        if violations.len() > 20 {
            msg.push_str(&format!("  … and {} more\n", violations.len() - 20));
        }
        panic!("{msg}");
    }
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
        let mut msg = format!(
            "post-recovery verification of '{}' failed ({} violation(s)):\n",
            result.circuit,
            violations.len()
        );
        for v in violations.iter().take(20) {
            msg.push_str(&format!("  - {v}\n"));
        }
        if violations.len() > 20 {
            msg.push_str(&format!("  … and {} more\n", violations.len() - 20));
        }
        panic!("{msg}");
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
        for s in r.spans.iter().filter(|s| s.channel == channel) {
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
                let cols = columns(&r, s.channel);
                let peak = *cols.iter().max().unwrap();
                let covers_all_peaks = (0..cols.len() as i64)
                    .all(|x| cols[x as usize] < peak || (s.lo..=s.hi).contains(&x));
                covers_all_peaks.then_some((i, peak))
            })
            .expect("some span covers its channel's whole peak");
        let dropped = r.spans.remove(idx);
        assert_eq!(
            density_mismatches(&verify(&c, &r)),
            [(dropped.channel as usize, peak, peak - 1)]
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
            .filter(|&i| r.spans[i].switch_row.is_none())
            .collect();
        let mut caught = 0;
        for (&i, &j) in fixed.iter().zip(&fixed[1..]).take(64) {
            let mut m = r.clone();
            (m.spans[i].channel, m.spans[j].channel) = (r.spans[j].channel, r.spans[i].channel);
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
        r.spans[0].channel = 1000;
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
        r.spans[0] = Span {
            lo: s.hi,
            hi: s.lo,
            ..s
        };
        let v = verify(&c, &r);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::DegenerateSpan { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn detects_illegal_switch_channel() {
        let (c, mut r) = routed();
        let idx = r
            .spans
            .iter()
            .position(|s| s.switch_row.is_some())
            .expect("some switchable span");
        r.spans[idx].channel = r.spans[idx].switch_row.unwrap() + 2;
        // Keep it in range so the check under test fires.
        if (r.spans[idx].channel as usize) > c.num_rows() {
            r.spans[idx].channel = 0;
        }
        let v = verify(&c, &r);
        assert!(
            v.iter().any(|x| matches!(
                x,
                Violation::SwitchRowMismatch { .. } | Violation::DensityMismatch { .. }
            )),
            "{v:?}"
        );
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
