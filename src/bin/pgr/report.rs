//! What `pgr route --svg` draws and `--heatmap` prints, read off a
//! finished [`RoutingResult`]: a channel's peak is its `channel_density`
//! entry, and the plot's tracks come from the detailed left-edge pass.

use pgr::router::detailed::route_channels;
use pgr::router::metrics::{RoutingResult, ROW_HEIGHT};
use pgr::router::route::Span;
use std::cmp::Reverse;
use std::fmt::Write as _;

/// Palette for net coloring (cycled by net id).
const PALETTE: [&str; 10] = [
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948", "#b07aa1", "#ff9da7",
    "#9c755f", "#bab0ac",
];
/// Horizontal pixels per column (keeps files small on big chips).
const X_SCALE: f64 = 0.5;
/// Vertical pixels per track / per row-height unit.
const Y_SCALE: f64 = 2.0;
/// Stroke width of span lines.
const STROKE: f64 = 1.2;
/// Heatmap cells per channel.
const BUCKETS: usize = 96;
/// Channels listed as the hottest.
const HOTSPOTS: usize = 3;

/// Render the routed chip as an SVG document.
///
/// Layout, bottom to top: channel 0, row 0, channel 1, row 1, …, top
/// channel. Channel heights are their detailed track counts; every span
/// is drawn on the track the left-edge router assigned it.
pub fn render_svg(result: &RoutingResult) -> String {
    let detailed = route_channels(result);
    let width_px = result.chip_width as f64 * X_SCALE;
    let row_px = ROW_HEIGHT as f64 * Y_SCALE;

    // Vertical layout (SVG y grows downward; we lay out top-down, so
    // iterate channels/rows from the top).
    let nchan = result.channel_density.len();
    let total_tracks: usize = detailed.channels.iter().map(|t| t.count()).sum();
    let height_px =
        result.rows as f64 * row_px + total_tracks as f64 * Y_SCALE + (nchan as f64 + 1.0) * 4.0;

    let mut svg = String::new();
    let _ = writeln!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{:.0}" height="{:.0}" viewBox="0 0 {:.0} {:.0}">"#,
        width_px, height_px, width_px, height_px
    );
    let _ = writeln!(
        svg,
        r##"<rect width="100%" height="100%" fill="#ffffff"/>"##
    );

    let mut y = 2.0;
    // Top channel first (index nchan-1), down to channel 0.
    for c in (0..nchan).rev() {
        let packing = &detailed.channels[c];
        for track in &packing.tracks {
            for iv in track {
                let x1 = iv.lo as f64 * X_SCALE;
                let x2 = (iv.hi + 1) as f64 * X_SCALE;
                let color = PALETTE[iv.net as usize % PALETTE.len()];
                let _ = writeln!(
                    svg,
                    r#"<line x1="{x1:.1}" y1="{y:.1}" x2="{x2:.1}" y2="{y:.1}" stroke="{color}" stroke-width="{STROKE:.1}"/>"#,
                );
            }
            y += Y_SCALE;
        }
        y += 4.0; // channel separator
        if c > 0 {
            // Row c-1 sits below channel c.
            let _ = writeln!(
                svg,
                r##"<rect x="0" y="{y:.1}" width="{width_px:.1}" height="{row_px:.1}" fill="#e8e8e8" stroke="#c0c0c0" stroke-width="0.5"/>"##
            );
            y += row_px;
        }
    }
    svg.push_str("</svg>\n");
    svg
}

/// The congestion report: a heatmap (one line per channel, top channel
/// first, [`BUCKETS`] cells of digits 0-9 scaled to the chip-wide peak, '.'
/// for empty), the [`HOTSPOTS`] channels of highest peak and the
/// peak/mean ratio of the spikiest channel.
pub fn congestion(result: &RoutingResult) -> String {
    let width = result.chip_width.max(1);
    let nchan = result.channel_density.len();
    let mut grid = vec![[0i64; BUCKETS]; nchan];
    // Each channel's summed span widths (its mean density times the chip
    // width) and span count.
    let mut loads = vec![(0i64, 0usize); nchan];
    let bucket = |col: i64| (col.clamp(0, width - 1) * BUCKETS as i64 / width) as usize;
    for s in &result.spans {
        for cell in &mut grid[s.channel as usize][bucket(s.lo)..=bucket(s.hi)] {
            *cell += 1;
        }
        let load = &mut loads[s.channel as usize];
        load.0 += columns(s, width).map_or(0, |(lo, hi)| hi - lo + 1);
        load.1 += 1;
    }
    let top = grid.iter().flatten().copied().max().unwrap_or(0).max(1);
    let digit = |v: i64| match v {
        0 => '.',
        v => char::from_digit(((v * 9) / top).clamp(1, 9) as u32, 10).expect("digit"),
    };
    let mut out = String::new();
    out += "congestion heatmap (channels bottom-up, 0-9 scaled to the chip peak):\n";
    for (c, row) in grid.iter().enumerate().rev() {
        let cells: String = row.iter().map(|&v| digit(v)).collect();
        let _ = writeln!(out, "ch{c:>3} |{cells}|");
    }

    out += "hottest channels:\n";
    let mean = |c: usize| loads[c].0 as f64 / width as f64;
    let mut busiest: Vec<usize> = (0..nchan).collect();
    busiest.sort_by_key(|&c| Reverse(result.channel_density[c]));
    for &c in busiest.iter().take(HOTSPOTS) {
        let (peak, spans) = (result.channel_density[c], loads[c].1);
        let column = peak_column(result, c, peak);
        let _ = writeln!(
            out,
            "  channel {c:>3}: peak {peak} (column {column}), mean {:.1}, {spans} spans",
            mean(c)
        );
    }
    // `None` when no channel carries wire: not a perfectly flat chip.
    let spikiness = (0..nchan)
        .filter(|&c| mean(c) > 0.0)
        .map(|c| result.channel_density[c] as f64 / mean(c))
        .reduce(f64::max);
    let _ = match spikiness {
        Some(s) => writeln!(out, "worst channel spikiness (peak/mean): {s:.2}"),
        None => writeln!(out, "worst channel spikiness: n/a (no routed wire)"),
    };
    out
}

/// The columns `lo..=hi` of span `s` within `[0, width)`, ends in order;
/// `None` if none remain (how `pgr_geom::DensityProfile` clamps a span).
fn columns(s: &Span, width: i64) -> Option<(i64, i64)> {
    let (lo, hi) = (s.lo.min(s.hi).max(0), s.lo.max(s.hi).min(width - 1));
    (lo <= hi).then_some((lo, hi))
}

/// Leftmost column of `channel` whose density is `peak` (0 if none is),
/// from one difference array over the channel's spans.
fn peak_column(result: &RoutingResult, channel: usize, peak: i64) -> usize {
    let width = result.chip_width.max(1);
    let mut diff = vec![0i64; width as usize + 1];
    let spans = result
        .spans
        .iter()
        .filter(|s| s.channel as usize == channel);
    for (lo, hi) in spans.filter_map(|s| columns(s, width)) {
        diff[lo as usize] += 1;
        diff[hi as usize + 1] -= 1;
    }
    let mut density = 0;
    let at_peak = |d: &i64| {
        density += d;
        density == peak
    };
    diff[..width as usize].iter().position(at_peak).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgr::circuit::{generate, Circuit, GeneratorConfig, NetId};
    use pgr::mpi::{Comm, InstrumentConfig, MachineModel};
    use pgr::router::{
        route_parallel_guarded, try_route_serial, Algorithm, PartitionKind, RouterConfig,
    };

    fn circuit(name: &str, seed: u64) -> Circuit {
        generate(&GeneratorConfig::small(name, seed))
    }

    fn serial(c: &Circuit) -> RoutingResult {
        try_route_serial(
            c,
            &RouterConfig::with_seed(1),
            &mut Comm::solo(MachineModel::ideal()),
        )
        .unwrap()
    }

    fn routed() -> RoutingResult {
        serial(&circuit("analysis", 9))
    }

    fn empty(nchan: usize) -> RoutingResult {
        RoutingResult {
            circuit: "e".into(),
            channel_density: vec![0; nchan],
            chip_width: 50,
            rows: nchan - 1,
            wirelength: 0,
            feedthroughs: 0,
            spans: Vec::new(),
        }
    }

    /// One hotspot line of the report, as printed.
    #[derive(Debug)]
    struct Line {
        channel: usize,
        peak: i64,
        column: i64,
        mean: String,
        spans: usize,
    }

    fn hotspots(r: &RoutingResult) -> Vec<Line> {
        let report = congestion(r);
        let lines = report.lines().filter(|l| l.starts_with("  channel "));
        lines
            .map(|l| {
                let number = |w: &str| -> String {
                    w.trim_matches(|c: char| !c.is_ascii_digit() && c != '.')
                        .into()
                };
                let f: Vec<String> = l.split_whitespace().map(number).collect();
                Line {
                    channel: f[1].parse().unwrap(),
                    peak: f[3].parse().unwrap(),
                    column: f[5].parse().unwrap(),
                    mean: f[7].clone(),
                    spans: f[8].parse().unwrap(),
                }
            })
            .collect()
    }

    /// The report's heatmap lines.
    fn heatmap(r: &RoutingResult) -> String {
        let report = congestion(r);
        let lines = report.lines().filter(|l| l.starts_with("ch"));
        lines.map(|l| format!("{l}\n")).collect()
    }

    /// The spikiness line's figure, `None` for "n/a".
    fn spikiness(r: &RoutingResult) -> Option<String> {
        let report = congestion(r);
        let line = report.lines().last().unwrap();
        let figure = line.strip_prefix("worst channel spikiness (peak/mean): ");
        assert!(figure.is_some() || line.ends_with("n/a (no routed wire)"));
        figure.map(String::from)
    }

    /// Per-column density of `channel`, counted span by span.
    fn recount(r: &RoutingResult, channel: usize) -> Vec<i64> {
        (0..r.chip_width.max(1))
            .map(|col| {
                let covers = |s: &&Span| {
                    s.channel as usize == channel && s.lo.min(s.hi) <= col && col <= s.lo.max(s.hi)
                };
                r.spans.iter().filter(covers).count() as i64
            })
            .collect()
    }

    #[test]
    fn svg_is_well_formed_and_complete() {
        let r = serial(&circuit("plot", 3));
        let svg = render_svg(&r);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // One <line> per packed interval.
        let detailed = route_channels(&r);
        let intervals: usize = detailed
            .channels
            .iter()
            .flat_map(|t| &t.tracks)
            .map(Vec::len)
            .sum();
        assert_eq!(svg.matches("<line").count(), intervals);
        // One row rectangle per cell row.
        assert_eq!(
            svg.matches("<rect").count() - 1,
            r.rows,
            "background + rows"
        );
    }

    #[test]
    fn empty_chip_renders() {
        let r = RoutingResult {
            chip_width: 100,
            ..empty(2)
        };
        let svg = render_svg(&r);
        assert!(svg.contains("</svg>"));
        assert_eq!(svg.matches("<line").count(), 0);
    }

    #[test]
    fn peaks_match_the_reported_densities() {
        let r = routed();
        let hot = hotspots(&r);
        assert_eq!(hot.len(), HOTSPOTS.min(r.channel_density.len()));
        for h in &hot {
            assert_eq!(
                h.peak, r.channel_density[h.channel],
                "channel {}",
                h.channel
            );
            assert!(h.mean.parse::<f64>().unwrap() <= h.peak as f64 + 0.05);
            assert!(h.column < r.chip_width);
        }
    }

    #[test]
    fn hotspots_are_sorted() {
        let peaks: Vec<i64> = hotspots(&routed()).iter().map(|h| h.peak).collect();
        assert!(peaks.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn spikiness_at_least_one() {
        let s = spikiness(&routed()).expect("routed chip has busy channels");
        assert!(s.parse::<f64>().unwrap() >= 1.0);
    }

    #[test]
    fn spikiness_is_none_for_empty_chip() {
        assert_eq!(spikiness(&empty(3)), None);
    }

    #[test]
    fn heatmap_shape_and_charset() {
        let r = routed();
        let map = heatmap(&r);
        let lines: Vec<&str> = map.lines().collect();
        assert_eq!(lines.len(), r.channel_density.len());
        for line in &lines {
            let body = line.split('|').nth(1).expect("row body");
            assert_eq!(body.chars().count(), BUCKETS);
            assert!(body.chars().all(|c| c == '.' || c.is_ascii_digit()));
        }
        // Busiest cells reach '9'.
        assert!(map.contains('9'));
    }

    #[test]
    fn synthetic_hotspot_is_found() {
        let mut r = routed();
        // Pile fifty identical spans into channel 2 around column 5, and
        // raise the channel's peak with them, as routing would have.
        for _ in 0..50 {
            r.spans.push(Span {
                net: NetId(0),
                channel: 2,
                lo: 4,
                hi: 7,
                switch_row: None,
            });
        }
        r.channel_density[2] = *recount(&r, 2).iter().max().unwrap();
        let top = &hotspots(&r)[0];
        assert_eq!(top.channel, 2);
        assert!((4..=7).contains(&top.column));
    }

    #[test]
    fn empty_result_analyzes_cleanly() {
        let r = empty(3);
        assert!(hotspots(&r).iter().all(|h| h.peak == 0 && h.spans == 0));
        fn count_digits(s: &str) -> usize {
            s.lines()
                .map(|l| {
                    l.split('|')
                        .nth(1)
                        .map(|b| b.chars().filter(char::is_ascii_digit).count())
                        .unwrap_or(0)
                })
                .sum()
        }
        let map = heatmap(&r);
        assert_eq!(count_digits(&map), 0, "empty chip has no hot cells");
    }

    /// Every hotspot line and the spikiness line of a routed chip, serial
    /// and hybrid at P = 3, equal a span-by-span recount of each column.
    #[test]
    fn hotspot_lines_match_a_column_recount() {
        let c = circuit("recount", 5);
        let hybrid = route_parallel_guarded(
            &c,
            &RouterConfig::with_seed(1),
            Algorithm::Hybrid,
            PartitionKind::PinWeight,
            3,
            MachineModel::ideal(),
            InstrumentConfig::off(),
        );
        for r in [serial(&c), hybrid.result.unwrap()] {
            let width = r.chip_width.max(1) as f64;
            let mut worst: Option<f64> = None;
            for c in 0..r.channel_density.len() {
                let cols = recount(&r, c);
                let (peak, sum) = (*cols.iter().max().unwrap(), cols.iter().sum::<i64>());
                assert_eq!(r.channel_density[c], peak, "channel {c}");
                if sum > 0 {
                    let s = peak as f64 / (sum as f64 / width);
                    worst = Some(worst.map_or(s, |w| w.max(s)));
                }
            }
            let hot = hotspots(&r);
            assert_eq!(hot.len(), HOTSPOTS);
            for h in hot {
                let cols = recount(&r, h.channel);
                let spans = r.spans.iter().filter(|s| s.channel as usize == h.channel);
                assert_eq!(h.peak, *cols.iter().max().unwrap(), "{h:?}");
                let leftmost = cols.iter().position(|&d| d == h.peak).unwrap();
                assert_eq!(h.column, leftmost as i64, "{h:?}");
                let mean = cols.iter().sum::<i64>() as f64 / width;
                assert_eq!(h.mean, format!("{mean:.1}"), "{h:?}");
                assert_eq!(h.spans, spans.count(), "{h:?}");
            }
            assert_eq!(spikiness(&r), worst.map(|s| format!("{s:.2}")));
        }
    }
}
