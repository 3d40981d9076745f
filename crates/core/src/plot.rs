//! SVG rendering of routed chips.
//!
//! Draws the row stack (grey bars), every channel sized to its track
//! count, and each horizontal span on its assigned track (colored by
//! net) — the picture a physical designer looks at. Tracks come from the
//! detailed left-edge pass, so the drawing is an actual legal channel
//! packing, not an abstract density plot.

use crate::detailed::route_channels;
use crate::metrics::{RoutingResult, ROW_HEIGHT};
use std::fmt::Write as _;

/// Palette for net coloring (cycled by net id).
const PALETTE: [&str; 10] = [
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948", "#b07aa1", "#ff9da7",
    "#9c755f", "#bab0ac",
];

/// Options for [`render_svg`].
#[derive(Debug, Clone)]
pub struct PlotOptions {
    /// Horizontal pixels per column (keeps files small on big chips).
    pub x_scale: f64,
    /// Vertical pixels per track / per row-height unit.
    pub y_scale: f64,
    /// Stroke width of span lines.
    pub stroke: f64,
}

impl Default for PlotOptions {
    fn default() -> Self {
        PlotOptions {
            x_scale: 0.5,
            y_scale: 2.0,
            stroke: 1.2,
        }
    }
}

/// Render the routed chip as an SVG document.
///
/// Layout, bottom to top: channel 0, row 0, channel 1, row 1, …, top
/// channel. Channel heights are their detailed track counts; every span
/// is drawn on the track the left-edge router assigned it.
pub fn render_svg(result: &RoutingResult, opts: &PlotOptions) -> String {
    let detailed = route_channels(result);
    let width_px = result.chip_width as f64 * opts.x_scale;
    let row_px = ROW_HEIGHT as f64 * opts.y_scale;

    // Vertical layout (SVG y grows downward; we lay out top-down, so
    // iterate channels/rows from the top).
    let nchan = result.channel_density.len();
    let total_tracks: usize = detailed.channels.iter().map(|t| t.count()).sum();
    let height_px = result.rows as f64 * row_px
        + total_tracks as f64 * opts.y_scale
        + (nchan as f64 + 1.0) * 4.0;

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
                let x1 = iv.lo as f64 * opts.x_scale;
                let x2 = (iv.hi + 1) as f64 * opts.x_scale;
                let color = PALETTE[iv.net as usize % PALETTE.len()];
                let _ = writeln!(
                    svg,
                    r#"<line x1="{x1:.1}" y1="{y:.1}" x2="{x2:.1}" y2="{y:.1}" stroke="{color}" stroke-width="{:.1}"/>"#,
                    opts.stroke
                );
            }
            y += opts.y_scale;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::try_route_serial;
    use crate::RouterConfig;
    use pgr_circuit::{generate, GeneratorConfig};
    use pgr_mpi::{Comm, MachineModel};

    fn routed() -> RoutingResult {
        let c = generate(&GeneratorConfig::small("plot", 3));
        try_route_serial(
            &c,
            &RouterConfig::with_seed(1),
            &mut Comm::solo(MachineModel::ideal()),
        )
        .unwrap()
    }

    #[test]
    fn svg_is_well_formed_and_complete() {
        let r = routed();
        let svg = render_svg(&r, &PlotOptions::default());
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
    fn scales_change_dimensions() {
        let r = routed();
        let small = render_svg(
            &r,
            &PlotOptions {
                x_scale: 0.25,
                ..Default::default()
            },
        );
        let big = render_svg(
            &r,
            &PlotOptions {
                x_scale: 1.0,
                ..Default::default()
            },
        );
        let width_of = |svg: &str| -> f64 {
            let start = svg.find("width=\"").unwrap() + 7;
            let end = svg[start..].find('"').unwrap() + start;
            svg[start..end].parse().unwrap()
        };
        assert!(width_of(&big) > 3.0 * width_of(&small));
    }

    #[test]
    fn empty_chip_renders() {
        let r = RoutingResult {
            circuit: "empty".into(),
            channel_density: vec![0, 0],
            chip_width: 100,
            rows: 1,
            wirelength: 0,
            feedthroughs: 0,
            spans: Vec::new(),
        };
        let svg = render_svg(&r, &PlotOptions::default());
        assert!(svg.contains("</svg>"));
        assert_eq!(svg.matches("<line").count(), 0);
    }
}
