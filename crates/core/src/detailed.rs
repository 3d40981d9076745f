//! The detailed-routing pass: validate and refine the density metric.
//!
//! The global router's quality metric assumes every channel can be
//! packed into `max_x density(x)` tracks. Running the left-edge channel
//! router ([`pgr_channel`]) over a [`RoutingResult`]'s spans proves that
//! per channel — and usually does slightly better, because overlapping
//! spans of the *same* net are one electrical wire and share a track
//! (the density profile counts them separately).

use crate::metrics::RoutingResult;
use pgr_channel::{assign_tracks, merge_net_intervals, Interval, TrackAssignment};

/// The detailed routing of every channel of a result.
#[derive(Debug)]
pub struct DetailedRouting {
    /// One packed channel per global channel index.
    pub channels: Vec<TrackAssignment>,
}

impl DetailedRouting {
    /// Total tracks across all channels — the detailed refinement of
    /// [`RoutingResult::track_count`].
    pub fn track_count(&self) -> usize {
        self.channels.iter().map(TrackAssignment::count).sum()
    }

    /// Mean utilization over non-empty channels.
    pub fn mean_utilization(&self) -> f64 {
        let busy: Vec<f64> = self
            .channels
            .iter()
            .filter(|t| t.count() > 0)
            .map(TrackAssignment::utilization)
            .collect();
        if busy.is_empty() {
            1.0
        } else {
            busy.iter().sum::<f64>() / busy.len() as f64
        }
    }

    /// Every channel's packing is short-free.
    pub fn validate(&self) -> bool {
        self.channels.iter().all(|t| t.validate().is_ok())
    }
}

/// Pack every channel of `result` with the left-edge router.
pub fn route_channels(result: &RoutingResult) -> DetailedRouting {
    let nchan = result.channel_density.len();
    let mut per_channel: Vec<Vec<Interval>> = vec![Vec::new(); nchan];
    for s in &result.spans {
        per_channel[s.channel() as usize].push(Interval::new(s.net.0, s.lo, s.hi));
    }
    let channels = per_channel
        .into_iter()
        .map(|ivs| assign_tracks(&merge_net_intervals(&ivs)))
        .collect();
    DetailedRouting { channels }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::try_route_serial;
    use crate::RouterConfig;
    use pgr_circuit::{generate, GeneratorConfig};
    use pgr_mpi::{Comm, MachineModel};

    fn routed() -> (pgr_circuit::Circuit, RoutingResult) {
        let c = generate(&GeneratorConfig::small("detailed", 8));
        let r = try_route_serial(
            &c,
            &RouterConfig::with_seed(3),
            &mut Comm::solo(MachineModel::ideal()),
        )
        .unwrap();
        (c, r)
    }

    #[test]
    fn detailed_pass_validates_the_density_metric() {
        let (_, r) = routed();
        let d = route_channels(&r);
        assert!(d.validate(), "no shorts in any channel");
        assert_eq!(d.channels.len(), r.channel_density.len());
        // LEA per channel never exceeds the reported density, and after
        // same-net merging it can only improve.
        for (c, (&density, tracks)) in r
            .channel_density
            .iter()
            .zip(d.channels.iter().map(TrackAssignment::count))
            .enumerate()
        {
            assert!(
                tracks as i64 <= density,
                "channel {c}: LEA {tracks} > density {density}"
            );
        }
        assert!(d.track_count() as i64 <= r.track_count());
        assert!(d.track_count() > 0);
    }

    #[test]
    fn refinement_is_close_to_the_metric() {
        // Same-net overlap is the only gap; it must be small (the
        // density objective would be meaningless otherwise).
        let (_, r) = routed();
        let d = route_channels(&r);
        let ratio = d.track_count() as f64 / r.track_count() as f64;
        assert!(
            ratio > 0.8,
            "detailed routing within 20 % of the metric: {ratio}"
        );
    }

    #[test]
    fn utilization_is_sane() {
        let (_, r) = routed();
        let d = route_channels(&r);
        let u = d.mean_utilization();
        assert!(u > 0.0 && u <= 1.0, "{u}");
    }

    #[test]
    fn empty_result_packs_trivially() {
        let r = RoutingResult {
            circuit: "empty".into(),
            channel_density: vec![0, 0],
            chip_width: 10,
            rows: 1,
            wirelength: 0,
            feedthroughs: 0,
            spans: Vec::new(),
        };
        let d = route_channels(&r);
        assert_eq!(d.track_count(), 0);
        assert!(d.validate());
        assert_eq!(d.mean_utilization(), 1.0);
    }
}
