//! Demand generation: trip request streams with rush-hour peaks and
//! hotspot clustering.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roadnet::io::bin::{self, Reader};
use roadnet::{NodeId, NodeLocator, RoadNetError, RoadNetwork};

use crate::city::Hotspot;

/// One trip request of the workload (the simulator converts this to a
/// `kinetic_core::TripRequest` when it is submitted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TripEvent {
    /// Sequential id, also used as the core `TripId`.
    pub id: u64,
    /// Pickup vertex.
    pub source: NodeId,
    /// Drop-off vertex.
    pub destination: NodeId,
    /// Submission time in seconds from the start of the simulated day.
    pub time_seconds: f64,
}

impl TripEvent {
    /// Length of one [`TripEvent::encode`] record in bytes.
    pub const ENCODED_BYTES: usize = 24;

    /// Appends the trip's little-endian record: id, source, destination,
    /// then the submission time's bits. Serve journals store trips in it
    /// and checkpoint stream digests hash it, so it must never change.
    pub fn encode(&self, out: &mut Vec<u8>) {
        bin::put_u64(out, self.id);
        bin::put_u32(out, self.source);
        bin::put_u32(out, self.destination);
        bin::put_f64(out, self.time_seconds);
    }

    /// Reads one [`TripEvent::encode`] record.
    pub fn decode(r: &mut Reader<'_>) -> Result<TripEvent, RoadNetError> {
        Ok(TripEvent {
            id: r.u64("trip id")?,
            source: r.u32("trip source")?,
            destination: r.u32("trip destination")?,
            time_seconds: r.f64("trip time")?,
        })
    }
}

/// Hourly demand profile over a 24-hour day.
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalProfile {
    /// Relative demand weight of each of the 24 hours.
    pub hourly_weights: [f64; 24],
}

impl TemporalProfile {
    /// Taxi-like profile: low demand overnight, a morning peak around
    /// 7–9 am, sustained daytime demand and an evening peak around 5–8 pm.
    pub fn taxi_day() -> Self {
        let hourly_weights = [
            1.2, 0.8, 0.5, 0.4, 0.5, 1.0, // 0-5
            2.5, 5.0, 6.0, 4.0, 3.0, 3.2, // 6-11
            3.5, 3.2, 3.0, 3.2, 4.0, 5.5, // 12-17
            6.5, 6.0, 4.5, 3.5, 2.5, 1.8, // 18-23
        ];
        TemporalProfile { hourly_weights }
    }

    /// Uniform demand (useful for micro-benchmarks where the temporal shape
    /// would only add noise).
    pub fn uniform() -> Self {
        TemporalProfile {
            hourly_weights: [1.0; 24],
        }
    }

    /// Draws a submission time (seconds in `[0, span_seconds)`) from the
    /// profile.
    pub fn sample(&self, rng: &mut StdRng, span_seconds: f64) -> f64 {
        let total: f64 = self.hourly_weights.iter().sum();
        let mut pick = rng.gen::<f64>() * total;
        let mut hour = 0usize;
        for (h, &w) in self.hourly_weights.iter().enumerate() {
            if pick < w {
                hour = h;
                break;
            }
            pick -= w;
        }
        let within = rng.gen::<f64>();
        ((hour as f64 + within) / 24.0) * span_seconds
    }
}

/// Configuration of the demand stream.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandConfig {
    /// Number of trip requests to generate.
    pub trips: usize,
    /// Length of the simulated day in seconds (the paper uses one full day).
    pub span_seconds: f64,
    /// Temporal demand profile.
    pub profile: TemporalProfile,
    /// Fraction of trips with at least one endpoint attached to a hotspot.
    pub hotspot_fraction: f64,
    /// Minimum direct trip distance in meters (trips shorter than this are
    /// re-drawn; riders rarely hail a taxi for a one-block hop).
    pub min_trip_meters: f64,
}

impl Default for DemandConfig {
    fn default() -> Self {
        DemandConfig {
            trips: 1_000,
            span_seconds: 24.0 * 3_600.0,
            profile: TemporalProfile::taxi_day(),
            hotspot_fraction: 0.35,
            min_trip_meters: 800.0,
        }
    }
}

impl DemandConfig {
    /// Generates the trip stream over `network`, sorted by submission time.
    pub fn generate(
        &self,
        network: &RoadNetwork,
        hotspots: &[Hotspot],
        seed: u64,
    ) -> Vec<TripEvent> {
        let mut rng = StdRng::seed_from_u64(seed);
        let locator = NodeLocator::new(network);
        let n = network.node_count() as u64;
        let hotspot_total_weight: f64 = hotspots.iter().map(|h| h.weight).sum();

        let pick_uniform = |rng: &mut StdRng| (rng.gen::<u64>() % n) as NodeId;
        let pick_hotspot_node = |rng: &mut StdRng| -> NodeId {
            if hotspots.is_empty() || hotspot_total_weight <= 0.0 {
                return pick_uniform(rng);
            }
            let mut pick = rng.gen::<f64>() * hotspot_total_weight;
            let mut chosen = &hotspots[0];
            for h in hotspots {
                if pick < h.weight {
                    chosen = h;
                    break;
                }
                pick -= h.weight;
            }
            // A vertex near the hotspot centre, drawn uniformly from the
            // attachment disc.
            let centre = network.point(chosen.node);
            let angle = rng.gen::<f64>() * std::f64::consts::TAU;
            let radius = chosen.radius * rng.gen::<f64>().sqrt();
            locator.nearest(roadnet::Point::new(
                centre.x + radius * angle.cos(),
                centre.y + radius * angle.sin(),
            ))
        };

        let mut events = Vec::with_capacity(self.trips);
        for id in 0..self.trips as u64 {
            let mut attempt = 0;
            let (source, destination) = loop {
                attempt += 1;
                let clustered = rng.gen::<f64>() < self.hotspot_fraction;
                let (s, e) = if clustered {
                    // Half the clustered trips start at the hotspot (people
                    // leaving the airport), half end there.
                    if rng.gen::<bool>() {
                        (pick_hotspot_node(&mut rng), pick_uniform(&mut rng))
                    } else {
                        (pick_uniform(&mut rng), pick_hotspot_node(&mut rng))
                    }
                } else {
                    (pick_uniform(&mut rng), pick_uniform(&mut rng))
                };
                if s == e {
                    continue;
                }
                let euclid = network.point(s).distance(&network.point(e));
                if euclid >= self.min_trip_meters || attempt > 20 {
                    break (s, e);
                }
            };
            let time_seconds = self.profile.sample(&mut rng, self.span_seconds);
            events.push(TripEvent {
                id,
                source,
                destination,
                time_seconds,
            });
        }
        events.sort_by(|a, b| a.time_seconds.partial_cmp(&b.time_seconds).unwrap());
        // Re-number so ids follow submission order (handy for debugging).
        for (i, e) in events.iter_mut().enumerate() {
            e.id = i as u64;
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::city::CityConfig;

    fn setup() -> (RoadNetwork, Vec<Hotspot>) {
        CityConfig::small().build(3)
    }

    #[test]
    fn a_trip_record_is_its_pinned_24_bytes_and_decodes_back() {
        let trip = TripEvent {
            id: 0x0102_0304_0506_0708,
            source: 9,
            destination: 0x0a0b_0c0d,
            time_seconds: 1.5,
        };
        let mut bytes = Vec::new();
        trip.encode(&mut bytes);
        let mut expect = vec![8, 7, 6, 5, 4, 3, 2, 1, 9, 0, 0, 0, 0x0d, 0x0c, 0x0b, 0x0a];
        expect.extend_from_slice(&1.5f64.to_le_bytes());
        assert_eq!(bytes, expect);
        assert_eq!(bytes.len(), TripEvent::ENCODED_BYTES);
        let mut r = Reader::new(&bytes);
        assert_eq!(TripEvent::decode(&mut r).unwrap(), trip);
        assert_eq!(r.remaining(), 0);
        assert!(TripEvent::decode(&mut Reader::new(&bytes[..23])).is_err());
    }

    #[test]
    fn generates_requested_number_sorted_by_time() {
        let (network, hotspots) = setup();
        let cfg = DemandConfig {
            trips: 300,
            ..DemandConfig::default()
        };
        let trips = cfg.generate(&network, &hotspots, 5);
        assert_eq!(trips.len(), 300);
        assert!(trips
            .windows(2)
            .all(|w| w[0].time_seconds <= w[1].time_seconds));
        assert!(trips.iter().enumerate().all(|(i, t)| t.id == i as u64));
        assert!(trips.iter().all(|t| t.source != t.destination));
        assert!(trips
            .iter()
            .all(|t| (t.source as usize) < network.node_count()
                && (t.destination as usize) < network.node_count()));
        assert!(trips
            .iter()
            .all(|t| t.time_seconds >= 0.0 && t.time_seconds <= cfg.span_seconds));
    }

    #[test]
    fn rush_hours_receive_more_demand_than_night() {
        let (network, hotspots) = setup();
        let cfg = DemandConfig {
            trips: 5_000,
            ..DemandConfig::default()
        };
        let trips = cfg.generate(&network, &hotspots, 11);
        let count_in = |from_h: f64, to_h: f64| {
            trips
                .iter()
                .filter(|t| {
                    let h = t.time_seconds / 3_600.0;
                    h >= from_h && h < to_h
                })
                .count()
        };
        let morning_rush = count_in(7.0, 9.0);
        let deep_night = count_in(2.0, 4.0);
        assert!(
            morning_rush > 3 * deep_night,
            "rush {morning_rush} vs night {deep_night}"
        );
    }

    #[test]
    fn hotspot_fraction_concentrates_endpoints() {
        let (network, hotspots) = setup();
        let clustered_cfg = DemandConfig {
            trips: 2_000,
            hotspot_fraction: 0.9,
            ..DemandConfig::default()
        };
        let uniform_cfg = DemandConfig {
            trips: 2_000,
            hotspot_fraction: 0.0,
            ..DemandConfig::default()
        };
        let near_hotspot = |trips: &[TripEvent]| {
            trips
                .iter()
                .filter(|t| {
                    hotspots.iter().any(|h| {
                        let c = network.point(h.node);
                        network.point(t.source).distance(&c) <= h.radius
                            || network.point(t.destination).distance(&c) <= h.radius
                    })
                })
                .count()
        };
        let clustered = near_hotspot(&clustered_cfg.generate(&network, &hotspots, 2));
        let uniform = near_hotspot(&uniform_cfg.generate(&network, &hotspots, 2));
        assert!(
            clustered > uniform * 2,
            "clustered {clustered} vs uniform {uniform}"
        );
    }

    #[test]
    fn minimum_trip_length_is_respected_mostly() {
        let (network, hotspots) = setup();
        let cfg = DemandConfig {
            trips: 500,
            min_trip_meters: 1_000.0,
            ..DemandConfig::default()
        };
        let trips = cfg.generate(&network, &hotspots, 6);
        let long_enough = trips
            .iter()
            .filter(|t| {
                network
                    .point(t.source)
                    .distance(&network.point(t.destination))
                    >= 1_000.0
            })
            .count();
        assert!(long_enough as f64 >= 0.9 * trips.len() as f64);
    }

    #[test]
    fn uniform_profile_spreads_demand() {
        let profile = TemporalProfile::uniform();
        let mut rng = StdRng::seed_from_u64(1);
        let span = 24.0 * 3600.0;
        let samples: Vec<f64> = (0..2_000).map(|_| profile.sample(&mut rng, span)).collect();
        let first_half = samples.iter().filter(|&&t| t < span / 2.0).count();
        assert!(
            (first_half as f64 - 1_000.0).abs() < 150.0,
            "uniform profile should split evenly, got {first_half}"
        );
    }
}
