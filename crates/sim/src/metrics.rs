//! Simulation metrics and the final report.

/// Occupancy statistics over the fleet (Sec. VI-B of the paper reports, at
/// unlimited capacity, a maximum of 17 simultaneous passengers, an average
/// of 1.7 and an average of about 3.9 over the top-20% most loaded servers).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OccupancyStats {
    /// Largest number of passengers simultaneously on board any vehicle.
    pub fleet_max: usize,
    /// Mean over vehicles of each vehicle's own maximum simultaneous load.
    pub mean_of_max: f64,
    /// Mean of the per-vehicle maxima over the top 20% most loaded vehicles.
    pub top20_mean_of_max: f64,
    /// Mean number of passengers on board at pickup events (a proxy for the
    /// typical sharing level actually experienced by riders).
    pub mean_at_pickup: f64,
}

/// Final report of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Requests submitted.
    pub requests: u64,
    /// Requests assigned to a vehicle.
    pub assigned: u64,
    /// Requests no vehicle could serve within the guarantees.
    pub rejected: u64,
    /// Average customer response time in milliseconds (wall-clock matching
    /// latency per request).
    pub acrt_ms: f64,
    /// Average per-vehicle evaluation latency bucketed by the vehicle's
    /// number of active requests: `(active requests, evaluations, mean ms)`.
    pub art_table: Vec<(usize, u64, f64)>,
    /// Mean realised waiting time of picked-up riders, in seconds.
    pub mean_wait_seconds: f64,
    /// Mean realised ride distance divided by the direct shortest distance.
    pub mean_detour_ratio: f64,
    /// Number of accepted requests whose realised waiting time or ride
    /// distance exceeded the guarantee. Must be zero: the matcher never
    /// accepts a request it cannot serve within the constraints.
    pub guarantee_violations: u64,
    /// Riders delivered before the simulation ended.
    pub completed: u64,
    /// Occupancy statistics.
    pub occupancy: OccupancyStats,
    /// Total distance driven by the fleet, in kilometers.
    pub fleet_distance_km: f64,
    /// Distance driven per delivered rider, in kilometers.
    pub distance_per_delivery_km: f64,
    /// Mean number of candidate vehicles the spatial filter returned per
    /// request.
    pub mean_candidates: f64,
    /// Mean number of candidates that actually reached a full schedule
    /// evaluation per request — with slack-aware pruning this is what the
    /// dispatcher really pays for, and the gap to `mean_candidates` is the
    /// pruning win.
    pub mean_candidates_evaluated: f64,
    /// Simulated span covered, in seconds.
    pub span_seconds: f64,
}

impl SimReport {
    /// Fraction of requests that were assigned.
    pub fn service_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.assigned as f64 / self.requests as f64
        }
    }

    /// ART (ms) for vehicles with exactly `active` active requests, if
    /// measured.
    pub fn art_ms(&self, active: usize) -> Option<f64> {
        self.art_table
            .iter()
            .find(|&&(a, _, _)| a == active)
            .map(|&(_, _, ms)| ms)
    }

    /// A compact single-line summary used by the experiment harnesses.
    pub fn summary_line(&self) -> String {
        format!(
            "requests={} assigned={} ({:.1}%) acrt={:.3}ms wait={:.0}s detour={:.2}x occ_max={} dist={:.0}km",
            self.requests,
            self.assigned,
            100.0 * self.service_rate(),
            self.acrt_ms,
            self.mean_wait_seconds,
            self.mean_detour_ratio,
            self.occupancy.fleet_max,
            self.fleet_distance_km,
        )
    }
}

/// One served pickup, in service order: the occupancy and waiting-time
/// signal of Sec. VI-B. Windowed harnesses bucket these by `clock_s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pickup {
    /// Vehicle that picked the rider up.
    pub vehicle: u32,
    /// Simulation clock of the pickup, in seconds.
    pub clock_s: f64,
    /// Realised waiting time, in seconds.
    pub waited_s: f64,
    /// Passengers on board immediately after the pickup.
    pub onboard: usize,
}

/// Incremental collector the engine feeds while the simulation runs.
#[derive(Debug, Clone, Default)]
pub(crate) struct MetricsCollector {
    pub pickups: Vec<Pickup>,
    /// Sum of the detour ratios of every delivery, in delivery order.
    pub detour_sum: f64,
    pub guarantee_violations: u64,
    pub completed: u64,
    pub fleet_distance_m: f64,
}

impl MetricsCollector {
    pub fn occupancy(&self, fleet_size: usize) -> OccupancyStats {
        // Vehicles that never picked anyone up count as zero.
        let mut maxima = vec![0usize; fleet_size];
        for p in &self.pickups {
            let max = &mut maxima[p.vehicle as usize];
            *max = (*max).max(p.onboard);
        }
        maxima.sort_unstable_by(|a, b| b.cmp(a));
        let fleet_max = maxima.first().copied().unwrap_or(0);
        let mean_of_max = if maxima.is_empty() {
            0.0
        } else {
            maxima.iter().sum::<usize>() as f64 / maxima.len() as f64
        };
        let top = (maxima.len() as f64 * 0.2).ceil().max(1.0) as usize;
        let top20_mean_of_max = maxima.iter().take(top).sum::<usize>() as f64 / top as f64;
        let mean_at_pickup = if self.pickups.is_empty() {
            0.0
        } else {
            self.pickups.iter().map(|p| p.onboard).sum::<usize>() as f64 / self.pickups.len() as f64
        };
        OccupancyStats {
            fleet_max,
            mean_of_max,
            top20_mean_of_max,
            mean_at_pickup,
        }
    }

    pub fn mean_wait_seconds(&self) -> f64 {
        if self.pickups.is_empty() {
            0.0
        } else {
            self.pickups.iter().map(|p| p.waited_s).sum::<f64>() / self.pickups.len() as f64
        }
    }

    pub fn mean_detour_ratio(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.detour_sum / self.completed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_statistics() {
        let pickups = [(0, 1, 30.0), (0, 2, 60.0), (1, 4, 90.0), (2, 1, 10.0)];
        let c = MetricsCollector {
            pickups: pickups
                .iter()
                .enumerate()
                .map(|(i, &(vehicle, onboard, waited_s))| Pickup {
                    vehicle,
                    clock_s: 100.0 * i as f64,
                    waited_s,
                    onboard,
                })
                .collect(),
            ..MetricsCollector::default()
        };
        let occ = c.occupancy(5);
        assert_eq!(occ.fleet_max, 4);
        // per-vehicle maxima: [4, 2, 1, 0, 0] -> mean 1.4, top-1 (20% of 5) = 4
        assert!((occ.mean_of_max - 1.4).abs() < 1e-9);
        assert!((occ.top20_mean_of_max - 4.0).abs() < 1e-9);
        assert!((occ.mean_at_pickup - 2.0).abs() < 1e-9);
        assert!((c.mean_wait_seconds() - 47.5).abs() < 1e-9);
    }

    #[test]
    fn deliveries_and_violations() {
        let c = MetricsCollector {
            detour_sum: 1.1 + 1.3,
            completed: 2,
            ..MetricsCollector::default()
        };
        assert!((c.mean_detour_ratio() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn report_helpers() {
        let report = SimReport {
            requests: 10,
            assigned: 8,
            art_table: vec![(0, 5, 0.2), (2, 3, 0.9)],
            ..SimReport::default()
        };
        assert!((report.service_rate() - 0.8).abs() < 1e-9);
        assert_eq!(report.art_ms(2), Some(0.9));
        assert_eq!(report.art_ms(7), None);
        assert!(report.summary_line().contains("assigned=8"));
        assert_eq!(SimReport::default().service_rate(), 0.0);
    }

    #[test]
    fn empty_collector_is_safe() {
        let c = MetricsCollector::default();
        let occ = c.occupancy(3);
        assert_eq!(occ.fleet_max, 0);
        assert_eq!(c.mean_wait_seconds(), 0.0);
        assert_eq!(c.mean_detour_ratio(), 0.0);
    }
}
