//! Fleet sizing: the smallest fleet that meets a target service rate.
//!
//! Operators ask the inverse of the paper's Figure 6(c): not "how fast is
//! matching at a given fleet size" but "how many vehicles do I need so that
//! 95% of requests can be served within the guarantee?" This example sweeps
//! the fleet size with the kinetic-tree matcher and reports the service
//! rate, the sharing level and the distance driven per delivered rider (the
//! efficiency argument for ridesharing).
//!
//! ```text
//! cargo run --release --example fleet_sizing
//! ```

use ridesharing::prelude::*;

fn main() {
    let workload = Workload::generate(
        &CityConfig::small(),
        &DemandConfig {
            trips: 500,
            span_seconds: 4.0 * 3_600.0,
            ..DemandConfig::default()
        },
        5,
    );
    let oracle = CachedOracle::new(&workload.network);
    let target = 0.95;
    println!(
        "{} requests over 4 h; searching for the smallest fleet with ≥ {:.0}% service\n",
        workload.trips.len(),
        target * 100.0
    );
    println!(
        "{:>8} {:>10} {:>12} {:>16} {:>18}",
        "fleet", "served %", "ACRT (ms)", "mean at pickup", "km per delivery"
    );
    let mut smallest: Option<usize> = None;
    for fleet in [4usize, 6, 8, 12, 16, 24, 32] {
        let config = SimConfig {
            vehicles: fleet,
            capacity: 4,
            constraints: Constraints::paper_default(),
            planner: PlannerKind::Kinetic(KineticConfig::slack()),
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(&workload.network, &oracle, config);
        let report = sim.run(&workload.trips);
        println!(
            "{:>8} {:>10.1} {:>12.3} {:>16.2} {:>18.2}",
            fleet,
            100.0 * report.service_rate(),
            report.acrt_ms,
            report.occupancy.mean_at_pickup,
            report.distance_per_delivery_km,
        );
        if smallest.is_none() && report.service_rate() >= target {
            smallest = Some(fleet);
        }
    }
    match smallest {
        Some(fleet) => println!("\n→ {fleet} vehicles are enough to serve {:.0}% of this demand.", target * 100.0),
        None => println!("\n→ even the largest tested fleet missed the {:.0}% target; add vehicles or loosen the guarantee.", target * 100.0),
    }
}
