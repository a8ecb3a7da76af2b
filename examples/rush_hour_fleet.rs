//! Rush hour: how the service guarantee setting changes what a fixed fleet
//! can deliver.
//!
//! The paper's Table I sweeps the waiting time / detour constraint from
//! 5 min/10% to 25 min/50%. With a fixed fleet, looser guarantees let the
//! dispatcher accept more requests (more ridesharing) at the price of longer
//! waits and detours. This example runs a morning-rush workload through all
//! five settings and prints the trade-off.
//!
//! ```text
//! cargo run --release --example rush_hour_fleet
//! ```

use ridesharing::prelude::*;

fn main() {
    let workload = Workload::generate(
        &CityConfig::small(),
        &DemandConfig {
            trips: 600,
            span_seconds: 3.0 * 3_600.0, // a three-hour morning rush
            hotspot_fraction: 0.5,
            ..DemandConfig::default()
        },
        11,
    );
    let oracle = CachedOracle::new(&workload.network);
    println!(
        "morning rush: {} requests over 3 h, 12 taxis of capacity 4\n",
        workload.trips.len()
    );
    println!(
        "{:<12} {:>9} {:>11} {:>13} {:>13} {:>10}",
        "guarantee", "served %", "ACRT (ms)", "mean wait (s)", "mean detour", "violations"
    );
    for i in 0..5 {
        let constraints = Constraints::paper_setting(i);
        let config = SimConfig {
            vehicles: 12,
            capacity: 4,
            constraints,
            planner: PlannerKind::Kinetic(KineticConfig::slack()),
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(&workload.network, &oracle, config);
        let report = sim.run(&workload.trips);
        println!(
            "{:<12} {:>9.1} {:>11.3} {:>13.0} {:>13.2} {:>10}",
            format!("{}min/{}%", (i + 1) * 5, (i + 1) * 10),
            100.0 * report.service_rate(),
            report.acrt_ms,
            report.mean_wait_seconds,
            report.mean_detour_ratio,
            report.guarantee_violations,
        );
    }
    println!("\nLooser guarantees serve more riders with the same fleet — the core\nridesharing trade-off the paper quantifies.");
}
