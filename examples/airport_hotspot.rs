//! Airport surge: why hotspot clustering exists.
//!
//! When many passengers request rides from (almost) the same place at the
//! same time — an airport arrivals hall — every ordering of the co-located
//! pickups is a valid schedule and the basic kinetic tree blows up
//! combinatorially (Sec. V of the paper). This example drives the same
//! surge through the basic, slack-time and hotspot-clustering trees and
//! prints the matching latency and the size of the busiest vehicle's tree.
//!
//! ```text
//! cargo run --release --example airport_hotspot
//! ```

use ridesharing::prelude::*;

fn surge_workload() -> Workload {
    // Demand almost entirely attached to the airport hotspot, arriving in a
    // short window, so a handful of vehicles see many co-located pickups.
    Workload::generate(
        &CityConfig::small(),
        &DemandConfig {
            trips: 250,
            span_seconds: 1_800.0,
            hotspot_fraction: 0.95,
            ..DemandConfig::default()
        },
        7,
    )
}

fn run(workload: &Workload, oracle: &CachedOracle<'_>, name: &str, config: KineticConfig) {
    let sim_config = SimConfig {
        vehicles: 8,
        capacity: usize::MAX, // unlimited, as in the paper's hardest setting
        constraints: Constraints::paper_setting(3), // 20 min / 40%
        planner: PlannerKind::Kinetic(config),
        cruise_when_idle: false,
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(&workload.network, oracle, sim_config);
    let report = sim.run(&workload.trips);
    let largest_tree = sim
        .vehicles()
        .iter()
        .filter_map(|v| v.tree().map(|t| t.stats().nodes))
        .max()
        .unwrap_or(0);
    println!(
        "{name:<14} acrt={:>8.3} ms  served={:>5.1}%  max onboard={:>2}  largest tree={:>7} nodes",
        report.acrt_ms,
        100.0 * report.service_rate(),
        report.occupancy.fleet_max,
        largest_tree,
    );
}

fn main() {
    let workload = surge_workload();
    let oracle = CachedOracle::new(&workload.network);
    println!(
        "airport surge: {} requests in 30 minutes, 8 vehicles, unlimited capacity\n",
        workload.trips.len()
    );
    run(&workload, &oracle, "basic tree", KineticConfig::basic());
    run(&workload, &oracle, "slack tree", KineticConfig::slack());
    run(
        &workload,
        &oracle,
        "hotspot tree",
        KineticConfig::hotspot(400.0),
    );
    println!(
        "\nThe hotspot tree keeps the per-vehicle tree small by pinning co-located\n\
         stops together (Theorem 2 bounds the extra cost by 2(m+1)·θ)."
    );
}
