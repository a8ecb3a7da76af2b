//! Quickstart: simulate a small city served by a kinetic-tree fleet.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ridesharing::prelude::*;

fn main() {
    // 1. A synthetic city (~100 intersections) and one morning of demand.
    let workload = Workload::generate(
        &CityConfig::small(),
        &DemandConfig {
            trips: 400,
            span_seconds: 6.0 * 3_600.0,
            ..DemandConfig::default()
        },
        2024,
    );
    println!(
        "city: {} intersections, {} road segments, {} requests over {:.1} h",
        workload.network.node_count(),
        workload.network.edge_count(),
        workload.trips.len(),
        workload.span_seconds() / 3_600.0,
    );

    // 2. A distance oracle (Dijkstra + the paper's distance cache).
    let oracle = CachedOracle::new(&workload.network);

    // 3. Twenty taxis, capacity 4, 10 min / 20% service guarantee, matched
    //    with the slack-time kinetic tree.
    let config = SimConfig {
        vehicles: 20,
        capacity: 4,
        constraints: Constraints::paper_default(),
        planner: PlannerKind::Kinetic(KineticConfig::slack()),
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(&workload.network, &oracle, config);
    let report = sim.run(&workload.trips);

    // 4. What happened?
    println!("\n{}", report.summary_line());
    println!(
        "service rate          : {:.1}%",
        100.0 * report.service_rate()
    );
    println!(
        "matching latency (ACRT): {:.3} ms per request",
        report.acrt_ms
    );
    println!(
        "mean waiting time      : {:.0} s (guarantee: {:.0} s)",
        report.mean_wait_seconds,
        config.constraints.max_wait / config.speed_mps
    );
    println!(
        "mean detour            : {:.2}x the direct route (guarantee: {:.2}x)",
        report.mean_detour_ratio,
        1.0 + config.constraints.detour_factor
    );
    println!(
        "guarantee violations   : {} (must be zero)",
        report.guarantee_violations
    );
    println!(
        "busiest vehicle carried {} passengers at once",
        report.occupancy.fleet_max
    );
    assert_eq!(report.guarantee_violations, 0);
}
