//! Using the low-level API directly: a hand-built road network, explicit
//! vehicles and the dispatcher — no simulator, no workload generator.
//!
//! This is the integration surface an operator's own dispatch system would
//! use: they already know where their vehicles are and when requests arrive;
//! they only need the matcher.
//!
//! ```text
//! cargo run --release --example custom_network
//! ```

use ridesharing::prelude::*;

fn main() {
    // A small downtown: a 6x6 grid described in the text format understood
    // by `roadnet::parse_network` (here built programmatically instead).
    let mut b = GraphBuilder::new();
    for r in 0..6 {
        for c in 0..6 {
            b.add_node(Point::new(c as f64 * 200.0, r as f64 * 200.0));
        }
    }
    let id = |r: u32, c: u32| r * 6 + c;
    for r in 0..6 {
        for c in 0..6 {
            if c + 1 < 6 {
                b.add_edge(id(r, c), id(r, c + 1), 200.0);
            }
            if r + 1 < 6 {
                b.add_edge(id(r, c), id(r + 1, c), 200.0);
            }
        }
    }
    let network = b.build();
    let oracle = CachedOracle::new(&network);

    // Three taxis parked at depots, all using the kinetic tree.
    let planner = PlannerKind::Kinetic(KineticConfig::slack());
    let mut vehicles = vec![
        Vehicle::new(0, id(0, 0), 4, planner, 0.0),
        Vehicle::new(1, id(5, 5), 4, planner, 0.0),
        Vehicle::new(2, id(0, 5), 4, planner, 0.0),
    ];
    let mut index = GridIndex::new(500.0);
    for v in &vehicles {
        let p = network.point(v.location());
        index.insert(v.id(), Position::new(p.x, p.y));
    }
    let mut dispatcher = Dispatcher::new(DispatcherConfig::default());

    // Four requests arriving over two minutes (times in meter-equivalents:
    // seconds × 14 m/s).
    let constraints = Constraints::new(5.0 * 60.0 * 14.0, 0.2); // 5 min / 20%
    let requests = [
        TripRequest::new(1, id(1, 1), id(4, 4), 0.0, constraints),
        TripRequest::new(2, id(1, 2), id(4, 5), 280.0, constraints),
        TripRequest::new(3, id(5, 4), id(2, 0), 700.0, constraints),
        TripRequest::new(4, id(0, 4), id(3, 3), 1_400.0, constraints),
    ];
    for request in &requests {
        let outcome = dispatcher.assign(
            &request.clone(),
            &mut vehicles,
            &network,
            &mut index,
            &oracle,
        );
        match outcome {
            AssignmentOutcome::Assigned {
                vehicle,
                cost,
                candidates,
            } => println!(
                "request {} -> taxi {vehicle} (schedule length {:.0} m, {candidates} candidates examined)",
                request.id, cost
            ),
            AssignmentOutcome::Rejected { candidates } => println!(
                "request {} -> rejected ({candidates} candidates, none feasible)",
                request.id
            ),
        }
    }

    println!("\ncommitted schedules:");
    for v in &vehicles {
        let route: Vec<String> = v.route().iter().map(|s| s.to_string()).collect();
        println!(
            "  taxi {}: {} active trips, route [{}]",
            v.id(),
            v.active_trip_count(),
            route.join(" -> ")
        );
    }
    let stats = dispatcher.stats();
    println!(
        "\nACRT {:.3} ms over {} requests, {:.1} candidates per request",
        stats.acrt_ms(),
        stats.requests,
        stats.mean_candidates()
    );
}
