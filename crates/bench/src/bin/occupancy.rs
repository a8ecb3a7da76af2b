//! Occupancy statistics at unlimited capacity (Sec. VI-B, closing
//! paragraph): the paper reports a maximum of 17 simultaneous passengers in
//! a single server, an average of 1.7, and an average of about 3.9 over the
//! top-20% most loaded servers, with 2,000 servers and default constraints.
//!
//! Run with `cargo run --release -p rideshare-bench --bin occupancy`.

use kinetic_core::{Constraints, KineticConfig, PlannerKind};
use rideshare_bench::{print_table, Experiment, HarnessArgs};

fn main() {
    let args = HarnessArgs::parse(&[]);
    let scale = args.scale;
    println!(
        "# Occupancy at unlimited capacity ({scale:?} scale, seed {})",
        args.seed
    );
    let exp = Experiment::new(scale, args.seed);
    let oracle = exp.oracle(scale);
    let fleet = scale.default_tree_fleet();
    let report = exp.run_point(
        &oracle,
        PlannerKind::Kinetic(KineticConfig::hotspot(300.0)),
        Constraints::paper_default(),
        fleet,
        usize::MAX,
        scale.requests_per_point(),
    );
    let occ = report.occupancy;
    print_table(
        "Occupancy statistics (unlimited capacity, hotspot tree)",
        &[
            "servers".into(),
            "requests".into(),
            "served %".into(),
            "max onboard".into(),
            "mean of per-server max".into(),
            "top-20% mean".into(),
            "mean at pickup".into(),
        ],
        &[vec![
            fleet.to_string(),
            report.requests.to_string(),
            format!("{:.1}", 100.0 * report.service_rate()),
            occ.fleet_max.to_string(),
            format!("{:.2}", occ.mean_of_max),
            format!("{:.2}", occ.top20_mean_of_max),
            format!("{:.2}", occ.mean_at_pickup),
        ]],
    );
    println!("\npaper (Shanghai, 2,000 servers): max 17, average 1.7, top-20% average ~3.9");
}
