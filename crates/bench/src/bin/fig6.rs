//! Figure 6 — four-algorithm comparison.
//!
//! * panel (a): ART (per-vehicle evaluation latency) versus the number of
//!   requests already scheduled on the vehicle, default parameters
//!   (10 min / 20%, default fleet, capacity 4);
//! * panel (b): ACRT versus the constraint sweep of Table I;
//! * panel (c): ACRT versus fleet size.
//!
//! Run with `cargo run --release -p rideshare-bench --bin fig6 -- --panel a
//! --scale quick`.

use kinetic_core::Constraints;
use rideshare_bench::{
    art_at, constraint_sweep, fmt_ms, four_algorithms, print_table, Experiment, HarnessArgs, Scale,
};

/// The MIP baseline re-solves an integer program per candidate vehicle and is
/// orders of magnitude slower than the other matchers (that observation is
/// the point of the figure); cap the requests it processes so the sweep
/// finishes, and note the cap in the output.
fn request_cap(algorithm: &str, scale: Scale) -> usize {
    let base = scale.requests_per_point();
    match (algorithm, scale) {
        ("mip", Scale::Quick) => base.min(200),
        ("mip", Scale::Smoke) => base.min(40),
        _ => base,
    }
}

fn main() {
    let args = HarnessArgs::parse(&["a", "b", "c"]);
    let scale = args.scale;
    println!(
        "# Figure 6 — four-algorithm comparison ({scale:?} scale, seed {})",
        args.seed
    );
    let exp = Experiment::new(scale, args.seed);
    let oracle = exp.oracle(scale);
    let constraints = Constraints::paper_default();
    let capacity = 4;

    if args.wants("a") {
        // Panel (a): ART by number of scheduled requests, default parameters.
        let fleet = scale.default_fleet();
        let mut header = vec!["algorithm".to_string()];
        for k in 0..=4 {
            header.push(format!("ART@{k} (ms)"));
        }
        let mut rows = Vec::new();
        for (name, planner) in four_algorithms() {
            let cap = request_cap(name, scale);
            let report = exp.run_point(&oracle, planner, constraints, fleet, capacity, cap);
            let mut row = vec![format!("{name} ({} req)", report.requests)];
            for k in 0..=4 {
                row.push(
                    art_at(&report, k)
                        .map(fmt_ms)
                        .unwrap_or_else(|| "-".to_string()),
                );
            }
            rows.push(row);
        }
        print_table(
            "Fig 6(a): ART (ms) vs number of scheduled requests — 10min/20%, capacity 4",
            &header,
            &rows,
        );
    }

    if args.wants("b") {
        // Panel (b): ACRT vs constraints.
        let fleet = scale.default_fleet();
        let sweep = constraint_sweep();
        let mut header = vec!["algorithm".to_string()];
        header.extend(sweep.iter().map(|(n, _)| n.clone()));
        let mut rows = Vec::new();
        for (name, planner) in four_algorithms() {
            let cap = request_cap(name, scale);
            let mut row = vec![name.to_string()];
            for (_, c) in &sweep {
                let report = exp.run_point(&oracle, planner, *c, fleet, capacity, cap);
                row.push(fmt_ms(report.acrt_ms));
            }
            rows.push(row);
        }
        print_table(
            "Fig 6(b): ACRT (ms) vs constraints — default fleet, capacity 4",
            &header,
            &rows,
        );
    }

    if args.wants("c") {
        // Panel (c): ACRT vs fleet size.
        let sweep = scale.fleet_sweep();
        let mut header = vec!["algorithm".to_string()];
        header.extend(sweep.iter().map(|f| format!("{f} veh")));
        let mut rows = Vec::new();
        for (name, planner) in four_algorithms() {
            let cap = request_cap(name, scale);
            let mut row = vec![name.to_string()];
            for &fleet in &sweep {
                let report = exp.run_point(&oracle, planner, constraints, fleet, capacity, cap);
                row.push(fmt_ms(report.acrt_ms));
            }
            rows.push(row);
        }
        print_table(
            "Fig 6(c): ACRT (ms) vs number of servers — 10min/20%, capacity 4",
            &header,
            &rows,
        );
    }
}
