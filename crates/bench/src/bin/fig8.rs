//! Figure 8 — ART for four on-board customer requests, four algorithms.
//!
//! * panel (a): ART at four scheduled requests versus the constraint sweep;
//! * panel (b): ART at four scheduled requests versus fleet size.
//!
//! Run with `cargo run --release -p rideshare-bench --bin fig8`.

use kinetic_core::Constraints;
use rideshare_bench::{
    art_at, constraint_sweep, fmt_ms, four_algorithms, print_table, Experiment, HarnessArgs, Scale,
};

fn request_cap(algorithm: &str, scale: Scale) -> usize {
    let base = scale.requests_per_point();
    match (algorithm, scale) {
        ("mip", Scale::Quick) => base.min(200),
        ("mip", Scale::Smoke) => base.min(40),
        _ => base,
    }
}

fn main() {
    let args = HarnessArgs::parse(&["a", "b"]);
    let scale = args.scale;
    println!(
        "# Figure 8 — ART at four requests ({scale:?} scale, seed {})",
        args.seed
    );
    let exp = Experiment::new(scale, args.seed);
    let oracle = exp.oracle(scale);
    let capacity = 4;
    // A smaller fleet than Fig. 6 so that vehicles actually accumulate four
    // simultaneous requests often enough to measure.
    let fleet = scale.default_tree_fleet();

    if args.wants("a") {
        let sweep = constraint_sweep();
        let mut header = vec!["algorithm".to_string()];
        header.extend(sweep.iter().map(|(n, _)| n.clone()));
        let mut rows = Vec::new();
        for (name, planner) in four_algorithms() {
            let cap = request_cap(name, scale);
            let mut row = vec![name.to_string()];
            for (_, c) in &sweep {
                let report = exp.run_point(&oracle, planner, *c, fleet, capacity, cap);
                row.push(
                    art_at(&report, 4)
                        .map(fmt_ms)
                        .unwrap_or_else(|| "-".to_string()),
                );
            }
            rows.push(row);
        }
        print_table(
            "Fig 8(a): ART (ms) at 4 requests vs constraints — capacity 4",
            &header,
            &rows,
        );
    }

    if args.wants("b") {
        let constraints = Constraints::paper_default();
        let sweep = scale.fleet_sweep();
        let mut header = vec!["algorithm".to_string()];
        header.extend(sweep.iter().map(|f| format!("{f} veh")));
        let mut rows = Vec::new();
        for (name, planner) in four_algorithms() {
            let cap = request_cap(name, scale);
            let mut row = vec![name.to_string()];
            for &fleet in &sweep {
                let report = exp.run_point(&oracle, planner, constraints, fleet, capacity, cap);
                row.push(
                    art_at(&report, 4)
                        .map(fmt_ms)
                        .unwrap_or_else(|| "-".to_string()),
                );
            }
            rows.push(row);
        }
        print_table(
            "Fig 8(b): ART (ms) at 4 requests vs number of servers — 10min/20%, capacity 4",
            &header,
            &rows,
        );
    }
}
