//! Figure 7 — tree-variant comparison (basic, slack-time, hotspot).
//!
//! * panel (a): ART versus number of scheduled requests (capacity 6,
//!   2,000-server default fleet);
//! * panel (b): ACRT versus the constraint sweep;
//! * panel (c): ACRT versus fleet size.
//!
//! Run with `cargo run --release -p rideshare-bench --bin fig7`.

use kinetic_core::Constraints;
use rideshare_bench::{
    art_at, constraint_sweep, fmt_ms, print_table, tree_variants, Experiment, HarnessArgs,
};

fn main() {
    let args = HarnessArgs::parse(&["a", "b", "c"]);
    let scale = args.scale;
    println!(
        "# Figure 7 — tree algorithm comparison ({scale:?} scale, seed {})",
        args.seed
    );
    let exp = Experiment::new(scale, args.seed);
    let oracle = exp.oracle(scale);
    let constraints = Constraints::paper_default();
    let capacity = 6;
    let cap = scale.requests_per_point();

    if args.wants("a") {
        let fleet = scale.default_tree_fleet();
        let mut header = vec!["variant".to_string()];
        for k in 0..=6 {
            header.push(format!("ART@{k} (ms)"));
        }
        let mut rows = Vec::new();
        for (name, planner) in tree_variants() {
            let report = exp.run_point(&oracle, planner, constraints, fleet, capacity, cap);
            let mut row = vec![name.to_string()];
            for k in 0..=6 {
                row.push(
                    art_at(&report, k)
                        .map(fmt_ms)
                        .unwrap_or_else(|| "-".to_string()),
                );
            }
            rows.push(row);
        }
        print_table(
            "Fig 7(a): ART (ms) vs number of scheduled requests — 10min/20%, capacity 6",
            &header,
            &rows,
        );
    }

    if args.wants("b") {
        let fleet = scale.default_tree_fleet();
        let sweep = constraint_sweep();
        let mut header = vec!["variant".to_string()];
        header.extend(sweep.iter().map(|(n, _)| n.clone()));
        let mut rows = Vec::new();
        for (name, planner) in tree_variants() {
            let mut row = vec![name.to_string()];
            for (_, c) in &sweep {
                let report = exp.run_point(&oracle, planner, *c, fleet, capacity, cap);
                row.push(fmt_ms(report.acrt_ms));
            }
            rows.push(row);
        }
        print_table(
            "Fig 7(b): ACRT (ms) vs constraints — capacity 6",
            &header,
            &rows,
        );
    }

    if args.wants("c") {
        let sweep = scale.tree_fleet_sweep();
        let mut header = vec!["variant".to_string()];
        header.extend(sweep.iter().map(|f| format!("{f} veh")));
        let mut rows = Vec::new();
        for (name, planner) in tree_variants() {
            let mut row = vec![name.to_string()];
            for &fleet in &sweep {
                let report = exp.run_point(&oracle, planner, constraints, fleet, capacity, cap);
                row.push(fmt_ms(report.acrt_ms));
            }
            rows.push(row);
        }
        print_table(
            "Fig 7(c): ACRT (ms) vs number of servers — 10min/20%, capacity 6",
            &header,
            &rows,
        );
    }
}
