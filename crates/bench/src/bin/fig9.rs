//! Figure 9 — tree variants at higher load.
//!
//! * panel (a): ART at six scheduled requests versus the constraint sweep;
//! * panel (b): ART at six scheduled requests versus fleet size;
//! * panel (c): ACRT versus vehicle capacity (3 … 16 and unlimited). As in
//!   the paper, the basic and slack-time trees stop being able to complete
//!   the run once the capacity (and hence the number of co-located stops)
//!   grows; a per-point wall-clock budget reproduces that break-off and the
//!   affected cells are printed as `DNF`.
//!
//! Run with `cargo run --release -p rideshare-bench --bin fig9`.

use std::time::Instant;

use kinetic_core::Constraints;
use rideshare_bench::{
    art_at, constraint_sweep, fmt_ms, print_table, tree_variants, Experiment, HarnessArgs, Scale,
};

fn main() {
    let args = HarnessArgs::parse(&["a", "b", "c"]);
    let scale = args.scale;
    println!(
        "# Figure 9 — tree algorithms at higher load ({scale:?} scale, seed {})",
        args.seed
    );
    let exp = Experiment::new(scale, args.seed);
    let oracle = exp.oracle(scale);
    let constraints = Constraints::paper_default();
    let fleet = scale.default_tree_fleet();
    let cap = scale.requests_per_point();

    if args.wants("a") {
        let sweep = constraint_sweep();
        let mut header = vec!["variant".to_string()];
        header.extend(sweep.iter().map(|(n, _)| n.clone()));
        let mut rows = Vec::new();
        for (name, planner) in tree_variants() {
            let mut row = vec![name.to_string()];
            for (_, c) in &sweep {
                let report = exp.run_point(&oracle, planner, *c, fleet, 6, cap);
                row.push(
                    art_at(&report, 6)
                        .map(fmt_ms)
                        .unwrap_or_else(|| "-".to_string()),
                );
            }
            rows.push(row);
        }
        print_table(
            "Fig 9(a): ART (ms) at 6 requests vs constraints — capacity 6",
            &header,
            &rows,
        );
    }

    if args.wants("b") {
        let sweep = scale.tree_fleet_sweep();
        let mut header = vec!["variant".to_string()];
        header.extend(sweep.iter().map(|f| format!("{f} veh")));
        let mut rows = Vec::new();
        for (name, planner) in tree_variants() {
            let mut row = vec![name.to_string()];
            for &fl in &sweep {
                let report = exp.run_point(&oracle, planner, constraints, fl, 6, cap);
                row.push(
                    art_at(&report, 6)
                        .map(fmt_ms)
                        .unwrap_or_else(|| "-".to_string()),
                );
            }
            rows.push(row);
        }
        print_table(
            "Fig 9(b): ART (ms) at 6 requests vs number of servers — 10min/20%, capacity 6",
            &header,
            &rows,
        );
    }

    if args.wants("c") {
        // Capacity sweep from Table II; usize::MAX plays "unlimited".
        let capacities: Vec<(String, usize)> = match scale {
            Scale::Smoke => vec![
                ("3".into(), 3),
                ("6".into(), 6),
                ("unlim".into(), usize::MAX),
            ],
            _ => vec![
                ("3".into(), 3),
                ("4".into(), 4),
                ("5".into(), 5),
                ("6".into(), 6),
                ("7".into(), 7),
                ("8".into(), 8),
                ("12".into(), 12),
                ("16".into(), 16),
                ("unlim".into(), usize::MAX),
            ],
        };
        // Per-point wall-clock budget standing in for the paper's 3 GB
        // memory cap: once a variant exceeds it, larger capacities are
        // reported as DNF ("did not finish"). Both knobs come from `Scale`
        // (audited against `span_seconds` there) instead of repeating
        // literals per binary.
        let budget_secs = scale.point_budget_seconds();
        let cap_requests = scale.capacity_sweep_requests();
        let mut header = vec!["variant".to_string()];
        header.extend(capacities.iter().map(|(n, _)| format!("cap {n}")));
        let mut rows = Vec::new();
        for (name, planner) in tree_variants() {
            let mut row = vec![name.to_string()];
            let mut broke_off = false;
            for (label, capacity) in &capacities {
                let unlimited = *capacity == usize::MAX;
                // As in the paper, only the hotspot variant attempts the
                // unlimited-capacity run once the others have broken off.
                if broke_off || (unlimited && name != "tree-hotspot") {
                    row.push("DNF".to_string());
                    continue;
                }
                let timer = Instant::now();
                let report = exp.run_point(
                    &oracle,
                    planner,
                    constraints,
                    fleet,
                    *capacity,
                    cap_requests,
                );
                let elapsed = timer.elapsed().as_secs_f64();
                row.push(fmt_ms(report.acrt_ms));
                if elapsed > budget_secs {
                    broke_off = true;
                    println!(
                        "  [{name}] capacity {label}: point took {elapsed:.1}s > {budget_secs}s budget; larger capacities marked DNF"
                    );
                }
            }
            rows.push(row);
        }
        print_table(
            "Fig 9(c): ACRT (ms) vs capacity — 10min/20%, default tree fleet",
            &header,
            &rows,
        );
    }
}
