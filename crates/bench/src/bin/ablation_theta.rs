//! Ablation: the hotspot clustering threshold θ.
//!
//! Theorem 2 bounds the cost of the hotspot-clustered schedule by
//! `2(m+1)·θ` above the optimum, so θ trades matching latency against
//! solution quality. This harness sweeps θ and reports ACRT, service rate
//! and the realised mean detour ratio, which should degrade gracefully as θ
//! grows.
//!
//! Run with `cargo run --release -p rideshare-bench --bin ablation_theta`.

use kinetic_core::{Constraints, KineticConfig, PlannerKind};
use rideshare_bench::{fmt_ms, print_table, Experiment, HarnessArgs};

fn main() {
    let args = HarnessArgs::parse(&[]);
    let scale = args.scale;
    println!(
        "# Ablation: hotspot threshold θ ({scale:?} scale, seed {})",
        args.seed
    );
    let exp = Experiment::new(scale, args.seed);
    let oracle = exp.oracle(scale);
    let fleet = scale.default_tree_fleet();
    let constraints = Constraints::paper_default();
    let cap = scale.requests_per_point();

    let thetas = [0.0, 50.0, 100.0, 200.0, 400.0, 800.0];
    let mut rows = Vec::new();
    for &theta in &thetas {
        let planner = if theta == 0.0 {
            PlannerKind::Kinetic(KineticConfig::slack())
        } else {
            PlannerKind::Kinetic(KineticConfig::hotspot(theta))
        };
        let report = exp.run_point(&oracle, planner, constraints, fleet, 8, cap);
        rows.push(vec![
            if theta == 0.0 {
                "off (slack)".to_string()
            } else {
                format!("{theta:.0} m")
            },
            fmt_ms(report.acrt_ms),
            format!("{:.1}", 100.0 * report.service_rate()),
            format!("{:.3}", report.mean_detour_ratio),
            format!("{:.1}", report.mean_wait_seconds),
        ]);
    }
    print_table(
        "Hotspot threshold sweep — capacity 8, default tree fleet",
        &[
            "theta".into(),
            "ACRT (ms)".into(),
            "served %".into(),
            "mean detour x".into(),
            "mean wait (s)".into(),
        ],
        &rows,
    );
}
