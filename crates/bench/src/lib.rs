//! Shared infrastructure for the experiment harnesses.
//!
//! Every figure and table of the paper's evaluation section has a binary in
//! `src/bin/` that reruns the corresponding sweep and prints the same series
//! the paper plots. This library holds the pieces those binaries share:
//! scale presets (the paper's full Shanghai-scale parameters and a scaled
//! "quick" preset that finishes on a laptop), the algorithm line-ups, the
//! simulation runner and plain-text table formatting.
//!
//! Absolute numbers will differ from the paper (different hardware,
//! different — synthetic — workload); PAPER.md § "The day-long replay
//! (`paper_replay`) and Figures 6–9" records which *shapes* each harness is
//! expected to reproduce (who wins, by roughly what factor, where the
//! curves break off).

pub mod baseline;
pub mod store;

use kinetic_core::{Constraints, KineticConfig, PlannerKind, SolverKind};
use rideshare_sim::{SimConfig, SimReport, Simulation};
use rideshare_workload::{CityConfig, DemandConfig, Workload};
use roadnet::{CachedOracle, NodeId};

/// How big an experiment run should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny run for smoke-testing a harness (seconds).
    Smoke,
    /// Default: a 50×50 synthetic city, a few thousand trips, fleet sizes
    /// scaled to one tenth of the paper's — finishes in minutes and
    /// preserves every qualitative trend.
    Quick,
    /// The paper's parameters on the Shanghai-scale synthetic city. Only for
    /// long unattended runs.
    Paper,
}

impl Scale {
    /// Parses `--scale` values.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "smoke" => Some(Scale::Smoke),
            "quick" => Some(Scale::Quick),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// The city preset for this scale.
    pub fn city(&self) -> CityConfig {
        match self {
            Scale::Smoke => CityConfig::small(),
            Scale::Quick => CityConfig::medium(),
            Scale::Paper => CityConfig::shanghai_scale(),
        }
    }

    /// Number of trip requests in the workload.
    pub fn trips(&self) -> usize {
        match self {
            Scale::Smoke => 150,
            Scale::Quick => 5_000,
            Scale::Paper => 432_327,
        }
    }

    /// Length of the simulated demand window in seconds. The paper replays a
    /// full day; the scaled presets compress demand into a shorter window so
    /// that the processed prefix of requests still exercises ridesharing
    /// (several concurrent requests per vehicle).
    pub fn span_seconds(&self) -> f64 {
        match self {
            Scale::Smoke => 3_600.0,
            Scale::Quick => 3.0 * 3_600.0,
            Scale::Paper => 24.0 * 3_600.0,
        }
    }

    /// Fleet sizes standing in for the paper's Table I sweep
    /// (1,000 / 2,000 / 5,000 / 10,000 / 20,000 servers).
    pub fn fleet_sweep(&self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![10, 20, 40],
            Scale::Quick => vec![100, 200, 500, 1_000, 2_000],
            Scale::Paper => vec![1_000, 2_000, 5_000, 10_000, 20_000],
        }
    }

    /// Fleet sizes standing in for the paper's Table II sweep
    /// (500 / 1,000 / 2,000 / 5,000 / 10,000 servers).
    pub fn tree_fleet_sweep(&self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![5, 10, 20],
            Scale::Quick => vec![50, 100, 200, 500, 1_000],
            Scale::Paper => vec![500, 1_000, 2_000, 5_000, 10_000],
        }
    }

    /// The default fleet size for this scale (the paper's default is 10,000
    /// for the four-algorithm comparison and 2,000 for the tree comparison).
    pub fn default_fleet(&self) -> usize {
        match self {
            Scale::Smoke => 20,
            Scale::Quick => 1_000,
            Scale::Paper => 10_000,
        }
    }

    /// Default fleet size for the tree-variant comparison.
    pub fn default_tree_fleet(&self) -> usize {
        match self {
            Scale::Smoke => 10,
            Scale::Quick => 200,
            Scale::Paper => 2_000,
        }
    }

    /// Number of requests actually simulated per sweep point (a cap so that
    /// the slow baselines finish; the kinetic variants could do far more).
    pub fn requests_per_point(&self) -> usize {
        match self {
            Scale::Smoke => 100,
            Scale::Quick => 1_500,
            Scale::Paper => 432_327,
        }
    }

    /// Distance-cache capacity (entries) for this scale's oracle.
    ///
    /// Sized from the PR 3 cache sweep (recorded in `BENCH_hublabel.json`):
    /// on a dispatch-like stream over a 40×40 grid the hit rate saturates
    /// by 10k entries and larger capacities buy nothing. Smoke uses that
    /// saturation point directly; quick adds headroom for its 2.5×-larger
    /// network; paper scales the budget with the network (122k vertices,
    /// 10k vehicles' worth of concurrent locality) instead of the
    /// hard-coded 2M every scale used to get.
    pub fn distance_cache_entries(&self) -> usize {
        match self {
            Scale::Smoke => 10_000,
            Scale::Quick => 50_000,
            Scale::Paper => 4_000_000,
        }
    }

    /// Length of one metrics window in seconds: the simulated span divided
    /// into 24 equal buckets, so every scale reports the same bucket count
    /// and the paper scale's windows are exactly the hours of its
    /// simulated day.
    pub fn window_seconds(&self) -> f64 {
        self.span_seconds() / Self::WINDOWS_PER_RUN as f64
    }

    /// Number of metrics windows per replay at every scale.
    pub const WINDOWS_PER_RUN: usize = 24;

    /// Wall-clock budget (seconds) for one sweep point of the capacity
    /// sweep (Fig. 9(c)), standing in for the paper's 3 GB memory cap:
    /// a variant exceeding it "did not finish" and larger capacities are
    /// skipped. One simulated hour of budget at paper scale; the scaled
    /// presets get proportionally less (floored so smoke still allows a
    /// few slow points).
    pub fn point_budget_seconds(&self) -> f64 {
        match self {
            Scale::Smoke => 20.0,
            Scale::Quick => 180.0,
            Scale::Paper => 3_600.0,
        }
    }

    /// Request cap for the capacity sweep (Fig. 9(c)): the basic tree at
    /// capacity 16 is orders of magnitude slower per request, so the
    /// scaled presets cut the per-point request count instead of letting
    /// one cell consume the whole budget.
    pub fn capacity_sweep_requests(&self) -> usize {
        match self {
            Scale::Smoke => self.requests_per_point(),
            _ => self.requests_per_point().min(600),
        }
    }
}

/// The constraint sweep of Tables I and II: 5 min/10% … 25 min/50%.
pub fn constraint_sweep() -> Vec<(String, Constraints)> {
    (0..5)
        .map(|i| {
            let c = Constraints::paper_setting(i);
            (format!("{}min/{}%", (i + 1) * 5, (i + 1) * 10), c)
        })
        .collect()
}

/// The four algorithms of Fig. 6/8: brute force, branch and bound, MIP and
/// the (slack-time) kinetic tree.
pub fn four_algorithms() -> Vec<(&'static str, PlannerKind)> {
    vec![
        ("brute-force", PlannerKind::Solver(SolverKind::BruteForce)),
        ("branch-bound", PlannerKind::Solver(SolverKind::BranchBound)),
        ("mip", PlannerKind::Solver(SolverKind::Mip)),
        ("kinetic-tree", PlannerKind::Kinetic(KineticConfig::slack())),
    ]
}

/// The three tree variants of Fig. 7/9.
pub fn tree_variants() -> Vec<(&'static str, PlannerKind)> {
    vec![
        ("tree-basic", PlannerKind::Kinetic(KineticConfig::basic())),
        ("tree-slack", PlannerKind::Kinetic(KineticConfig::slack())),
        (
            "tree-hotspot",
            PlannerKind::Kinetic(KineticConfig::hotspot(300.0)),
        ),
    ]
}

/// A generated workload together with its distance oracle, shared across the
/// sweep points of one experiment.
pub struct Experiment {
    /// The generated workload (network + trips).
    pub workload: Workload,
    /// Random seed used everywhere downstream.
    pub seed: u64,
}

impl Experiment {
    /// Builds the workload for a scale.
    pub fn new(scale: Scale, seed: u64) -> Self {
        let demand = DemandConfig {
            trips: scale.trips(),
            span_seconds: scale.span_seconds(),
            ..DemandConfig::default()
        };
        let workload = Workload::generate(&scale.city(), &demand, seed);
        Experiment { workload, seed }
    }

    /// Builds the distance oracle for this experiment's network. The hub
    /// labels go through the on-disk [`store`], so their construction is
    /// paid once per network rather than once per harness binary (89 s vs
    /// a 2.5–6 s reload at paper scale).
    pub fn oracle(&self, scale: Scale) -> CachedOracle<'_> {
        self.oracle_with_report(scale).0
    }

    /// [`Experiment::oracle`] plus the label store's provenance report.
    /// Harnesses that gate on the reload path (e.g. `paper_replay
    /// --require-reloaded`) use the report.
    pub fn oracle_with_report(&self, scale: Scale) -> (CachedOracle<'_>, store::StoreReport) {
        let network = &self.workload.network;
        let (labels, report) = store::load_or_build(network);
        let oracle = CachedOracle::with_labels(network, labels, scale.distance_cache_entries(), 0);
        (oracle, report)
    }

    /// Runs one simulation point.
    pub fn run_point(
        &self,
        oracle: &CachedOracle<'_>,
        planner: PlannerKind,
        constraints: Constraints,
        vehicles: usize,
        capacity: usize,
        max_requests: usize,
    ) -> SimReport {
        // Every measurement point starts from a cold distance cache so that
        // the order in which algorithms are benchmarked cannot bias the
        // latency comparison.
        oracle.clear_caches();
        oracle.reset_stats();
        let config = SimConfig {
            vehicles,
            capacity,
            constraints,
            planner,
            max_requests: Some(max_requests),
            seed: self.seed,
            cruise_when_idle: false,
            ..SimConfig::default()
        };
        let mut sim = Simulation::new(&self.workload.network, oracle, config);
        sim.run(&self.workload.trips)
    }
}

/// Deterministic MIP-matcher fixture shared by the `mip_solve` criterion
/// bench and the `bench_summary` MIP section/CI gate.
///
/// Generates the same scheduling problems (per seed) every run, so the
/// sparse production solver and the frozen dense baseline
/// ([`baseline::dense_mip`]) are always timed on identical instances.
pub mod mip_fixture {
    use kinetic_core::problem::{SchedulingProblem, WaitingTrip};
    use roadnet::{DistanceOracle, GeneratorConfig, MatrixOracle, NetworkKind};

    /// The grid network + all-pairs oracle the fixture problems live on.
    pub fn oracle(seed: u64) -> MatrixOracle {
        let g = GeneratorConfig {
            kind: NetworkKind::Grid { rows: 5, cols: 5 },
            seed,
            ..GeneratorConfig::default()
        }
        .generate();
        MatrixOracle::new(&g)
    }

    /// Builds `count` deterministic scheduling problems with `trips`
    /// waiting trips each (trips-on-board in the paper's Fig. 6 sense: the
    /// new request counts as one of them).
    pub fn problems(
        oracle: &MatrixOracle,
        trips: usize,
        count: usize,
        seed: u64,
    ) -> Vec<SchedulingProblem> {
        let n = oracle.node_count() as u64;
        (0..count)
            .map(|inst| {
                let mut state = seed
                    .wrapping_mul(0x2545_F491_4F6C_DD1D)
                    .wrapping_add(7 + inst as u64 * 0x9E37_79B9);
                let mut next = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                let mut p = SchedulingProblem::new((next() % n) as u32, 0.0, 4);
                for t in 0..trips as u64 {
                    let pickup = (next() % n) as u32;
                    let mut dropoff = (next() % n) as u32;
                    if dropoff == pickup {
                        dropoff = (dropoff + 1) % n as u32;
                    }
                    let direct = oracle.dist(pickup, dropoff);
                    // Deadlines are staggered by trip index like a real
                    // arrival stream; without this, 4-trip instances are
                    // almost always infeasible and the benchmark would
                    // time infeasibility proofs instead of solves.
                    p.waiting.push(WaitingTrip {
                        trip: t,
                        pickup,
                        dropoff,
                        pickup_deadline: 2_500.0 + t as f64 * 1_500.0 + (next() % 2_000) as f64,
                        max_ride: direct * 1.4 + 100.0,
                    });
                }
                p
            })
            .collect()
    }
}

/// Parses a numeric flag value, naming the flag and the value when it does
/// not parse — a typo must stop a harness, not silently run it on a
/// default (a mistyped `--max-trips` would replay the full 432k-trip day).
pub fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid value {value:?} for {flag}"))
}

/// Minimal command-line options shared by every harness binary.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Which panel of the figure to reproduce: one the binary names, or
    /// `all`.
    pub panel: String,
    /// Run scale.
    pub scale: Scale,
    /// Workload seed.
    pub seed: u64,
}

impl HarnessArgs {
    /// Parses `--panel`, `--scale` and `--seed` from `std::env::args`;
    /// prints what was wrong and exits 2 on anything else, on a value that
    /// does not parse, on a flag without its value and on a panel that is
    /// neither `all` nor one of `panels` (a binary without panels passes
    /// none).
    pub fn parse(panels: &[&str]) -> Self {
        Self::parse_from(std::env::args().skip(1), panels).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }

    /// [`HarnessArgs::parse`] over `args` (the program name excluded),
    /// returning the error instead of exiting.
    fn parse_from(args: impl IntoIterator<Item = String>, panels: &[&str]) -> Result<Self, String> {
        let mut parsed = HarnessArgs {
            panel: "all".to_string(),
            scale: Scale::Quick,
            seed: 42,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--panel" => {
                    let v = value()?;
                    if v != "all" && !panels.contains(&v.as_str()) {
                        let known: Vec<&str> = panels.iter().copied().chain(["all"]).collect();
                        return Err(format!(
                            "--panel {v:?}: unknown panel (expected {})",
                            known.join(", ")
                        ));
                    }
                    parsed.panel = v;
                }
                "--scale" => {
                    let v = value()?;
                    parsed.scale = Scale::parse(&v).ok_or_else(|| {
                        format!("unknown scale {v:?} (expected smoke, quick or paper)")
                    })?;
                }
                "--seed" => parsed.seed = parse_num("--seed", &value()?)?,
                other => {
                    return Err(format!(
                        "unknown argument {other:?} (expected --panel P, \
                         --scale smoke|quick|paper, --seed N)"
                    ))
                }
            }
        }
        Ok(parsed)
    }

    /// True when the given panel should run.
    pub fn wants(&self, panel: &str) -> bool {
        self.panel == "all" || self.panel == panel
    }
}

/// The shape of a dispatcher's distance misses, for the oracle
/// micro-benchmarks: runs of 40 queries that share one endpoint (a new
/// request's pickup or drop-off) on alternating sides, against vertices
/// drawn from `pairs`.
pub fn shared_endpoint_runs(pairs: &[(NodeId, NodeId)]) -> Vec<(NodeId, NodeId)> {
    pairs
        .chunks(40)
        .flat_map(|run| {
            let shared = run[0].0;
            run.iter().enumerate().filter_map(move |(i, &(_, x))| {
                (x != shared).then_some(if i % 2 == 0 { (x, shared) } else { (shared, x) })
            })
        })
        .collect()
}

/// Prints an aligned plain-text table: a header row followed by data rows.
pub fn print_table(title: &str, header: &[String], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() && cell.len() > widths[i] {
                widths[i] = cell.len();
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(header));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats a float with three significant decimals for table cells.
pub fn fmt_ms(v: f64) -> String {
    format!("{v:.3}")
}

/// Extracts ART (ms) for a given number of active requests from a report,
/// falling back to the largest measured bucket at or below it.
pub fn art_at(report: &SimReport, active: usize) -> Option<f64> {
    report.art_ms(active).or_else(|| {
        report
            .art_table
            .iter()
            .rfind(|&&(a, _, _)| a <= active)
            .map(|&(_, _, ms)| ms)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_and_presets() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("bogus"), None);
        assert_eq!(Scale::Paper.trips(), 432_327);
        assert_eq!(
            Scale::Paper.fleet_sweep(),
            vec![1_000, 2_000, 5_000, 10_000, 20_000]
        );
        assert!(Scale::Smoke.trips() < Scale::Quick.trips());
    }

    #[test]
    fn harness_args_reject_what_they_do_not_understand() {
        let parse = |line: &str| {
            HarnessArgs::parse_from(line.split_whitespace().map(String::from), &["a", "b"])
        };
        let args = parse("--scale smoke --seed 7 --panel b").unwrap();
        assert_eq!(
            (args.panel.as_str(), args.scale, args.seed),
            ("b", Scale::Smoke, 7)
        );
        let args = parse("").unwrap();
        assert_eq!(
            (args.panel.as_str(), args.scale, args.seed),
            ("all", Scale::Quick, 42)
        );
        for bad in [
            "--seed x",
            "--scale papr",
            "--sacle smoke",
            "--scale smoke --seed",
            "--seed -1",
            "--panel c",
            "--panel",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        assert_eq!(parse("--panel all").unwrap().panel, "all");
        let none = HarnessArgs::parse_from(["--panel".into(), "a".into()], &[]);
        assert_eq!(
            none.unwrap_err(),
            "--panel \"a\": unknown panel (expected all)"
        );
        assert_eq!(
            parse_num::<u64>("--seed", "x"),
            Err("invalid value \"x\" for --seed".to_string())
        );
    }

    #[test]
    fn sweeps_match_the_paper_tables() {
        let c = constraint_sweep();
        assert_eq!(c.len(), 5);
        assert_eq!(c[0].0, "5min/10%");
        assert_eq!(c[4].1.detour_factor, 0.5);
        assert_eq!(four_algorithms().len(), 4);
        assert_eq!(tree_variants().len(), 3);
    }

    #[test]
    fn cache_sizes_follow_the_sizing_sweep() {
        // The PR 3 sweep: hit rate saturates by 10k entries on the 40×40
        // dispatch stream. Smoke pins the saturation point; the larger
        // scales grow with their networks instead of sharing one
        // hard-coded 2M capacity (the bug this test guards against).
        assert_eq!(Scale::Smoke.distance_cache_entries(), 10_000);
        assert_eq!(Scale::Quick.distance_cache_entries(), 50_000);
        assert_eq!(Scale::Paper.distance_cache_entries(), 4_000_000);
    }

    #[test]
    fn window_and_budget_constants_are_consistent_with_span() {
        for scale in [Scale::Smoke, Scale::Quick, Scale::Paper] {
            // Every scale reports the same number of buckets, and the
            // windows tile the demand span exactly.
            assert_eq!(
                scale.window_seconds() * Scale::WINDOWS_PER_RUN as f64,
                scale.span_seconds(),
                "{scale:?}"
            );
            // A sweep point's wall-clock budget never exceeds the span it
            // simulates, and the capacity-sweep request cap never exceeds
            // the scale's own per-point cap.
            assert!(scale.point_budget_seconds() <= scale.span_seconds());
            assert!(scale.capacity_sweep_requests() <= scale.requests_per_point());
        }
        // Paper windows are exactly the hours of the simulated day.
        assert_eq!(Scale::Paper.window_seconds(), 3_600.0);
        assert_eq!(Scale::Paper.point_budget_seconds(), 3_600.0);
    }

    #[test]
    fn smoke_experiment_runs_end_to_end() {
        let exp = Experiment::new(Scale::Smoke, 1);
        let report = store::in_temp_store("smoke_experiment", || {
            let oracle = exp.oracle(Scale::Smoke);
            exp.run_point(
                &oracle,
                PlannerKind::Kinetic(KineticConfig::slack()),
                Constraints::paper_default(),
                10,
                4,
                30,
            )
        });
        assert_eq!(report.requests, 30);
        assert_eq!(report.guarantee_violations, 0);
    }

    #[test]
    fn art_at_falls_back_to_lower_bucket() {
        let report = SimReport {
            art_table: vec![(0, 10, 0.1), (2, 5, 0.5)],
            ..SimReport::default()
        };
        assert_eq!(art_at(&report, 2), Some(0.5));
        assert_eq!(art_at(&report, 4), Some(0.5));
        assert_eq!(art_at(&report, 0), Some(0.1));
    }

    #[test]
    fn table_printing_does_not_panic() {
        print_table(
            "demo",
            &["a".to_string(), "b".to_string()],
            &[vec!["1".to_string(), "2.5".to_string()]],
        );
        assert_eq!(fmt_ms(1.23456), "1.235");
    }
}
