//! One workload run: set-up, K identical passes, output checks, metrics.

use std::time::Instant;

use rideshare_serve::{PoissonArrivals, RecoveryConfig, ServeConfig, ServeReport, ServiceModel};
use rideshare_sim::{SimReport, Simulation};
use rideshare_workload::{TripEvent, Workload};
use roadnet::{HubLabels, RoadNetwork};

use crate::clock::{percentile, Percentile, Step, StepMin};
use crate::drive::{replay_pass, serve_pass, Pass, Plan};
use crate::emit::{tabulate, Metric, RunResult, END_TO_END};
use crate::probe::Tap;
use crate::spec::{Inputs, Mode, Oracle, OracleRef, SetupTimes, Spec, WORKERS};

/// The serve workload's cost model: fixed virtual costs, so admission,
/// batches and tick boundaries repeat exactly while the harness measures
/// the real compute from outside.
const SERVE_MODEL: ServiceModel = ServiceModel::Fixed {
    tick_overhead_s: 0.01,
    per_request_s: 0.0005,
};

/// Seed of the serve workload's arrival schedule: one fixed Poisson draw,
/// whatever `--seed` is. `--seed` decides *what* arrives (the
/// origin/destination pairs) and where the fleet starts, not *when*: every
/// run then offers the same number of requests in the same ticks, and the
/// slowest ticks — the tail of the response times on this route — measure
/// the dispatcher rather than the seed's largest Poisson counts (16 to 21
/// requests in a tick against a mean of 10).
pub const ARRIVAL_SCHEDULE_SEED: u64 = 1;

/// A workload's inputs bound to its route into the engine: runs passes.
pub struct Runner<'a> {
    /// The workload being run.
    pub spec: Spec,
    /// Seed of the run (fleet placement, arrivals).
    pub seed: u64,
    /// The road network.
    pub graph: &'a RoadNetwork,
    /// The generated trips.
    pub trips: &'a [TripEvent],
    /// Dispatch points of the replay workloads (`None` for serve).
    pub plan: Option<Plan>,
}

/// One pass of the workload's main route, plus what only the serve route
/// produces.
pub struct MainPass {
    /// Steps, digest, report, checks.
    pub pass: Pass,
    /// The serve loop's report.
    pub serve: Option<ServeReport>,
    /// The serve loop's recorded dispatches.
    pub recorded: Vec<(f64, Vec<TripEvent>)>,
}

impl<'a> Runner<'a> {
    /// Binds `spec` to generated inputs.
    pub fn new(spec: Spec, seed: u64, workload: &'a Workload) -> Self {
        let plan = match spec.mode {
            Mode::PerRequest => Some(Plan::per_request(&workload.trips)),
            Mode::Batched { window_s } => Some(Plan::windowed(&workload.trips, window_s)),
            Mode::Serve { .. } => None,
        };
        Runner {
            spec,
            seed,
            graph: &workload.network,
            trips: &workload.trips,
            plan,
        }
    }

    /// A fresh engine on `oracle` with `workers` threads.
    pub fn engine(&self, oracle: OracleRef<'a>, workers: usize) -> Simulation<'a> {
        oracle.simulation(self.graph, self.spec.sim_config(self.seed, workers))
    }

    /// Worker threads of the workload's main route.
    pub fn workers(&self) -> usize {
        if self.spec.parallel() {
            WORKERS
        } else {
            1
        }
    }

    /// One pass of the main route on a fresh engine. The caller resets
    /// the oracle first.
    pub fn main_pass(
        &self,
        oracle: OracleRef<'a>,
        workers: usize,
        tap: Option<&dyn Tap>,
        journal: Option<&RecoveryConfig>,
    ) -> Result<MainPass, String> {
        match (self.spec.mode, &self.plan) {
            (Mode::Serve { rate, horizon_s }, _) => {
                let arrivals =
                    PoissonArrivals::new(self.trips, rate, horizon_s, ARRIVAL_SCHEDULE_SEED);
                let out = serve_pass(
                    self.engine(oracle, workers),
                    ServeConfig {
                        model: SERVE_MODEL,
                        record_batches: true,
                        ..ServeConfig::default()
                    },
                    arrivals,
                    tap,
                    journal,
                )?;
                Ok(MainPass {
                    pass: out.pass,
                    serve: Some(out.serve),
                    recorded: out.recorded,
                })
            }
            (_, Some(plan)) => Ok(MainPass {
                pass: replay_pass(&mut self.engine(oracle, workers), plan, tap, None),
                serve: None,
                recorded: Vec::new(),
            }),
            (_, None) => Err("replay workload without a plan".to_string()),
        }
    }
}

/// A workload set up and ready to run.
pub struct Ready<'a> {
    /// Road network, hotspots and trips.
    pub workload: &'a Workload,
    /// The workload's oracle.
    pub oracle: Oracle<'a>,
    /// A copy of the hub labels inside the oracle, when asked for.
    pub labels: Option<HubLabels>,
    /// The fastest of the set-up repeats.
    pub setup: SetupTimes,
    /// How often set-up was repeated.
    pub repeats: usize,
}

/// Set-up repeats of a run: at least `SETUP_REPEATS.0`, then as many as
/// fit into [`SETUP_BUDGET_S`], at most `SETUP_REPEATS.1`. A large city
/// (1 s per set-up) gets 3 or 4, a medium one (0.1 s) all 25.
const SETUP_REPEATS: (usize, usize) = (3, 25);
/// Seconds a run spends on set-up repeats.
const SETUP_BUDGET_S: f64 = 4.5;

/// Sets the workload up and hands it to `f`. Set-up is repeated so that
/// its time can be minimised like every other step; each repeat is
/// dropped whole, oracle included, before the next one starts, and the
/// last one is the one `f` gets. `copy_labels` keeps a second copy of the
/// labels for the unit-cost loops of a traced run (cloned outside the
/// timed parts; an untraced run must not, it would double the labels in
/// `peak_rss_mb`).
pub fn with_setup<R>(
    spec: &Spec,
    seed: u64,
    smoke: bool,
    copy_labels: bool,
    f: impl FnOnce(Ready<'_>) -> R,
) -> R {
    let started = Instant::now();
    let mut times: Vec<SetupTimes> = Vec::new();
    loop {
        // The last repeat is known before it starts (it is the one that
        // copies the labels): the one after which, at the pace so far,
        // another would not fit.
        let nth = times.len() + 1;
        let spent = started.elapsed().as_secs_f64();
        let last = smoke
            || nth >= SETUP_REPEATS.1
            || (nth >= SETUP_REPEATS.0
                && spent + 2.0 * spent / times.len() as f64 > SETUP_BUDGET_S);
        let Inputs {
            workload,
            labels,
            times: mut this,
        } = Inputs::build(spec, seed);
        let copy = (copy_labels && last).then(|| labels.clone());
        let (oracle, oracle_s) = Oracle::build(spec, &workload.network, labels);
        this.oracle_s = oracle_s;
        times.push(this);
        if last {
            return f(Ready {
                workload: &workload,
                oracle,
                labels: copy,
                setup: fastest(&times),
                repeats: nth,
            });
        }
    }
}

/// The repeat with the smallest total.
fn fastest(times: &[SetupTimes]) -> SetupTimes {
    times
        .iter()
        .copied()
        .min_by(|a, b| a.total_s().total_cmp(&b.total_s()))
        .unwrap_or_default()
}

/// Passes whose steps [`Merged`] keeps whole: as many as a traced run's
/// longest equal-N comparison needs. Keeping every pass would make
/// `peak_rss_mb` grow with K.
const RETAINED: usize = 4;

/// Passes merged so far, with what the checks need.
#[derive(Default)]
pub struct Merged {
    /// Per-step minima.
    pub min: StepMin,
    /// Steps of the first [`RETAINED`] passes, kept for equal-N
    /// comparisons with side runs.
    pub passes: Vec<Vec<Step>>,
    /// Digest of the first pass; every later one must equal it.
    pub digest: Option<u64>,
    /// Requests offered over all passes.
    pub attempted: u64,
    /// Failures over all passes and checks.
    pub failed: u64,
    /// What went wrong, for the reader.
    pub problems: Vec<String>,
}

impl Merged {
    /// Merges one pass and runs the per-pass checks.
    pub fn add(&mut self, pass: &Pass) {
        self.attempted += pass.tally.offered;
        if pass.tally.failed() > 0 {
            self.fail(
                pass.tally.failed(),
                format!("output checks failed: {:?}", pass.tally),
            );
        }
        match self.digest {
            None => self.digest = Some(pass.digest),
            Some(d) if d != pass.digest => self.fail(
                pass.tally.offered,
                format!(
                    "pass digest {:#018x} differs from the first pass's {d:#018x}",
                    pass.digest
                ),
            ),
            Some(_) => {}
        }
        if let Err(e) = self.min.merge(&pass.steps) {
            self.fail(pass.tally.offered, e);
        }
        if self.passes.len() < RETAINED {
            self.passes.push(pass.steps.clone());
        }
    }

    /// Counts `n` failures with an explanation.
    pub fn fail(&mut self, n: u64, why: String) {
        self.failed += n.max(1);
        self.problems.push(why);
    }

    /// A reference pass (another worker count, the offline replay of a
    /// serve run) must have decided exactly what the main passes decided.
    pub fn must_match(&mut self, what: &str, pass: &Pass) {
        self.attempted += pass.tally.offered;
        if pass.tally.failed() > 0 {
            self.fail(
                pass.tally.failed(),
                format!("{what}: output checks failed: {:?}", pass.tally),
            );
        }
        if Some(pass.digest) != self.digest {
            self.fail(
                pass.tally.offered,
                format!(
                    "{what}: digest {:#018x} differs from the main passes'",
                    pass.digest
                ),
            );
        }
    }

    /// Step minima over the first `n` passes only (`n` at most
    /// [`RETAINED`]).
    pub fn first(&self, n: usize) -> StepMin {
        debug_assert!(n <= RETAINED, "only {RETAINED} passes are kept whole");
        let mut min = StepMin::default();
        for p in self.passes.iter().take(n) {
            // Shapes were checked when the pass was added.
            let _ = min.merge(p);
        }
        min
    }
}

/// `VmHWM` of this process, in megabytes (0 where /proc is missing).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The untraced passes of a run and what they established.
pub struct Measured {
    /// Merged passes.
    pub merged: Merged,
    /// Last main pass (report, dispatch counters).
    pub last: MainPass,
    /// `VmHWM` right after the last main pass.
    pub peak_rss_mb: f64,
}

/// Fewest passes a measured run makes, however short `--seconds` is.
pub const MIN_PASSES: usize = 8;

/// How long the main route is measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Exactly this many passes (traced and smoke runs).
    Passes(usize),
    /// As many passes as fit into this many seconds, never fewer than
    /// [`MIN_PASSES`]: the run's length then does not depend on how fast
    /// the machine or the program is.
    Seconds(f64),
}

impl Budget {
    /// Whether another pass fits after `done` passes took `elapsed_s`.
    fn allows_another(self, done: usize, elapsed_s: f64) -> bool {
        match self {
            Budget::Passes(n) => done < n,
            Budget::Seconds(s) => done < MIN_PASSES || elapsed_s + elapsed_s / done as f64 <= s,
        }
    }
}

/// Runs untraced passes of the main route until `budget` is used up (at
/// least one).
pub fn measure(
    runner: &Runner<'_>,
    oracle: &Oracle<'_>,
    budget: Budget,
) -> Result<Measured, String> {
    let started = Instant::now();
    let mut merged = Merged::default();
    loop {
        oracle.reset();
        let last = runner.main_pass(oracle.handle(), runner.workers(), None, None)?;
        merged.add(&last.pass);
        if !budget.allows_another(merged.min.passes(), started.elapsed().as_secs_f64()) {
            return Ok(Measured {
                merged,
                last,
                peak_rss_mb: peak_rss_mb(),
            });
        }
    }
}

/// The reference pass of the batched workloads: the same trips at one
/// worker, or the serve run's recorded batches replayed offline. Its
/// decisions must equal the main passes'.
pub fn reference_pass(
    runner: &Runner<'_>,
    oracle: &Oracle<'_>,
    measured: &mut Measured,
) -> Result<Option<Pass>, String> {
    oracle.reset();
    let pass = match runner.spec.mode {
        Mode::PerRequest => return Ok(None),
        Mode::Batched { .. } => {
            let pass = runner.main_pass(oracle.handle(), 1, None, None)?.pass;
            measured.merged.must_match("workers = 1", &pass);
            pass
        }
        Mode::Serve { .. } => {
            let plan = Plan::recorded(&measured.last.recorded);
            let mut engine = runner.engine(oracle.handle(), runner.workers());
            let pass = replay_pass(&mut engine, &plan, None, None);
            measured
                .merged
                .must_match("offline replay of recorded batches", &pass);
            pass
        }
    };
    Ok(Some(pass))
}

/// The nine end-to-end numbers (failure_rate is the result's `failed` ÷
/// `attempted`).
pub fn end_to_end(
    measured: &Measured,
    setup: SetupTimes,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let min = &measured.merged.min;
    let report: &SimReport = &measured.last.pass.report;
    let offered = measured.last.pass.tally.offered;
    let total_s = min.total_ns() as f64 / 1e9;
    let samples = min.response_samples_ns();
    let p50 = percentile(&samples, 0.50);
    let p95 = percentile(&samples, 0.95);
    let ms = |p: Option<Percentile>| p.map_or(0.0, |p| p.value as f64 / 1e6);
    let mut notes = vec![format!(
        "response samples: {} (one per request), {} beyond p95",
        samples.len(),
        p95.map_or(0, |p| p.beyond)
    )];
    if samples.len() as u64 != offered {
        notes.push(format!(
            "{} requests of the serve loop's last tick have no sample: that step also holds the drain",
            offered - samples.len() as u64
        ));
    }
    let metrics = tabulate(
        END_TO_END,
        &[
            ("trips_per_s", offered as f64 / total_s),
            ("response_ms_p50", ms(p50)),
            ("response_ms_p95", ms(p95)),
            ("setup_s", setup.total_s()),
            ("peak_rss_mb", measured.peak_rss_mb),
            (
                "service_rate",
                report.assigned as f64 / offered.max(1) as f64,
            ),
            ("km_per_delivery", report.distance_per_delivery_km),
            ("wait_s_mean", report.mean_wait_seconds),
        ],
    )?;
    Ok((metrics, notes))
}

/// Runs one workload end to end (untraced): the driver's `--trace 0`.
pub fn run_end_to_end(
    spec: Spec,
    seed: u64,
    seconds: f64,
    smoke: bool,
) -> Result<RunResult, String> {
    let started = Instant::now();
    let budget = if smoke {
        Budget::Passes(1)
    } else {
        Budget::Seconds(seconds)
    };
    with_setup(&spec, seed, smoke, false, |ready| {
        let runner = Runner::new(spec, seed, ready.workload);
        let mut measured = measure(&runner, &ready.oracle, budget)?;
        reference_pass(&runner, &ready.oracle, &mut measured)?;
        let (metrics, notes) = end_to_end(&measured, ready.setup)?;
        print_header(&spec, seed, &ready, &measured.merged);
        for n in notes {
            println!("# {n}");
        }
        println!("# run took {:.1} s", started.elapsed().as_secs_f64());
        Ok(finish(measured.merged, metrics))
    })
}

/// Prints what was run and how steady the machine was.
pub fn print_header(spec: &Spec, seed: u64, ready: &Ready<'_>, merged: &Merged) {
    let route = match spec.mode {
        Mode::PerRequest => "advance_all + submit per request".to_string(),
        Mode::Batched { window_s } => {
            format!("advance_all + submit_batch per {window_s} s window, workers = {WORKERS}")
        }
        Mode::Serve { rate, horizon_s } => format!(
            "ServeLoop::run, open loop in virtual time (generator lateness 0 by construction), \
             Poisson {rate} req/s for {horizon_s} s, workers = {WORKERS}"
        ),
    };
    println!(
        "# workload {} seed {seed}: {} city ({} nodes), {} trips over {} s, {} vehicles{}",
        spec.name,
        spec.city.name(),
        ready.workload.network.node_count(),
        spec.trips,
        spec.span_s,
        spec.vehicles,
        if spec.cruise { ", cruising" } else { "" },
    );
    println!("# route: {route}");
    println!(
        "# nproc {}, K = {} passes of {} steps, digest {:#018x} on every pass",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        merged.min.passes(),
        merged.min.steps.len(),
        merged.digest.unwrap_or(0),
    );
    println!(
        "# set-up {:.4} s = generate {:.4} + labels {:.4} + oracle {:.4} (fastest of {} repeats)",
        ready.setup.total_s(),
        ready.setup.generate_s,
        ready.setup.label_build_s,
        ready.setup.oracle_s,
        ready.repeats,
    );
    let mut walls = merged.min.walls.clone();
    walls.sort_unstable();
    println!(
        "# harness.noise_ratio {:.3}: median pass {:.3} s over a step-min total of {:.3} s (passes {:.3}..{:.3} s)",
        merged.min.noise_ratio(),
        crate::clock::median(&walls).unwrap_or(0.0) / 1e9,
        merged.min.total_ns() as f64 / 1e9,
        walls.first().copied().unwrap_or(0) as f64 / 1e9,
        walls.last().copied().unwrap_or(0) as f64 / 1e9,
    );
}

/// Assembles the result and reports problems to the reader.
pub fn finish(merged: Merged, metrics: Vec<Metric>) -> RunResult {
    for p in &merged.problems {
        println!("# FAILED: {p}");
    }
    RunResult {
        correct: merged.failed == 0,
        attempted: merged.attempted.max(1),
        failed: merged.failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Tally;
    use crate::clock::StepKind;

    fn pass(digest: u64, nanos: u64, tally: Tally) -> Pass {
        Pass {
            steps: vec![Step::new(StepKind::Submit, nanos, 1)],
            digest,
            report: SimReport::default(),
            stats: Default::default(),
            tally,
        }
    }

    fn ok(offered: u64) -> Tally {
        Tally {
            offered,
            ..Tally::default()
        }
    }

    #[test]
    fn identical_passes_merge_clean() {
        let mut m = Merged::default();
        m.add(&pass(7, 50, ok(10)));
        m.add(&pass(7, 40, ok(10)));
        assert_eq!((m.failed, m.attempted), (0, 20));
        assert_eq!(m.min.total_ns(), 40);
        assert_eq!(m.first(1).total_ns(), 50);
    }

    #[test]
    fn a_differing_digest_fails_the_run() {
        let mut m = Merged::default();
        m.add(&pass(7, 50, ok(10)));
        m.add(&pass(8, 50, ok(10)));
        assert_eq!(m.failed, 10);
        let mut r = Merged::default();
        r.add(&pass(7, 50, ok(10)));
        r.must_match("workers = 1", &pass(9, 60, ok(10)));
        assert!(r.failed > 0 && r.problems[0].contains("workers = 1"));
    }

    #[test]
    fn failed_checks_are_counted_against_the_attempts() {
        let mut m = Merged::default();
        let bad = Tally {
            offered: 10,
            late_pickups: 2,
            shed: 1,
            ..Tally::default()
        };
        m.add(&pass(7, 50, bad));
        assert_eq!((m.failed, m.attempted), (3, 10));
        let r = finish(m, Vec::new());
        assert!(!r.correct);
    }

    #[test]
    fn the_fastest_set_up_is_reported() {
        let t = |g: f64| SetupTimes {
            generate_s: g,
            label_build_s: 1.0,
            oracle_s: 0.0,
        };
        assert_eq!(fastest(&[t(0.5), t(0.2), t(0.9)]).generate_s, 0.2);
    }

    #[test]
    fn peak_rss_reads_something_on_linux() {
        assert!(peak_rss_mb() >= 0.0);
    }
}
