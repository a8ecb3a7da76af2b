//! The traced run: per-layer metrics.
//!
//! A `--trace` run is a separate run. It repeats a few untraced passes
//! (the baseline the tracing overhead is measured against), then the same
//! passes through the counting oracle wrapper, then side runs that take
//! one layer out or put one in (one worker, per-request dispatch, the
//! sharded engine, the offline replay of the serve run, the journal), and
//! short unit-cost loops on the workload's own network and fleet. Every
//! layer is measured from outside, by timing calls into its public
//! functions. A layer the workload does not route through reports 0.
//!
//! Side runs are compared with the main route at equal pass counts
//! (step-min over N side passes ÷ step-min over the first N main passes):
//! a minimum over more passes is smaller, so unequal counts would bias
//! every ratio.

use std::path::PathBuf;
use std::time::Instant;

use kinetic_core::{AssignmentOutcome, DispatchStats, Dispatcher, TripRequest, Vehicle};
use rideshare_serve::{
    PoissonArrivals, RecoveryConfig, ServeConfig, ServeLoop, ServiceModel, SloConfig,
};
use rideshare_sim::{ShardNetStats, ShardedSimulation, SimConfig, Simulation};
use rideshare_workload::TripEvent;
use roadnet::{
    DijkstraEngine, DistanceOracle, HubLabels, PartitionSpec, RoadNetwork, ShortestPathEngine,
};
use spatial::{GridIndex, GridStats, Position};

use crate::clock::{percentile, timer_ns, OracleWork, StepKind, StepMin};
use crate::drive::{replay_pass, Observer, Pass, Plan};
use crate::emit::{tabulate, RunResult, PER_LAYER};
use crate::probe::{Probe, SpanLog, Tap};
use crate::run::{
    finish, measure, print_header, with_setup, Budget, Measured, Merged, Ready, Runner,
    ARRIVAL_SCHEDULE_SEED,
};
use crate::spec::{label_mb, Mode, Oracle, OracleRef, Spec, WORKERS};

/// Pass counts of a traced run, which differ between the sequential
/// replays and the batched routes (whose traced run has more side runs to
/// fit).
struct PassCounts {
    /// Untraced passes of the main route, before the ledger. The
    /// sequential replays need only one: their ledger's plain passes are
    /// the main route again and are merged with it.
    main: usize,
    /// Ledger passes, plain and traced each.
    ledger: usize,
}

impl PassCounts {
    fn of(spec: &Spec) -> Self {
        if spec.parallel() {
            PassCounts { main: 3, ledger: 2 }
        } else {
            PassCounts { main: 1, ledger: 3 }
        }
    }
}

/// Passes of each side run.
const SIDE_PASSES: usize = 2;
/// Dispatches observed by the sampling pass (spread evenly over it).
const SAMPLES: usize = 64;

/// Funnel and tree statistics gathered by the sampling pass.
///
/// The engine keeps its grid index and its funnel counters to itself, so
/// the sampler re-runs sampled dispatches on a harness-owned `Dispatcher`
/// and `GridIndex`: it takes the fleet just after the engine's dispatch
/// (candidates synced to the positions they were evaluated at), puts each
/// winner back to its pre-dispatch schedule at that synced position, and
/// dispatches the same requests sequentially. `GridStats` of that index
/// then holds the funnel.
struct Sampler<'a> {
    every: usize,
    graph: &'a RoadNetwork,
    oracle: &'a dyn DistanceOracle,
    config: SimConfig,
    funnel: GridStats,
    compared: u64,
    agreed: u64,
    tree_nodes: u64,
    trees: u64,
    tree_nodes_max: usize,
}

impl<'a> Sampler<'a> {
    fn new(
        windows: usize,
        graph: &'a RoadNetwork,
        oracle: &'a dyn DistanceOracle,
        config: SimConfig,
    ) -> Self {
        Sampler {
            every: (windows / SAMPLES).max(1),
            graph,
            oracle,
            config,
            funnel: GridStats::default(),
            compared: 0,
            agreed: 0,
            tree_nodes: 0,
            trees: 0,
            tree_nodes_max: 0,
        }
    }

    fn frac(&self, n: u64) -> f64 {
        ratio(n as f64, self.funnel.candidates_in_radius as f64)
    }
}

impl Observer<Simulation<'_>> for Sampler<'_> {
    fn wants(&self, w: usize) -> bool {
        w.is_multiple_of(self.every)
    }

    fn dispatched(
        &mut self,
        before: Vec<Vehicle>,
        engine: &Simulation<'_>,
        trips: &[TripEvent],
        outcomes: &[AssignmentOutcome],
    ) {
        let mut fleet = engine.vehicles().to_vec();
        for tree in fleet.iter().filter_map(|v| v.tree()) {
            let nodes = tree.stats().nodes;
            self.tree_nodes += nodes as u64;
            self.trees += 1;
            self.tree_nodes_max = self.tree_nodes_max.max(nodes);
        }
        for outcome in outcomes {
            if let AssignmentOutcome::Assigned { vehicle, .. } = *outcome {
                let slot = vehicle as usize;
                let (node, clock) = (fleet[slot].location(), fleet[slot].clock());
                let mut undone = before[slot].clone();
                undone.set_position(node, clock, self.oracle);
                fleet[slot] = undone;
            }
        }
        let mut index = GridIndex::new(self.config.grid_cell_meters.max(1.0));
        for v in &fleet {
            let p = self.graph.point(v.location());
            index.insert(v.id(), Position::new(p.x, p.y));
        }
        let mut dispatcher = Dispatcher::new(self.config.dispatcher);
        for (trip, engine_outcome) in trips.iter().zip(outcomes) {
            let request = TripRequest::new(
                trip.id,
                trip.source,
                trip.destination,
                self.config.seconds_to_meters(trip.time_seconds),
                self.config.constraints,
            );
            let mirrored =
                dispatcher.assign(&request, &mut fleet, self.graph, &mut index, self.oracle);
            self.compared += 1;
            let same = match (mirrored, *engine_outcome) {
                (
                    AssignmentOutcome::Assigned { vehicle: a, .. },
                    AssignmentOutcome::Assigned { vehicle: b, .. },
                ) => a == b,
                (AssignmentOutcome::Rejected { .. }, AssignmentOutcome::Rejected { .. }) => true,
                _ => false,
            };
            self.agreed += same as u64;
        }
        let s = index.stats();
        self.funnel.candidates_in_radius += s.candidates_in_radius;
        self.funnel.pruned_by_slack += s.pruned_by_slack;
        self.funnel.pruned_by_bound += s.pruned_by_bound;
        self.funnel.evaluated += s.evaluated;
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Minimum over three repeats of `f`, which returns nanoseconds per
/// operation.
fn best_of_3(mut f: impl FnMut() -> f64) -> f64 {
    (0..3).map(|_| f()).fold(f64::INFINITY, f64::min)
}

/// Unit costs of the oracle and the grid on the workload's own network,
/// trips and fleet.
struct UnitCosts {
    hit_ns: f64,
    label_merge_ns: f64,
    dijkstra_ns: f64,
    grid_query_ns: f64,
    grid_candidates_per_query: f64,
    grid_update_ns: f64,
}

fn unit_costs(runner: &Runner<'_>, oracle: &Oracle<'_>, labels: &HubLabels) -> UnitCosts {
    let trips = runner.trips;
    let pairs: Vec<(u32, u32)> = trips.iter().map(|t| (t.source, t.destination)).collect();
    let handle = oracle.handle().seq();

    // Cache hit: a working set far below the cache capacity, asked again.
    let hot = &pairs[..pairs.len().min(256)];
    oracle.reset();
    for &(s, t) in hot {
        std::hint::black_box(handle.dist(s, t));
    }
    let hit_ns = best_of_3(|| {
        const CALLS: usize = 100_000;
        let start = Instant::now();
        for i in 0..CALLS {
            let (s, t) = hot[i % hot.len()];
            std::hint::black_box(handle.dist(s, t));
        }
        start.elapsed().as_nanos() as f64 / CALLS as f64
    });

    // Label merge: what a distance-cache miss costs.
    let label_merge_ns = best_of_3(|| {
        let start = Instant::now();
        for &(s, t) in &pairs {
            std::hint::black_box(labels.distance(s, t));
        }
        start.elapsed().as_nanos() as f64 / pairs.len() as f64
    });

    // Dijkstra with path extraction: what a path-cache miss costs.
    let engine = DijkstraEngine::new(runner.graph);
    let sample = &pairs[..pairs.len().min(64)];
    let dijkstra_ns = best_of_3(|| {
        let start = Instant::now();
        for &(s, t) in sample {
            std::hint::black_box(engine.path(s, t));
        }
        start.elapsed().as_nanos() as f64 / sample.len() as f64
    });

    // Grid: the fleet at its starting positions, queried at the trips'
    // pickups with the waiting radius, then moved between pickups.
    let config = runner.spec.sim_config(runner.seed, 1);
    let fleet = runner
        .engine(oracle.handle(), runner.workers())
        .vehicles()
        .to_vec();
    let at = |node: u32| {
        let p = runner.graph.point(node);
        Position::new(p.x, p.y)
    };
    let mut index = GridIndex::new(config.grid_cell_meters.max(1.0));
    for v in &fleet {
        index.insert(v.id(), at(v.location()));
    }
    let radius = config.constraints.max_wait * config.dispatcher.radius_factor;
    let mut out = Vec::new();
    let queries = &pairs[..pairs.len().min(1_000)];
    let grid_query_ns = best_of_3(|| {
        let start = Instant::now();
        for &(s, _) in queries {
            index.query_radius_into(at(s), radius, &mut out);
            std::hint::black_box(out.len());
        }
        start.elapsed().as_nanos() as f64 / queries.len() as f64
    });
    let stats = index.stats();
    let grid_candidates_per_query = ratio(stats.candidates_returned as f64, stats.queries as f64);
    let mut round = 0usize;
    let grid_update_ns = best_of_3(|| {
        round += 1;
        let start = Instant::now();
        for v in &fleet {
            let (s, t) = pairs[(v.id() as usize + round) % pairs.len()];
            index.update(v.id(), at(if round.is_multiple_of(2) { s } else { t }));
        }
        start.elapsed().as_nanos() as f64 / fleet.len().max(1) as f64
    });

    UnitCosts {
        hit_ns,
        label_merge_ns,
        dijkstra_ns,
        grid_query_ns,
        grid_candidates_per_query,
        grid_update_ns,
    }
}

/// A traced step-min summed by role: the calls that dispatch (submit,
/// submit_batch, serve ticks) and the calls that move the fleet
/// (advance_all, drain). Each role's sampled `dist` time is scaled to its
/// own call count, since the mix of cache hits and misses differs
/// between them.
#[derive(Default)]
struct TracedSums {
    dispatch_ns: u64,
    dispatch: OracleWork,
    advance_ns: u64,
    advance: OracleWork,
}

impl TracedSums {
    fn of(min: &StepMin) -> Self {
        let mut t = TracedSums::default();
        for s in &min.steps {
            let (span, work) = if s.kind.answers() {
                (&mut t.dispatch_ns, &mut t.dispatch)
            } else {
                (&mut t.advance_ns, &mut t.advance)
            };
            *span += s.nanos;
            work.add(s.oracle);
        }
        t
    }

    fn dist_calls(&self) -> u64 {
        self.dispatch.dist_calls + self.advance.dist_calls
    }

    fn path_calls(&self) -> u64 {
        self.dispatch.path_calls + self.advance.path_calls
    }
}

/// Self time of a parent in seconds: its spans minus its oracle children
/// minus the clock reads the probe made outside the children's intervals
/// (one of the two per timed call; the other is inside and is taken out
/// of the child).
fn self_s(span_ns: u64, work: &OracleWork, timer: f64) -> f64 {
    let children = work.dist_busy_ns(timer) + work.path_busy_ns(timer);
    let reads = work.clock_reads() as f64 * timer;
    ((span_ns as f64 - children - reads) / 1e9).max(0.0)
}

/// Everything the side runs of one workload established.
#[derive(Default)]
struct Sides {
    speedup_w2: f64,
    batch_vs_single: f64,
    k1_ratio: f64,
    k4_ratio: f64,
    net: ShardNetStats,
    serve_overhead: f64,
    journal_overhead: f64,
    knee_rps: f64,
    /// Step minima of the offline replay of a serve run (its engine
    /// steps, which the serve loop hides inside its ticks).
    offline: Option<StepMin>,
}

fn side_min(
    merged: &mut Merged,
    passes: usize,
    what: &str,
    check_digest: bool,
    mut pass: impl FnMut() -> Result<Pass, String>,
) -> Result<StepMin, String> {
    let mut min = StepMin::default();
    for _ in 0..passes {
        let p = pass()?;
        if check_digest {
            merged.must_match(what, &p);
        } else if p.tally.failed() > 0 {
            merged.fail(
                p.tally.failed(),
                format!("{what}: output checks failed: {:?}", p.tally),
            );
        }
        min.merge(&p.steps)?;
    }
    Ok(min)
}

/// Highest arrival rate of a short ladder that the serve loop sustains
/// under `ServiceModel::Measured`, on a fresh fleet, with the default SLO
/// scaled to a tenth in time (0.1 s ticks, 0.3 s p99 budget) so that a
/// failing rung costs about a second rather than a minute. One bisection
/// step between the last passing and the first failing rung.
fn knee_rps(runner: &Runner<'_>, oracle: &Oracle<'_>) -> f64 {
    let slo = SloConfig {
        tick_seconds: 0.1,
        p99_budget_seconds: 0.3,
        max_queue_wait_seconds: 1.0,
        degrade_compute_budget_seconds: 0.1,
        ..SloConfig::default()
    };
    let sustains = |rate: f64| {
        oracle.reset();
        let config = ServeConfig {
            slo,
            model: ServiceModel::Measured,
            ..ServeConfig::default()
        };
        let mut serve = ServeLoop::new(runner.engine(oracle.handle(), runner.workers()), config);
        serve
            .run(PoissonArrivals::new(
                runner.trips,
                rate,
                1.0,
                ARRIVAL_SCHEDULE_SEED,
            ))
            .meets_slo(&slo)
    };
    let mut knee = 0.0;
    for rate in [100.0, 200.0, 400.0, 800.0, 1_600.0] {
        if sustains(rate) {
            knee = rate;
        } else {
            let mid = (knee * rate).sqrt();
            if knee > 0.0 && sustains(mid) {
                knee = mid;
            }
            break;
        }
    }
    knee
}

fn side_runs(
    runner: &Runner<'_>,
    oracle: &Oracle<'_>,
    measured: &mut Measured,
    plain_w1: &StepMin,
    smoke: bool,
) -> Result<Sides, String> {
    let mut sides = Sides::default();
    let n = if smoke { 1 } else { SIDE_PASSES };
    let base = measured.merged.first(n).total_ns() as f64;
    let handle = oracle.handle();
    if runner.spec.parallel() {
        // The ledger's plain passes are this route at one worker.
        let w2 = measured.merged.first(plain_w1.passes()).total_ns() as f64;
        sides.speedup_w2 = ratio(plain_w1.total_ns() as f64, w2);
    }
    let merged = &mut measured.merged;
    match runner.spec.mode {
        Mode::PerRequest => {}
        Mode::Batched { .. } => {
            let plan = runner
                .plan
                .as_ref()
                .ok_or("batched workload without a plan")?;
            // The same trips one `submit` at a time: another experiment
            // (the fleet moves per request, not per window), so its
            // decisions are checked but not compared.
            let single_plan = Plan::per_request(&plan.trips);
            let single = side_min(merged, n, "per-request dispatch", false, || {
                oracle.reset();
                let mut engine = runner.engine(handle, 1);
                Ok(replay_pass(&mut engine, &single_plan, None, None))
            })?;
            sides.batch_vs_single = ratio(base, single.total_ns() as f64);
            let config = runner.spec.sim_config(runner.seed, WORKERS);
            let OracleRef::Par(sync_oracle) = handle else {
                return Err("batched workload on a sequential oracle".to_string());
            };
            for (k, slot) in [(1usize, &mut sides.k1_ratio), (4, &mut sides.k4_ratio)] {
                let mut net = ShardNetStats::default();
                let min = side_min(merged, n, &format!("sharded engine, k = {k}"), true, || {
                    oracle.reset();
                    let partition = PartitionSpec::grow(runner.graph, k);
                    let mut engine = ShardedSimulation::with_parallel(
                        runner.graph,
                        sync_oracle,
                        partition,
                        config,
                    );
                    let pass = replay_pass(&mut engine, plan, None, None);
                    net = engine.net_stats();
                    Ok(pass)
                })?;
                *slot = ratio(min.total_ns() as f64, base);
                sides.net = net;
            }
        }
        Mode::Serve { .. } => {
            let recorded = Plan::recorded(&measured.last.recorded);
            let offline = side_min(
                merged,
                n,
                "offline replay of recorded batches",
                true,
                || {
                    oracle.reset();
                    let mut engine = runner.engine(handle, runner.workers());
                    Ok(replay_pass(&mut engine, &recorded, None, None))
                },
            )?;
            sides.serve_overhead = ratio(base, offline.total_ns() as f64);
            sides.offline = Some(offline);
            let dir = out_dir().join(format!("journal-{}", std::process::id()));
            let recovery = RecoveryConfig::new(&dir);
            let journaled = side_min(merged, n, "journaled serve run", true, || {
                oracle.reset();
                Ok(runner
                    .main_pass(handle, runner.workers(), None, Some(&recovery))?
                    .pass)
            });
            let _ = std::fs::remove_dir_all(&dir);
            sides.journal_overhead = ratio(journaled?.total_ns() as f64, base);
            if !smoke {
                sides.knee_rps = knee_rps(runner, oracle);
            }
        }
    }
    Ok(sides)
}

/// `benchmark/out`, next to this crate's manifest: in the checkout
/// `cargo run` was started in (cargo hands the manifest directory to the
/// program it runs), else in the one the binary was built in.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
        .join("out")
}

fn art(stats: &DispatchStats, min_active: usize) -> f64 {
    let (count, nanos) = stats
        .art_buckets
        .range(min_active..)
        .fold((0u64, 0u128), |(c, n), (_, &(bc, bn))| (c + bc, n + bn));
    ratio(nanos as f64 / 1e3, count as f64)
}

/// Runs one workload traced: the driver's `--trace 1`.
pub fn run_traced(spec: Spec, seed: u64, smoke: bool) -> Result<RunResult, String> {
    with_setup(&spec, seed, smoke, true, |ready| {
        traced(spec, seed, smoke, ready)
    })
}

fn traced(spec: Spec, seed: u64, smoke: bool, ready: Ready<'_>) -> Result<RunResult, String> {
    let started = Instant::now();
    let passes = |n: usize| if smoke { 1 } else { n };
    let (workload, oracle, setup) = (ready.workload, &ready.oracle, ready.setup);
    let labels_copy = ready
        .labels
        .as_ref()
        .ok_or("traced run without a label copy")?;
    let timer = timer_ns();

    // Main route, untraced: engine steps, noise, the oracle's own counters.
    let runner = Runner::new(spec, seed, workload);
    let counts = PassCounts::of(&spec);
    let mut measured = measure(&runner, oracle, Budget::Passes(passes(counts.main)))?;
    let oracle_stats = oracle.stats();

    // The ledger: plain and traced passes at one worker, alternating so
    // that both see the same machine. Self times only add up on one
    // thread (two workers' busy time sums to more than the wall), so the
    // batched routes are traced at workers = 1, where the dispatcher runs
    // the same code inline and decides the same.
    let ledger_passes = passes(counts.ledger);
    let mut spans = SpanLog::default();
    let mut plain = StepMin::default();
    let mut traced = StepMin::default();
    for i in 0..ledger_passes {
        oracle.reset();
        let pass = runner.main_pass(oracle.handle(), 1, None, None)?.pass;
        if spec.parallel() {
            measured.merged.must_match("workers = 1", &pass);
        } else {
            measured.merged.add(&pass);
        }
        plain.merge(&pass.steps)?;
        oracle.reset();
        let pass = match oracle {
            Oracle::Cached(o) => {
                let probe = Probe::new(o.as_ref());
                runner.main_pass(OracleRef::Seq(&probe), 1, Some(&probe as &dyn Tap), None)
            }
            Oracle::Sharded(o) => {
                let probe = Probe::new(o.as_ref());
                runner.main_pass(OracleRef::Par(&probe), 1, Some(&probe as &dyn Tap), None)
            }
        }?
        .pass;
        measured.merged.must_match("traced pass", &pass);
        spans.record_pass(spec.name, i, &pass.steps);
        traced.merge(&pass.steps)?;
    }

    // Sampling pass: funnel split and tree sizes.
    let sim_config = spec.sim_config(seed, runner.workers());
    let recorded_plan;
    let sample_plan = match &runner.plan {
        Some(p) => p,
        None => {
            recorded_plan = Plan::recorded(&measured.last.recorded);
            &recorded_plan
        }
    };
    let mut sampler = Sampler::new(
        sample_plan.windows.len(),
        &workload.network,
        oracle.handle().seq(),
        sim_config,
    );
    oracle.reset();
    let sampled = replay_pass(
        &mut runner.engine(oracle.handle(), runner.workers()),
        sample_plan,
        None,
        Some(&mut sampler),
    );
    measured.merged.must_match("sampling pass", &sampled);

    let sides = side_runs(&runner, oracle, &mut measured, &plain, smoke)?;
    let units = unit_costs(&runner, oracle, labels_copy);

    // Assemble.
    let min = &measured.merged.min;
    let engine_steps = sides.offline.as_ref().unwrap_or(min);
    let stats = &measured.last.pass.stats;
    let requests = measured.last.pass.tally.offered.max(1) as f64;
    let sums = TracedSums::of(&traced);
    let advance_ns = engine_steps.kind_ns(StepKind::Advance);
    let advance_calls = engine_steps.of_kind(StepKind::Advance).count() as f64;
    let dispatch_kinds = [StepKind::Submit, StepKind::Batch, StepKind::Tick];
    let submit_ns: u64 = dispatch_kinds
        .iter()
        .map(|&k| engine_steps.kind_ns(k))
        .sum();
    let batches = min
        .steps
        .iter()
        .filter(|s| {
            matches!(s.kind, StepKind::Batch | StepKind::Tick | StepKind::Drain) && s.requests > 0
        })
        .count() as f64;
    let dist_s = (sums.dispatch.dist_busy_ns(timer) + sums.advance.dist_busy_ns(timer)) / 1e9;
    let path_s = (sums.dispatch.path_busy_ns(timer) + sums.advance.path_busy_ns(timer)) / 1e9;
    let dispatch_self_s = self_s(sums.dispatch_ns, &sums.dispatch, timer);
    let advance_self_s = self_s(sums.advance_ns, &sums.advance, timer);
    let ticks: Vec<u64> = {
        let mut t: Vec<u64> = min.of_kind(StepKind::Tick).map(|s| s.nanos).collect();
        t.sort_unstable();
        t
    };
    let tick_ms = |p: f64| percentile(&ticks, p).map_or(0.0, |p| p.value as f64 / 1e6);
    let serve = measured.last.serve.as_ref();
    let parallel = spec.parallel();
    let net = sides.net;

    let metrics = tabulate(
        PER_LAYER,
        &[
            ("workload.generate_s", setup.generate_s),
            ("roadnet.label_build_s", setup.label_build_s),
            ("roadnet.label_entries_mean", labels_copy.mean_label_size()),
            ("roadnet.label_mb", label_mb(labels_copy)),
            (
                "oracle.dist_calls_per_trip",
                sums.dist_calls() as f64 / requests,
            ),
            ("oracle.dist_s", dist_s),
            ("oracle.dist_hit_rate", oracle_stats.distance_hit_rate()),
            ("oracle.path_calls", sums.path_calls() as f64),
            ("oracle.path_s", path_s),
            (
                "oracle.path_hit_rate",
                ratio(
                    oracle_stats.path_cache_hits as f64,
                    oracle_stats.path_queries as f64,
                ),
            ),
            ("oracle.hit_ns", units.hit_ns),
            ("oracle.label_merge_ns", units.label_merge_ns),
            ("oracle.dijkstra_ns", units.dijkstra_ns),
            ("grid.query_ns", units.grid_query_ns),
            ("grid.candidates_per_query", units.grid_candidates_per_query),
            ("grid.update_ns", units.grid_update_ns),
            ("dispatch.candidates_per_trip", stats.mean_candidates()),
            ("dispatch.evaluated_per_trip", stats.mean_evaluated()),
            (
                "dispatch.pruned_by_slack_frac",
                sampler.frac(sampler.funnel.pruned_by_slack),
            ),
            (
                "dispatch.pruned_by_bound_frac",
                sampler.frac(sampler.funnel.pruned_by_bound),
            ),
            (
                "dispatch.useful_eval_ratio",
                ratio(stats.assigned as f64, stats.evaluated() as f64),
            ),
            ("dispatch.self_s", dispatch_self_s),
            (
                "dispatch.response_ms_p99",
                percentile(&min.response_samples_ns(), 0.99).map_or(0.0, |p| p.value as f64 / 1e6),
            ),
            ("kinetic.eval_us_mean", art(stats, 0)),
            ("kinetic.eval_us_active4plus", art(stats, 4)),
            (
                "kinetic.tree_nodes_mean",
                ratio(sampler.tree_nodes as f64, sampler.trees as f64),
            ),
            ("kinetic.tree_nodes_max", sampler.tree_nodes_max as f64),
            ("parallel.speedup_w2", sides.speedup_w2),
            ("parallel.batch_vs_single_ratio", sides.batch_vs_single),
            (
                "parallel.items_per_batch",
                if parallel {
                    ratio(stats.candidates as f64, batches)
                } else {
                    0.0
                },
            ),
            ("engine.advance_s", secs(advance_ns)),
            (
                "engine.advance_share",
                ratio(advance_ns as f64, engine_steps.total_ns() as f64),
            ),
            ("engine.advance_self_s", advance_self_s),
            ("engine.submit_s", secs(submit_ns)),
            (
                "engine.drain_s",
                secs(engine_steps.kind_ns(StepKind::Drain)),
            ),
            (
                "engine.advance_ns_per_vehicle_call",
                ratio(advance_ns as f64, advance_calls * spec.vehicles as f64),
            ),
            ("shard.k1_time_ratio", sides.k1_ratio),
            ("shard.k4_time_ratio", sides.k4_ratio),
            (
                "shard.boundary_request_frac",
                ratio(
                    net.boundary_requests as f64,
                    (net.boundary_requests + net.local_requests) as f64,
                ),
            ),
            (
                "shard.borrows_per_trip",
                if net.borrows > 0 {
                    net.borrows as f64 / requests
                } else {
                    0.0
                },
            ),
            ("shard.migrations", net.migrations as f64),
            ("serve.tick_ms_p50", tick_ms(0.50)),
            ("serve.tick_ms_p99", tick_ms(0.99)),
            ("serve.overhead_ratio", sides.serve_overhead),
            ("serve.journal_overhead_ratio", sides.journal_overhead),
            (
                "serve.queue_depth_max",
                serve.map_or(0.0, |r| r.queue_depth_max as f64),
            ),
            ("serve.shed_fraction", serve.map_or(0.0, |r| r.shed_rate())),
            (
                "serve.latency_virtual_s_p99",
                serve.map_or(0.0, |r| r.latency.p99_s),
            ),
            ("serve.knee_rps", sides.knee_rps),
            ("harness.noise_ratio", min.noise_ratio()),
            ("harness.timer_ns", timer),
            (
                "harness.trace_overhead_ratio",
                ratio(traced.total_ns() as f64, plain.total_ns() as f64),
            ),
            (
                "harness.reconcile_ratio",
                ratio(
                    dist_s + path_s + dispatch_self_s + advance_self_s,
                    secs(plain.total_ns()),
                ),
            ),
        ],
    )?;

    // The span log, written when the run ends.
    let dir = out_dir();
    let path = dir.join(format!("trace-{}.jsonl", spec.name));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans.to_jsonl()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    print_header(&spec, seed, &ready, &measured.merged);
    println!(
        "# ledger: {ledger_passes} plain and {ledger_passes} traced passes at workers = 1, alternating; {} spans in {}",
        spans.len(),
        path.display()
    );
    println!(
        "# sampling pass: {} requests re-dispatched on a harness-owned Dispatcher + GridIndex, {} decided as the engine did",
        sampler.compared, sampler.agreed
    );
    println!(
        "# ratios compare step-min totals at equal pass counts ({SIDE_PASSES} for side runs, {ledger_passes} for the ledger); a layer off this workload's route reports 0"
    );
    println!("# run took {:.1} s", started.elapsed().as_secs_f64());
    Ok(finish(measured.merged, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Step;

    #[test]
    fn self_time_is_the_span_minus_children_and_clock_reads() {
        // 1 ms span; 1000 dist calls, 100 timed at 430 ns each with a 30 ns
        // clock read inside: 400 ns x 1000 = 0.4 ms of children, 200 reads.
        let work = OracleWork {
            dist_calls: 1_000,
            dist_timed: 100,
            dist_ns: 43_000,
            ..OracleWork::default()
        };
        let s = self_s(1_000_000, &work, 30.0);
        assert!((s - (1_000_000.0 - 400_000.0 - 6_000.0) / 1e9).abs() < 1e-15);
        // Never negative.
        assert_eq!(self_s(1_000, &work, 30.0), 0.0);
    }

    #[test]
    fn traced_sums_split_dispatch_from_fleet_movement() {
        let mut advance = Step::new(StepKind::Advance, 100, 0);
        advance.oracle = OracleWork {
            dist_calls: 1,
            dist_timed: 1,
            dist_ns: 10,
            path_calls: 2,
            path_ns: 50,
        };
        let mut submit = Step::new(StepKind::Submit, 300, 1);
        submit.oracle.dist_calls = 20;
        submit.oracle.dist_timed = 3;
        submit.oracle.dist_ns = 120;
        let mut min = StepMin::default();
        min.merge(&[advance, submit, Step::new(StepKind::Drain, 40, 0)])
            .unwrap();
        let t = TracedSums::of(&min);
        assert_eq!((t.dist_calls(), t.path_calls()), (21, 2));
        assert_eq!((t.dispatch_ns, t.dispatch.dist_timed), (300, 3));
        assert_eq!((t.advance_ns, t.advance.path_ns), (140, 50));
    }

    #[test]
    fn art_averages_the_buckets_at_or_above_a_load() {
        let mut stats = DispatchStats::default();
        stats.art_buckets.insert(0, (10, 10_000));
        stats.art_buckets.insert(4, (5, 50_000));
        stats.art_buckets.insert(6, (5, 150_000));
        assert!((art(&stats, 0) - 10.5).abs() < 1e-12);
        assert!((art(&stats, 4) - 20.0).abs() < 1e-12);
        assert_eq!(art(&stats, 9), 0.0);
    }
}
