//! The paper's headline experiment, end to end: replay a full day of trip
//! requests (432,327 at `--scale paper`, matching Sec. VI's Shanghai
//! workload) through the kinetic-tree fleet, streaming per-window metrics
//! to a JSON artifact and checkpointing so a multi-hour run survives
//! interruption and resumes **bit-identically**.
//!
//! ```text
//! cargo run --release -p rideshare-bench --bin paper_replay -- --scale paper
//! cargo run --release -p rideshare-bench --bin paper_replay -- \
//!     --scale quick --max-trips 2000 --verify-resume   # the CI gate
//! ```
//!
//! * The distance oracle comes from the persisted label store
//!   ([`rideshare_bench::store`]): the first run builds and saves the hub
//!   labels, every later run reloads them in seconds. `--require-reloaded`
//!   turns the reload into a hard gate (CI uses it to prove the
//!   build-once/reload-forever path is exercised).
//! * Every `--checkpoint-every` requests the full simulation state is
//!   written (atomically) to `--checkpoint`; an interrupted run restarted
//!   with the same arguments resumes from it automatically. `--fresh`
//!   ignores an existing checkpoint.
//! * `BENCH_replay.json` is rewritten at every window boundary, so the
//!   artifact is inspectable *while* the replay runs: served rate, waiting
//!   latency percentiles and occupancy per [`Scale::window_seconds`]
//!   window (24 windows at every scale; hours of the simulated day at
//!   paper scale).
//! * `--max-trips N` truncates the stream so CI exercises the identical
//!   code path in seconds; `--verify-resume` additionally runs the
//!   interrupt-at-midpoint + resume experiment against a straight-through
//!   run and fails on any divergence in report, trace or fleet geometry.
//!
//! The process exits non-zero when any accepted request violated its
//! service guarantee (must never happen), when `--require-reloaded` or
//! `--verify-resume` fail, or when the label store round trip fails.

use std::time::Instant;

use kinetic_core::{KineticConfig, PlannerKind};
use rideshare_bench::store::{LabelSource, StoreReport};
use rideshare_bench::{parse_num, Experiment, Scale};
use rideshare_sim::checkpoint::digest_trips;
use rideshare_sim::{RequestTrace, SimConfig, Simulation};
use rideshare_workload::TripEvent;
use roadnet::CachedOracle;

struct Args {
    scale: Scale,
    seed: u64,
    max_trips: Option<usize>,
    fleet: Option<usize>,
    out: String,
    checkpoint: Option<String>,
    checkpoint_every: usize,
    fresh: bool,
    require_reloaded: bool,
    verify_resume: bool,
    /// Dispatch-tick width in seconds (0 = dispatch each request alone).
    batch_window: f64,
    /// Re-run a sampled prefix with pruning disabled and fail on any
    /// divergence from the pruned dispatcher.
    verify_pruning: bool,
    /// Fail the run when replay throughput (requests submitted by this
    /// process per wall second) lands below this floor.
    min_trips_per_sec: Option<f64>,
    /// Fail the run when the pruning win regresses: mean candidates
    /// actually evaluated per request must stay below this fraction of
    /// the mean candidates the grid filter returned.
    max_evaluated_fraction: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scale: Scale::Paper,
        seed: 42,
        max_trips: None,
        fleet: None,
        out: "BENCH_replay.json".to_string(),
        checkpoint: None,
        checkpoint_every: 10_000,
        fresh: false,
        require_reloaded: false,
        verify_resume: false,
        batch_window: 1.0,
        verify_pruning: false,
        min_trips_per_sec: None,
        max_evaluated_fraction: None,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" if i + 1 < argv.len() => {
                args.scale = Scale::parse(&argv[i + 1])
                    .ok_or_else(|| format!("unknown scale {:?}", argv[i + 1]))?;
                i += 1;
            }
            "--seed" if i + 1 < argv.len() => {
                args.seed = parse_num("--seed", &argv[i + 1])?;
                i += 1;
            }
            "--max-trips" if i + 1 < argv.len() => {
                args.max_trips = Some(parse_num("--max-trips", &argv[i + 1])?);
                i += 1;
            }
            "--fleet" if i + 1 < argv.len() => {
                args.fleet = Some(parse_num("--fleet", &argv[i + 1])?);
                i += 1;
            }
            "--out" if i + 1 < argv.len() => {
                args.out = argv[i + 1].clone();
                i += 1;
            }
            "--checkpoint" if i + 1 < argv.len() => {
                args.checkpoint = Some(argv[i + 1].clone());
                i += 1;
            }
            "--checkpoint-every" if i + 1 < argv.len() => {
                args.checkpoint_every =
                    parse_num::<usize>("--checkpoint-every", &argv[i + 1])?.max(1);
                i += 1;
            }
            "--batch-window" if i + 1 < argv.len() => {
                args.batch_window = parse_num::<f64>("--batch-window", &argv[i + 1])?.max(0.0);
                i += 1;
            }
            "--min-trips-per-sec" if i + 1 < argv.len() => {
                args.min_trips_per_sec = Some(parse_num("--min-trips-per-sec", &argv[i + 1])?);
                i += 1;
            }
            "--max-evaluated-fraction" if i + 1 < argv.len() => {
                args.max_evaluated_fraction =
                    Some(parse_num("--max-evaluated-fraction", &argv[i + 1])?);
                i += 1;
            }
            "--fresh" => args.fresh = true,
            "--require-reloaded" => args.require_reloaded = true,
            "--verify-resume" => args.verify_resume = true,
            "--verify-pruning" => args.verify_pruning = true,
            other => {
                return Err(format!(
                    "unknown argument {other:?} (expected --scale smoke|quick|paper, --seed N, \
                     --max-trips N, --fleet N, --out PATH, --checkpoint PATH, \
                     --checkpoint-every N, --batch-window SECONDS, --min-trips-per-sec X, \
                     --max-evaluated-fraction X, --fresh, --require-reloaded, \
                     --verify-resume, --verify-pruning)"
                ))
            }
        }
        i += 1;
    }
    Ok(args)
}

/// One metrics window, derived from the simulation's cumulative state (so
/// it can be recomputed identically after a resume).
struct Window {
    start_s: f64,
    submitted: u64,
    assigned: u64,
    rejected: u64,
    pickups: usize,
    wait_p50_s: f64,
    wait_p90_s: f64,
    wait_p99_s: f64,
    mean_onboard_after_pickup: f64,
    delivered: usize,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Buckets everything observed so far into `Scale::WINDOWS_PER_RUN`
/// windows of the demand span. Stateless with respect to interruption:
/// only cumulative, checkpointed state is consulted.
fn windows(sim: &Simulation<'_>, scale: Scale) -> Vec<Window> {
    let window_s = scale.window_seconds();
    let count = Scale::WINDOWS_PER_RUN;
    let bucket = |t: f64| ((t / window_s) as usize).min(count - 1);
    let mut submitted = vec![0u64; count];
    let mut assigned = vec![0u64; count];
    let mut rejected = vec![0u64; count];
    let mut delivered = vec![0usize; count];
    for t in sim.trace().iter() {
        let w = bucket(t.submitted_s);
        submitted[w] += 1;
        if t.was_assigned() {
            assigned[w] += 1;
        } else {
            rejected[w] += 1;
        }
        if let Some(d) = t.delivered_s {
            delivered[bucket(d)] += 1;
        }
    }
    let mut waits: Vec<Vec<f64>> = vec![Vec::new(); count];
    let mut onboard = vec![0usize; count];
    for p in sim.pickups() {
        let w = bucket(p.clock_s);
        waits[w].push(p.waited_s);
        onboard[w] += p.onboard;
    }
    (0..count)
        .map(|w| {
            let mut ws = waits[w].clone();
            ws.sort_by(|a, b| a.partial_cmp(b).unwrap());
            Window {
                start_s: w as f64 * window_s,
                submitted: submitted[w],
                assigned: assigned[w],
                rejected: rejected[w],
                pickups: ws.len(),
                wait_p50_s: percentile(&ws, 0.50),
                wait_p90_s: percentile(&ws, 0.90),
                wait_p99_s: percentile(&ws, 0.99),
                mean_onboard_after_pickup: if ws.is_empty() {
                    0.0
                } else {
                    onboard[w] as f64 / ws.len() as f64
                },
                delivered: delivered[w],
            }
        })
        .collect()
}

struct RunState {
    checkpoints_written: usize,
    resumed_from: Option<usize>,
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &str,
    args: &Args,
    config: &SimConfig,
    trips: usize,
    sim: &Simulation<'_>,
    oracle_report: Option<&StoreReport>,
    run: &RunState,
    wall_s: f64,
    trips_per_second: f64,
    finished: bool,
    resume_identical: Option<bool>,
) {
    let report = sim.report();
    let ws = windows(sim, args.scale);
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"bench_replay/v1\",\n");
    json.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        format!("{:?}", args.scale).to_lowercase()
    ));
    json.push_str(&format!("  \"seed\": {},\n", args.seed));
    json.push_str(&format!("  \"trips\": {trips},\n"));
    json.push_str(&format!("  \"fleet\": {},\n", config.vehicles));
    json.push_str(&format!("  \"capacity\": {},\n", config.capacity));
    json.push_str(&format!(
        "  \"batch_window_s\": {:.1},\n",
        config.batch_window_seconds
    ));
    json.push_str(&format!("  \"finished\": {finished},\n"));
    json.push_str(&format!("  \"wall_clock_s\": {wall_s:.1},\n"));
    match oracle_report {
        Some(r) => json.push_str(&format!(
            "  \"oracle\": {{\"source\": \"{}\", \"fingerprint\": \"{:016x}\", \
             \"build_ms\": {:.1}, \"load_ms\": {:.1}, \"bytes\": {}, \
             \"roundtrip_verified\": {}}},\n",
            match r.source {
                LabelSource::Built => "built",
                LabelSource::Reloaded => "reloaded",
            },
            r.fingerprint,
            r.build_ms,
            r.load_ms,
            r.bytes,
            r.roundtrip_verified,
        )),
        None => json.push_str("  \"oracle\": {\"source\": \"dijkstra\"},\n"),
    }
    json.push_str(&format!(
        "  \"checkpoints\": {{\"written\": {}, \"every_requests\": {}, \"resumed_from_request\": {}}},\n",
        run.checkpoints_written,
        args.checkpoint_every,
        run.resumed_from
            .map_or("null".to_string(), |n| n.to_string()),
    ));
    json.push_str(&format!(
        "  \"totals\": {{\"requests\": {}, \"assigned\": {}, \"rejected\": {}, \
         \"served_rate\": {:.4}, \"completed\": {}, \"guarantee_violations\": {}, \
         \"acrt_ms\": {:.3}, \"mean_wait_s\": {:.1}, \"mean_detour_ratio\": {:.4}, \
         \"mean_candidates\": {:.1}, \"mean_candidates_evaluated\": {:.1}, \
         \"trips_per_second\": {:.2}, \"fleet_distance_km\": {:.1}, \
         \"distance_per_delivery_km\": {:.3}, \"occupancy_max\": {}, \
         \"occupancy_mean_of_max\": {:.2}, \"occupancy_top20_mean\": {:.2}, \
         \"mean_onboard_at_pickup\": {:.2}, \"span_s\": {:.0}}},\n",
        report.requests,
        report.assigned,
        report.rejected,
        report.service_rate(),
        report.completed,
        report.guarantee_violations,
        report.acrt_ms,
        report.mean_wait_seconds,
        report.mean_detour_ratio,
        report.mean_candidates,
        report.mean_candidates_evaluated,
        trips_per_second,
        report.fleet_distance_km,
        report.distance_per_delivery_km,
        report.occupancy.fleet_max,
        report.occupancy.mean_of_max,
        report.occupancy.top20_mean_of_max,
        report.occupancy.mean_at_pickup,
        report.span_seconds,
    ));
    json.push_str(&format!(
        "  \"resume_identical\": {},\n",
        resume_identical.map_or("null".to_string(), |b| b.to_string())
    ));
    json.push_str("  \"windows\": [\n");
    for (i, w) in ws.iter().enumerate() {
        let served = if w.submitted == 0 {
            0.0
        } else {
            w.assigned as f64 / w.submitted as f64
        };
        json.push_str(&format!(
            "    {{\"start_s\": {:.0}, \"submitted\": {}, \"assigned\": {}, \"rejected\": {}, \
             \"served_rate\": {:.4}, \"pickups\": {}, \"wait_p50_s\": {:.1}, \
             \"wait_p90_s\": {:.1}, \"wait_p99_s\": {:.1}, \"mean_onboard\": {:.2}, \
             \"delivered\": {}}}{}\n",
            w.start_s,
            w.submitted,
            w.assigned,
            w.rejected,
            served,
            w.pickups,
            w.wait_p50_s,
            w.wait_p90_s,
            w.wait_p99_s,
            w.mean_onboard_after_pickup,
            w.delivered,
            if i + 1 == ws.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(2);
    }
}

/// Deterministic observables for the `--verify-resume` comparison.
fn observables(sim: &Simulation<'_>) -> (Vec<u64>, Vec<RequestTrace>, Vec<u32>) {
    let r = sim.report();
    (
        vec![
            r.requests,
            r.assigned,
            r.rejected,
            r.completed,
            r.guarantee_violations,
            r.mean_wait_seconds.to_bits(),
            r.mean_detour_ratio.to_bits(),
            r.fleet_distance_km.to_bits(),
            r.mean_candidates.to_bits(),
            r.occupancy.fleet_max as u64,
            r.occupancy.mean_at_pickup.to_bits(),
        ],
        sim.trace().iter().copied().collect(),
        sim.vehicles().iter().map(|v| v.location()).collect(),
    )
}

/// Drives `sim` over `trips[next..]`, checkpointing and re-writing the
/// JSON artifact along the way.
#[allow(clippy::too_many_arguments)]
fn drive(
    sim: &mut Simulation<'_>,
    trips: &[TripEvent],
    mut next: usize,
    digest: u64,
    args: &Args,
    config: &SimConfig,
    oracle_report: Option<&StoreReport>,
    run: &mut RunState,
    started: Instant,
) -> usize {
    let window_s = args.scale.window_seconds();
    let mut next_flush_window = 1 + (sim.clock_seconds() / window_s) as usize;
    let start = next;
    submit_windows(sim, &trips[start..], |sim, submitted| {
        let end = start + submitted;
        // Checkpoints land on dispatch-tick boundaries: the batch that
        // crosses a `checkpoint_every` multiple triggers the write, so a
        // resumed run re-groups the remaining trips into exactly the
        // batches the interrupted run would have formed.
        let crossed = next / args.checkpoint_every != end / args.checkpoint_every;
        next = end;
        if sim.clock_seconds() >= next_flush_window as f64 * window_s {
            next_flush_window = 1 + (sim.clock_seconds() / window_s) as usize;
            let wall = started.elapsed().as_secs_f64();
            write_json(
                &args.out,
                args,
                config,
                trips.len(),
                sim,
                oracle_report,
                run,
                wall,
                (next - start) as f64 / wall.max(1e-9),
                false,
                None,
            );
            eprintln!(
                "[{:6.0} s wall] window {} | {} / {} requests submitted | {}",
                wall,
                next_flush_window - 1,
                next,
                trips.len(),
                sim.report().summary_line()
            );
        }
        if crossed {
            if let Some(path) = &args.checkpoint {
                match sim.write_checkpoint(path, next, digest) {
                    Ok(()) => run.checkpoints_written += 1,
                    Err(e) => eprintln!("checkpoint write failed ({e}); continuing"),
                }
            }
        }
    });
    next
}

/// Submits `trips` to `sim` one dispatch tick at a time — consecutive
/// trips sharing a `floor(t / batch_window)` bucket, or one trip per tick
/// when batching is off — advancing the fleet to each tick's last trip
/// first, as [`Simulation::run`] does. After each tick, `after` gets the
/// number of trips submitted so far.
fn submit_windows<'a>(
    sim: &mut Simulation<'a>,
    trips: &[TripEvent],
    mut after: impl FnMut(&mut Simulation<'a>, usize),
) {
    let window = sim.config().batch_window_seconds;
    let bucket = |t: &TripEvent| (t.time_seconds / window).floor();
    let mut submitted = 0;
    for batch in trips.chunk_by(|a, b| window > 0.0 && bucket(a) == bucket(b)) {
        let t_m = sim
            .config()
            .seconds_to_meters(batch[batch.len() - 1].time_seconds);
        sim.advance_all(t_m);
        sim.submit_batch(batch);
        submitted += batch.len();
        after(sim, submitted);
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    let started = Instant::now();
    eprintln!(
        "paper_replay: generating {:?}-scale workload (seed {})...",
        args.scale, args.seed
    );
    let exp = Experiment::new(args.scale, args.seed);
    let trip_count = args
        .max_trips
        .unwrap_or(usize::MAX)
        .min(exp.workload.trips.len());
    let trips = &exp.workload.trips[..trip_count];
    eprintln!(
        "  network: {} nodes / {} edges; replaying {} of {} trips",
        exp.workload.network.node_count(),
        exp.workload.network.edge_count(),
        trips.len(),
        exp.workload.trips.len(),
    );

    let (oracle, oracle_report) = exp.oracle_with_report(args.scale);
    if args.require_reloaded {
        match &oracle_report {
            Some(r) if r.source == LabelSource::Reloaded => {
                eprintln!("  oracle: reloaded from store in {:.0} ms ✓", r.load_ms)
            }
            Some(r) => {
                eprintln!(
                    "FAIL: --require-reloaded but the labels were {:?} (store path {})",
                    r.source,
                    r.path.display()
                );
                std::process::exit(1);
            }
            None => {
                eprintln!("FAIL: --require-reloaded at a scale that does not use hub labels");
                std::process::exit(1);
            }
        }
    }
    if let Some(r) = &oracle_report {
        if !r.roundtrip_verified {
            eprintln!("FAIL: label store round trip was not verified");
            std::process::exit(1);
        }
    }

    let config = SimConfig {
        vehicles: args.fleet.unwrap_or_else(|| args.scale.default_fleet()),
        capacity: 4,
        planner: PlannerKind::Kinetic(KineticConfig::slack()),
        cruise_when_idle: true,
        seed: args.seed,
        batch_window_seconds: args.batch_window,
        ..SimConfig::default()
    };

    if args.verify_pruning && !verify_pruning(&exp, &oracle, config, trips) {
        eprintln!("FAIL: pruned dispatch diverged from exhaustive evaluation");
        std::process::exit(1);
    }
    let digest = digest_trips(trips);
    let checkpoint_path = args.checkpoint.clone().unwrap_or_else(|| {
        format!(
            "target/replay-{}-seed{}.ckpt",
            format!("{:?}", args.scale).to_lowercase(),
            args.seed
        )
    });
    let args = Args {
        checkpoint: Some(checkpoint_path.clone()),
        ..args
    };
    let mut run = RunState {
        checkpoints_written: 0,
        resumed_from: None,
    };

    // --verify-resume: the interrupt-at-midpoint + resume experiment IS
    // the run. The resumed simulation (proven bit-identical to the
    // straight-through reference) produces the artifact, so the replay is
    // not paid a third time.
    if args.verify_resume {
        let Some((sim, cut)) = verify_resume(&exp, &oracle, config, trips, digest, &args) else {
            eprintln!("FAIL: resumed run diverged from the straight-through run");
            std::process::exit(1);
        };
        let run = RunState {
            checkpoints_written: 1,
            resumed_from: Some(cut),
        };
        // Conservative figure: the verify experiment replays the stream
        // ~2.5×, but only the resumed tail is credited.
        let wall = started.elapsed().as_secs_f64();
        finish(
            &sim,
            &args,
            &config,
            trips.len(),
            oracle_report.as_ref(),
            &run,
            wall,
            (trips.len() - cut) as f64 / wall.max(1e-9),
            Some(true),
        );
        return;
    }

    // Main replay: resume from an existing checkpoint unless --fresh.
    let (mut sim, next) = if !args.fresh && std::path::Path::new(&checkpoint_path).is_file() {
        match Simulation::resume_from_file(
            &exp.workload.network,
            &oracle,
            config,
            trips,
            &checkpoint_path,
        ) {
            Ok((sim, next)) => {
                eprintln!(
                    "  resumed from {} at request {next}/{}",
                    checkpoint_path,
                    trips.len()
                );
                run.resumed_from = Some(next);
                (sim, next)
            }
            Err(e) => {
                eprintln!("  checkpoint {checkpoint_path} not usable ({e}); starting fresh");
                (Simulation::new(&exp.workload.network, &oracle, config), 0)
            }
        }
    } else {
        (Simulation::new(&exp.workload.network, &oracle, config), 0)
    };

    let submitted = drive(
        &mut sim,
        trips,
        next,
        digest,
        &args,
        &config,
        oracle_report.as_ref(),
        &mut run,
        started,
    );
    eprintln!(
        "[{:6.0} s wall] all {} requests submitted; draining committed stops...",
        started.elapsed().as_secs_f64(),
        submitted
    );
    sim.drain();
    let wall = started.elapsed().as_secs_f64();
    finish(
        &sim,
        &args,
        &config,
        trips.len(),
        oracle_report.as_ref(),
        &run,
        wall,
        (submitted - next) as f64 / wall.max(1e-9),
        None,
    );
}

/// Final artifact write + gates shared by the normal and `--verify-resume`
/// paths. Exits non-zero on a guarantee violation.
#[allow(clippy::too_many_arguments)]
fn finish(
    sim: &Simulation<'_>,
    args: &Args,
    config: &SimConfig,
    trips: usize,
    oracle_report: Option<&StoreReport>,
    run: &RunState,
    wall_s: f64,
    trips_per_second: f64,
    resume_identical: Option<bool>,
) {
    write_json(
        &args.out,
        args,
        config,
        trips,
        sim,
        oracle_report,
        run,
        wall_s,
        trips_per_second,
        true,
        resume_identical,
    );
    let report = sim.report();
    eprintln!("wrote {}", args.out);
    eprintln!(
        "replay finished in {wall_s:.0} s wall ({trips_per_second:.1} trips/s, \
         {:.1} of {:.1} candidates evaluated per request): {}",
        report.mean_candidates_evaluated,
        report.mean_candidates,
        report.summary_line()
    );

    if report.guarantee_violations > 0 {
        eprintln!(
            "FAIL: {} accepted requests violated their service guarantee",
            report.guarantee_violations
        );
        std::process::exit(1);
    }
    if let Some(floor) = args.min_trips_per_sec {
        if trips_per_second < floor {
            eprintln!(
                "FAIL: replay throughput {trips_per_second:.2} trips/s is below the \
                 --min-trips-per-sec floor {floor:.2}"
            );
            std::process::exit(1);
        }
        eprintln!("OK: {trips_per_second:.1} trips/s clears the {floor:.1} trips/s floor");
    }
    if let Some(cap) = args.max_evaluated_fraction {
        let fraction = if report.mean_candidates > 0.0 {
            report.mean_candidates_evaluated / report.mean_candidates
        } else {
            0.0
        };
        if fraction > cap {
            eprintln!(
                "FAIL: {:.1} of {:.1} candidates evaluated per request ({fraction:.3}) \
                 exceeds the --max-evaluated-fraction cap {cap:.3} — the pruning win regressed",
                report.mean_candidates_evaluated, report.mean_candidates,
            );
            std::process::exit(1);
        }
        eprintln!(
            "OK: evaluated fraction {fraction:.4} ({:.1} of {:.1} candidates) is under the \
             {cap:.3} cap",
            report.mean_candidates_evaluated, report.mean_candidates,
        );
    }
    eprintln!(
        "OK: zero guarantee violations over {} requests{}{}",
        report.requests,
        if args.require_reloaded {
            "; persisted-oracle reload path exercised"
        } else {
            ""
        },
        if resume_identical == Some(true) {
            "; interrupt+resume bit-identical to straight-through"
        } else {
            ""
        },
    );
}

/// The `--verify-resume` experiment: straight-through vs
/// interrupt-at-midpoint + resume, compared on every deterministic
/// observable. On success returns the finished *resumed* simulation and
/// the interruption point — it is bit-identical to the straight-through
/// run, so the caller uses it directly for the artifact instead of
/// replaying a third time.
fn verify_resume<'a>(
    exp: &'a Experiment,
    oracle: &'a CachedOracle<'a>,
    config: SimConfig,
    trips: &'a [TripEvent],
    digest: u64,
    args: &Args,
) -> Option<(Simulation<'a>, usize)> {
    eprintln!("verify-resume: straight-through reference run...");
    let run_tail = |sim: &mut Simulation<'_>, from: usize| {
        submit_windows(sim, &trips[from..], |_, _| {});
        sim.drain();
    };
    let mut straight = Simulation::new(&exp.workload.network, oracle, config);
    run_tail(&mut straight, 0);
    let expect = observables(&straight);
    drop(straight);

    // The interruption must land on a dispatch-tick boundary, like every
    // real checkpoint, so the resumed run re-forms the same batches.
    let mut cut = trips.len() / 2;
    if config.batch_window_seconds > 0.0 {
        while cut > 0 && cut < trips.len() {
            let bucket = |i: usize| (trips[i].time_seconds / config.batch_window_seconds).floor();
            if bucket(cut - 1) == bucket(cut) {
                cut += 1;
            } else {
                break;
            }
        }
    }
    eprintln!("verify-resume: interrupting at request {cut}, then resuming...");
    let mut interrupted = Simulation::new(&exp.workload.network, oracle, config);
    submit_windows(&mut interrupted, &trips[..cut], |_, _| {});
    let ckpt = args
        .checkpoint
        .clone()
        .unwrap_or_else(|| "target/replay-verify.ckpt".to_string())
        + ".verify";
    if let Err(e) = interrupted.write_checkpoint(&ckpt, cut, digest) {
        eprintln!("verify-resume: checkpoint write failed: {e}");
        return None;
    }
    drop(interrupted);
    let resumed = Simulation::resume_from_file(&exp.workload.network, oracle, config, trips, &ckpt);
    std::fs::remove_file(&ckpt).ok();
    let (mut resumed, next) = match resumed {
        Ok(v) => v,
        Err(e) => {
            eprintln!("verify-resume: resume failed: {e}");
            return None;
        }
    };
    if next != cut {
        eprintln!("verify-resume: resumed at {next}, expected {cut}");
        return None;
    }
    run_tail(&mut resumed, next);
    let got = observables(&resumed);
    let ok = got == expect;
    if !ok {
        if got.0 != expect.0 {
            eprintln!(
                "verify-resume: report diverged\n  straight: {:?}\n  resumed:  {:?}",
                expect.0, got.0
            );
        }
        if got.1 != expect.1 {
            let first = got
                .1
                .iter()
                .zip(expect.1.iter())
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            eprintln!("verify-resume: traces diverged first at entry {first}");
        }
        if got.2 != expect.2 {
            eprintln!("verify-resume: final fleet geometry diverged");
        }
    } else {
        eprintln!(
            "verify-resume: OK — resumed run bit-identical over {} requests",
            trips.len()
        );
    }
    ok.then_some((resumed, cut))
}

/// The `--verify-pruning` experiment: replay a sampled prefix of the
/// stream twice — slack-pruned best-first dispatch (the default) vs
/// exhaustive candidate evaluation — and compare every deterministic
/// observable (report counters, full per-request trace, final fleet
/// geometry). The pruned dispatcher is designed to be assignment-identical
/// (the kinetic-core proptests sweep random networks, planners and worker
/// counts); this gate re-proves it on the actual replay workload and
/// oracle.
fn verify_pruning(
    exp: &Experiment,
    oracle: &CachedOracle<'_>,
    config: SimConfig,
    trips: &[TripEvent],
) -> bool {
    let prefix = trips.len().min(500);
    let trips = &trips[..prefix];
    eprintln!("verify-pruning: replaying a {prefix}-trip prefix pruned and exhaustively...");
    let run = |config: SimConfig| {
        let mut sim = Simulation::new(&exp.workload.network, oracle, config);
        submit_windows(&mut sim, trips, |_, _| {});
        sim.drain();
        observables(&sim)
    };
    let pruned = run(config);
    let mut exhaustive_config = config;
    exhaustive_config.dispatcher.use_pruning = false;
    let exhaustive = run(exhaustive_config);
    let ok = pruned == exhaustive;
    if !ok {
        if pruned.0 != exhaustive.0 {
            eprintln!(
                "verify-pruning: report diverged\n  exhaustive: {:?}\n  pruned:     {:?}",
                exhaustive.0, pruned.0
            );
        }
        if pruned.1 != exhaustive.1 {
            let first = pruned
                .1
                .iter()
                .zip(exhaustive.1.iter())
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            eprintln!("verify-pruning: traces diverged first at entry {first}");
        }
        if pruned.2 != exhaustive.2 {
            eprintln!("verify-pruning: final fleet geometry diverged");
        }
    } else {
        eprintln!("verify-pruning: OK — pruned dispatch bit-identical over {prefix} requests");
    }
    ok
}
