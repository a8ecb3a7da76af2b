//! `rideshare-serve`: run the online dispatch service mode from the
//! command line.
//!
//! Generates a city + demand pool, then serves an open-loop arrival stream
//! (Poisson at `--rate`, or the pool's own timestamps compressed by
//! `--trace-speedup`) through the SLO-gated [`ServeLoop`], printing the
//! serve report as JSON to stdout or `--out`.

// The same determinism and panic policy as the library (src/lib.rs).
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::indexing_slicing)]

use std::io::Write;
use std::process::ExitCode;

use kinetic_core::FaultPlan;
use rideshare_serve::{
    resume_serve, PoissonArrivals, RecoveryConfig, ServeConfig, ServeLoop, ServiceModel, SloConfig,
    TraceArrivals,
};
use rideshare_sim::{SimConfig, Simulation};
use rideshare_workload::{CityConfig, DemandConfig, Workload};
use roadnet::CachedOracle;

const USAGE: &str = "\
rideshare-serve: online dispatch with SLO-gated admission

USAGE:
  rideshare-serve [OPTIONS]

ARRIVALS (pick one):
  --rate <req/s>          Poisson arrivals at this mean rate [default: 2.0]
  --trace-speedup <k>     replay the demand pool's own timestamps, k x faster

OPTIONS:
  --duration <s>          Poisson horizon in virtual seconds [default: 300]
  --tick <s>              dispatch tick length [default: 1.0]
  --queue-capacity <n>    bounded ingress queue size [default: 4096]
  --max-queue-wait <s>    stale-shed budget [default: 10.0]
  --slo-p99 <s>           p99 latency budget [default: 3.0]
  --fixed-cost <s>        deterministic per-request compute cost instead of
                          measured wall clock (tick overhead = 10x this)
  --city <name>           small | medium | ring | large [default: medium]
  --fleet <n>             vehicles [default: 200]
  --trips <n>             demand-pool size [default: 5000]
  --seed <n>              workload + arrival seed [default: 42]
  --out <path>            write the JSON report here instead of stdout
  --events <path>         write the per-event CSV trace here, one buffered
                          line per metric event (ignored in recoverable
                          mode)
  --fault-plan <spec>     seeded fault injection, e.g.
                          seed=7,spike=0.1:2.5,torn=0.5,kill=120
                          (kill= and torn= need --recover-dir)
  --recover-dir <path>    run crash-safe: write-ahead journal + checkpoints
                          in this directory
  --checkpoint-every <n>  ticks between checkpoints [default: 64]; needs
                          --recover-dir
  --recover               resume a killed run from --recover-dir instead of
                          starting fresh; needs --recover-dir
  --enforce-slo           exit non-zero when the run misses the SLO
  -h, --help              print this help
";

struct Args {
    rate: f64,
    trace_speedup: Option<f64>,
    duration: f64,
    tick: f64,
    queue_capacity: usize,
    max_queue_wait: f64,
    slo_p99: f64,
    fixed_cost: Option<f64>,
    city: String,
    fleet: usize,
    trips: usize,
    seed: u64,
    out: Option<String>,
    events: Option<String>,
    fault: FaultPlan,
    recover_dir: Option<String>,
    checkpoint_every: Option<u64>,
    recover: bool,
    enforce_slo: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            rate: 2.0,
            trace_speedup: None,
            duration: 300.0,
            tick: 1.0,
            queue_capacity: 4_096,
            max_queue_wait: 10.0,
            slo_p99: 3.0,
            fixed_cost: None,
            city: "medium".to_string(),
            fleet: 200,
            trips: 5_000,
            seed: 42,
            out: None,
            events: None,
            fault: FaultPlan::none(),
            recover_dir: None,
            checkpoint_every: None,
            recover: false,
            enforce_slo: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("{flag} expects a value\n\n{USAGE}"))
            };
            match flag.as_str() {
                "--rate" => args.rate = parse(&flag, &value()?)?,
                "--trace-speedup" => args.trace_speedup = Some(parse(&flag, &value()?)?),
                "--duration" => args.duration = parse(&flag, &value()?)?,
                "--tick" => args.tick = parse(&flag, &value()?)?,
                "--queue-capacity" => args.queue_capacity = parse(&flag, &value()?)?,
                "--max-queue-wait" => args.max_queue_wait = parse(&flag, &value()?)?,
                "--slo-p99" => args.slo_p99 = parse(&flag, &value()?)?,
                "--fixed-cost" => args.fixed_cost = Some(parse(&flag, &value()?)?),
                "--city" => args.city = value()?,
                "--fleet" => args.fleet = parse(&flag, &value()?)?,
                "--trips" => args.trips = parse(&flag, &value()?)?,
                "--seed" => args.seed = parse(&flag, &value()?)?,
                "--out" => args.out = Some(value()?),
                "--events" => args.events = Some(value()?),
                "--fault-plan" => args.fault = FaultPlan::parse(&value()?)?,
                "--recover-dir" => args.recover_dir = Some(value()?),
                "--checkpoint-every" => args.checkpoint_every = Some(parse(&flag, &value()?)?),
                "--recover" => args.recover = true,
                "--enforce-slo" => args.enforce_slo = true,
                "-h" | "--help" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
            }
        }
        // The tick and the arrival rates must be positive, or virtual time
        // never advances; every budget must at least be a finite number.
        let checks = [
            ("--tick", Some(args.tick), false),
            ("--rate", Some(args.rate), false),
            ("--trace-speedup", args.trace_speedup, false),
            ("--duration", Some(args.duration), true),
            ("--slo-p99", Some(args.slo_p99), true),
            ("--max-queue-wait", Some(args.max_queue_wait), true),
            ("--fixed-cost", args.fixed_cost, true),
        ];
        for (flag, value, zero_ok) in checks {
            let Some(v) = value else { continue };
            if !v.is_finite() || v < 0.0 || (v == 0.0 && !zero_ok) {
                let bound = if zero_ok { ">= 0" } else { "> 0" };
                return Err(format!("{flag} must be a finite number {bound}, got {v}"));
            }
        }
        // Crash safety lives in --recover-dir; without it these would be
        // silently ignored. The labels are built in-process, not through a
        // label store, so `store` would never fire at all.
        if args.fault.store_io_errors {
            return Err(
                "fault clause store needs a label store; the labels are built in-process"
                    .to_string(),
            );
        }
        if args.recover_dir.is_none() {
            let needs_dir = [
                ("--recover", args.recover),
                ("--checkpoint-every", args.checkpoint_every.is_some()),
                ("fault clause kill=", args.fault.kill_at_tick.is_some()),
                ("fault clause torn=", args.fault.torn_checkpoint_rate > 0.0),
            ];
            if let Some((what, _)) = needs_dir.iter().find(|(_, given)| *given) {
                return Err(format!("{what} needs --recover-dir"));
            }
        }
        Ok(args)
    }
}

fn parse<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag}: could not parse value {s:?}"))
}

fn city(name: &str) -> Result<CityConfig, String> {
    match name {
        "small" => Ok(CityConfig::small()),
        "medium" => Ok(CityConfig::medium()),
        "ring" => Ok(CityConfig::ring_city()),
        "large" => Ok(CityConfig::large()),
        other => Err(format!("unknown city {other:?} (small|medium|ring|large)")),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let city = match city(&args.city) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    eprintln!(
        "rideshare-serve: generating {} city with {} pool trips (seed {})...",
        args.city, args.trips, args.seed
    );
    let workload = Workload::generate(
        &city,
        &DemandConfig {
            trips: args.trips,
            ..DemandConfig::default()
        },
        args.seed,
    );
    eprintln!(
        "  network: {} nodes / {} edges; fleet {}",
        workload.network.node_count(),
        workload.network.edge_count(),
        args.fleet
    );
    let oracle = CachedOracle::new(&workload.network);
    let sim_config = SimConfig {
        vehicles: args.fleet,
        seed: args.seed,
        ..SimConfig::default()
    };
    let sim = Simulation::new(&workload.network, &oracle, sim_config);
    let slo = SloConfig {
        tick_seconds: args.tick,
        p99_budget_seconds: args.slo_p99,
        queue_capacity: args.queue_capacity,
        max_queue_wait_seconds: args.max_queue_wait,
        ..SloConfig::default()
    };
    let model = match args.fixed_cost {
        Some(c) => ServiceModel::Fixed {
            tick_overhead_s: 10.0 * c,
            per_request_s: c,
        },
        None => ServiceModel::Measured,
    };
    let cfg = ServeConfig {
        slo,
        model,
        record_batches: false,
        fault: args.fault,
    };
    let mut serve = ServeLoop::new(sim, cfg);

    let writer: Option<Box<dyn Write>> = match &args.events {
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => Some(Box::new(std::io::BufWriter::new(f))),
            Err(e) => {
                eprintln!("cannot create {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let arrivals: Box<dyn Iterator<Item = rideshare_workload::TripEvent>> = match args.trace_speedup
    {
        Some(k) => {
            eprintln!("  serving trace arrivals at {k}x speedup...");
            Box::new(TraceArrivals::new(&workload.trips, k))
        }
        None => {
            eprintln!(
                "  serving Poisson arrivals at {} req/s for {} s...",
                args.rate, args.duration
            );
            Box::new(PoissonArrivals::new(
                &workload.trips,
                args.rate,
                args.duration,
                args.seed,
            ))
        }
    };

    let report = match &args.recover_dir {
        Some(dir) => {
            if args.events.is_some() {
                eprintln!("  note: --events is ignored in recoverable mode");
            }
            let mut rc = RecoveryConfig::new(dir);
            rc.checkpoint_every_ticks = args.checkpoint_every.unwrap_or(rc.checkpoint_every_ticks);
            let outcome = if args.recover {
                eprintln!("  recovering from {dir}...");
                resume_serve(&workload.network, &oracle, sim_config, cfg, arrivals, &rc).map(Some)
            } else {
                eprintln!("  serving crash-safe (journal + checkpoints in {dir})...");
                serve.run_recoverable(arrivals, &rc)
            };
            match outcome {
                Ok(Some(report)) => report,
                Ok(None) => {
                    eprintln!(
                        "  run killed by fault plan; state saved in {dir} — rerun with \
                         --recover to resume"
                    );
                    return ExitCode::SUCCESS;
                }
                Err(e) => {
                    eprintln!("recovery IO failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => serve.run_with_writer(arrivals, writer),
    };

    let rate = args.trace_speedup.is_none().then_some(args.rate);
    let json = report.json_object(rate, "");
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, format!("{json}\n")) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("  report written to {path}");
        }
        None => println!("{json}"),
    }
    eprintln!(
        "  offered={} admitted={} shed={} p99={:.3}s violations={}",
        report.offered,
        report.admitted,
        report.shed(),
        report.latency.p99_s,
        report.guarantee_violations
    );

    if args.enforce_slo && !report.meets_slo(&slo) {
        eprintln!(
            "SLO MISSED: p99 {:.3}s vs budget {:.3}s, shed rate {:.4}, violations {}",
            report.latency.p99_s,
            slo.p99_budget_seconds,
            report.shed_rate(),
            report.guarantee_violations
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
