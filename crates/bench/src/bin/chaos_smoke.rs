//! `chaos_smoke`: the deterministic fault-injection gate CI runs.
//!
//! Drives the serve stack through a fixed ladder of seeded fault plans
//! under the synthetic [`ServiceModel::Fixed`] cost model (so every run is
//! reproducible bit-for-bit) and gates on the robustness contracts the
//! fault layer promises:
//!
//! 1. **Exact accounting under faults** — oracle latency spikes and torn
//!    checkpoint writes may degrade service, but `offered = admitted +
//!    shed` and `admitted = assigned + rejected` hold to the request, and
//!    the service guarantee is never violated.
//! 2. **Graceful degradation** — overload trips the planner-effort ladder
//!    (degraded ticks are observed) instead of blowing the run up, and
//!    every dispatch tick is attributed to exactly one effort level.
//! 3. **Crash-safe recovery** — a run killed mid-day by the fault plan
//!    resumes from (checkpoint + journal) to the bit-identical report of
//!    an uninterrupted run.
//! 4. **Store fallback** — an injected label-store IO fault degrades to a
//!    rebuild with the reason surfaced, never a panic.
//!
//! Writes `BENCH_chaos.json` (schema `bench_chaos/v1`); exits non-zero on
//! any gate failure.

use std::process::ExitCode;
use std::time::Instant;

use kinetic_core::FaultPlan;
use rideshare_bench::store;
use rideshare_serve::{
    resume_serve, PoissonArrivals, RecoveryConfig, ServeConfig, ServeLoop, ServeReport,
    ServiceModel, SloConfig,
};
use rideshare_sim::{SimConfig, Simulation};
use rideshare_workload::{CityConfig, DemandConfig, Workload};
use roadnet::CachedOracle;

const USAGE: &str = "\
chaos_smoke: deterministic fault-injection gate over the serve stack

USAGE:
  chaos_smoke [--out <path>] [--seed <n>]

OPTIONS:
  --out <path>   artifact path [default: BENCH_chaos.json]
  --seed <n>     workload + arrival seed [default: 42]
  -h, --help     print this help
";

struct Args {
    out: String,
    seed: u64,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            out: "BENCH_chaos.json".to_string(),
            seed: 42,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .ok_or_else(|| format!("{name} expects a value\n\n{USAGE}"))
            };
            match flag.as_str() {
                "--out" => args.out = value("--out")?,
                "--seed" => {
                    args.seed = value("--seed")?
                        .parse()
                        .map_err(|_| "could not parse --seed".to_string())?
                }
                "-h" | "--help" => return Err(USAGE.to_string()),
                other => return Err(format!("unknown flag {other}\n\n{USAGE}")),
            }
        }
        Ok(args)
    }
}

const FLEET: usize = 15;
const POOL_TRIPS: usize = 200;
const DURATION_S: f64 = 60.0;

fn slo() -> SloConfig {
    SloConfig {
        queue_capacity: 256,
        max_queue_wait_seconds: 8.0,
        degrade_compute_budget_seconds: 0.1,
        recover_healthy_ticks: 2,
        ..SloConfig::default()
    }
}

fn serve_config(fault: FaultPlan) -> ServeConfig {
    ServeConfig {
        slo: slo(),
        // Synthetic cost model: the whole gate is a pure function of the
        // seeds, so a failure is always reproducible locally.
        model: ServiceModel::Fixed {
            tick_overhead_s: 0.02,
            per_request_s: 0.01,
        },
        record_batches: false,
        fault,
    }
}

fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        vehicles: FLEET,
        seed,
        ..SimConfig::default()
    }
}

/// The accounting contracts every rung must keep, faults or not.
fn gate_accounting(name: &str, r: &ServeReport) -> Result<(), String> {
    if r.offered != r.admitted + r.shed_queue_full + r.shed_stale {
        return Err(format!(
            "{name}: offered {} != admitted {} + shed {}",
            r.offered,
            r.admitted,
            r.shed()
        ));
    }
    if r.admitted != r.assigned + r.rejected {
        return Err(format!(
            "{name}: admitted {} != assigned {} + rejected {}",
            r.admitted, r.assigned, r.rejected
        ));
    }
    if r.dispatch_full + r.dispatch_slack_pruned + r.dispatch_greedy != r.dispatch_ticks {
        return Err(format!(
            "{name}: per-level dispatch counts do not sum to dispatch_ticks"
        ));
    }
    if r.guarantee_violations != 0 {
        return Err(format!(
            "{name}: {} service-guarantee violations under faults",
            r.guarantee_violations
        ));
    }
    Ok(())
}

fn run_rung(
    workload: &Workload,
    oracle: &CachedOracle,
    seed: u64,
    rate: f64,
    duration_s: f64,
    fault: FaultPlan,
) -> ServeReport {
    let sim = Simulation::new(&workload.network, oracle, sim_config(seed));
    let mut serve = ServeLoop::new(sim, serve_config(fault));
    serve.run(PoissonArrivals::new(
        &workload.trips,
        rate,
        duration_s,
        seed,
    ))
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let wall = Instant::now();
    eprintln!(
        "chaos_smoke: small city, {POOL_TRIPS} pool trips, fleet {FLEET}, seed {}",
        args.seed
    );
    let workload = Workload::generate(
        &CityConfig::small(),
        &DemandConfig {
            trips: POOL_TRIPS,
            ..DemandConfig::default()
        },
        args.seed,
    );
    let oracle = CachedOracle::new(&workload.network);

    // ---- Fault ladder: calm, faulted, overloaded -------------------------
    let fault_spec = "seed=7,spike=0.15:1.0,torn=0.5";
    let faults = match FaultPlan::parse(fault_spec) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("chaos_smoke: bad fault spec: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The overload rung compresses the calm rung's request volume into a
    // third of the horizon: every dispatch batch blows the compute budget,
    // so the ladder must trip, while total admitted work stays bounded
    // (the small fleet cannot absorb a *larger* volume without schedule
    // lengths — and kinetic-insertion cost — exploding).
    let rungs: Vec<(&str, &str, f64, f64, FaultPlan)> = vec![
        ("calm", "none", 4.0, DURATION_S, FaultPlan::none()),
        ("faulted", fault_spec, 4.0, DURATION_S, faults),
        ("overload", fault_spec, 12.0, DURATION_S / 3.0, faults),
    ];
    let mut reports: Vec<(&str, &str, f64, ServeReport)> = Vec::new();
    for &(name, spec, rate, duration_s, fault) in &rungs {
        let report = run_rung(&workload, &oracle, args.seed, rate, duration_s, fault);
        eprintln!(
            "  rung {name:<9} rate {rate:>5.1} | offered {:>5} shed {:>4} | degraded {:>3} ticks \
             (full {}/pruned {}/greedy {}) | spikes {:>3} | violations {}",
            report.offered,
            report.shed(),
            report.degraded_ticks,
            report.dispatch_full,
            report.dispatch_slack_pruned,
            report.dispatch_greedy,
            report.fault_oracle_spikes,
            report.guarantee_violations,
        );
        if let Err(msg) = gate_accounting(name, &report) {
            eprintln!("chaos_smoke: GATE FAILED: {msg}");
            return ExitCode::FAILURE;
        }
        reports.push((name, spec, rate, report));
    }
    // The faulted rung must actually have injected something, and the
    // overloaded rung must have tripped the degradation ladder — otherwise
    // the gate is vacuous.
    if reports[1].3.fault_oracle_spikes == 0 {
        eprintln!("chaos_smoke: GATE FAILED: faulted rung injected nothing");
        return ExitCode::FAILURE;
    }
    if reports[2].3.degraded_ticks == 0 {
        eprintln!("chaos_smoke: GATE FAILED: overload rung never degraded");
        return ExitCode::FAILURE;
    }
    if reports[0].3.degraded_ticks != 0 {
        eprintln!("chaos_smoke: GATE FAILED: calm rung degraded");
        return ExitCode::FAILURE;
    }

    // ---- Kill / recover equivalence --------------------------------------
    let every = 8;
    let kill_tick = 25;
    let rec_base = std::path::PathBuf::from("target").join("chaos-smoke");
    let ref_rc = RecoveryConfig {
        dir: rec_base.join("reference"),
        checkpoint_every_ticks: every,
    };
    let kill_rc = RecoveryConfig {
        dir: rec_base.join("killed"),
        checkpoint_every_ticks: every,
    };
    let run_recoverable = |fault: FaultPlan, rc: &RecoveryConfig| {
        let sim = Simulation::new(&workload.network, &oracle, sim_config(args.seed));
        let mut serve = ServeLoop::new(sim, serve_config(fault));
        serve.run_recoverable(
            PoissonArrivals::new(&workload.trips, 4.0, DURATION_S, args.seed),
            rc,
        )
    };
    let reference = match run_recoverable(faults, &ref_rc) {
        Ok(Some(r)) => r,
        Ok(None) => unreachable!("no kill configured"),
        Err(e) => {
            eprintln!("chaos_smoke: reference recoverable run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let killer = FaultPlan {
        kill_at_tick: Some(kill_tick),
        ..faults
    };
    match run_recoverable(killer, &kill_rc) {
        Ok(None) => {}
        Ok(Some(_)) => {
            eprintln!("chaos_smoke: GATE FAILED: kill at tick {kill_tick} never fired");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("chaos_smoke: killed run failed before the kill: {e}");
            return ExitCode::FAILURE;
        }
    }
    let mut recovered = match resume_serve(
        &workload.network,
        &oracle,
        sim_config(args.seed),
        serve_config(killer),
        PoissonArrivals::new(&workload.trips, 4.0, DURATION_S, args.seed),
        &kill_rc,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chaos_smoke: GATE FAILED: recovery failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !recovered.recovered {
        eprintln!("chaos_smoke: GATE FAILED: resumed report not marked recovered");
        return ExitCode::FAILURE;
    }
    recovered.recovered = false;
    let recovery_matched = recovered == reference;
    if !recovery_matched {
        eprintln!(
            "chaos_smoke: GATE FAILED: recovered run diverged from the uninterrupted \
             reference\n  reference: {reference:?}\n  recovered: {recovered:?}"
        );
        return ExitCode::FAILURE;
    }
    eprintln!(
        "  recovery: killed at tick {kill_tick}, resumed from checkpoint+journal, \
         report bit-identical to uninterrupted run"
    );

    // ---- Store fault fallback --------------------------------------------
    std::env::set_var(
        store::CACHE_DIR_ENV,
        rec_base.join("label-cache").as_os_str(),
    );
    // Prime the cache, then prove the injected IO fault degrades to a
    // rebuild with the reason surfaced.
    let (_, primed) = store::load_or_build(&workload.network);
    let (_, faulted_store) = store::load_or_build_with_fault(
        &workload.network,
        &FaultPlan {
            store_io_errors: true,
            ..FaultPlan::none()
        },
    );
    std::env::remove_var(store::CACHE_DIR_ENV);
    let store_reason = faulted_store.fallback_reason.clone().unwrap_or_default();
    if faulted_store.source != store::LabelSource::Built || store_reason.is_empty() {
        eprintln!(
            "chaos_smoke: GATE FAILED: injected store fault did not surface a rebuild \
             reason: {faulted_store:?}"
        );
        return ExitCode::FAILURE;
    }
    eprintln!(
        "  store: primed ({:?}), injected IO fault fell back to rebuild ({store_reason})",
        primed.source
    );

    // ---- Artifact ---------------------------------------------------------
    let mut s = String::from("{\n");
    s.push_str("  \"schema\": \"bench_chaos/v1\",\n");
    s.push_str("  \"city\": \"small\",\n");
    s.push_str(&format!("  \"fleet\": {FLEET},\n"));
    s.push_str(&format!("  \"pool_trips\": {POOL_TRIPS},\n"));
    s.push_str(&format!("  \"seed\": {},\n", args.seed));
    s.push_str(&format!("  \"duration_seconds\": {DURATION_S},\n"));
    s.push_str("  \"service_model\": \"fixed(tick_overhead=0.02s, per_request=0.01s)\",\n");
    s.push_str(&format!(
        "  \"wall_seconds\": {:.1},\n",
        wall.elapsed().as_secs_f64()
    ));
    s.push_str("  \"rungs\": [\n");
    for (i, (name, spec, rate, report)) in reports.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"fault_plan\": \"{spec}\", \"report\": "
        ));
        s.push_str(&report.json_object(Some(*rate), "    "));
        s.push('}');
        s.push_str(if i + 1 < reports.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"recovery\": {{\"fault_plan\": \"{fault_spec},kill={kill_tick}\", \
         \"checkpoint_every_ticks\": {every}, \"kill_tick\": {kill_tick}, \
         \"recovered_matches_reference\": {recovery_matched}, \"report\": "
    ));
    s.push_str(&recovered.json_object(Some(4.0), "  "));
    s.push_str("},\n");
    s.push_str(&format!(
        "  \"store_fault\": {{\"injected\": true, \"fallback_source\": \"built\", \
         \"fallback_reason\": \"{store_reason}\"}}\n"
    ));
    s.push_str("}\n");
    if let Err(e) = std::fs::write(&args.out, &s) {
        eprintln!("chaos_smoke: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    eprintln!(
        "chaos_smoke: all gates held; artifact written to {} ({:.1}s wall)",
        args.out,
        wall.elapsed().as_secs_f64()
    );
    ExitCode::SUCCESS
}
