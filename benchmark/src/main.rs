//! The repo's one benchmark: four workloads over the ridesharing engine,
//! timed by the step-min clock, with a traced layer ledger.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name|all> --seed <u64> [--seconds <n>] [--trace [0|1]] [--smoke]
//! ```
//!
//! Prints every metric by name with its unit, then — as the last line of
//! standard output — one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (end-to-end metrics without `--trace`, per-layer metrics
//! with it). Exits non-zero when an output check fails. See README.md.

mod check;
mod clock;
mod drive;
mod emit;
mod layers;
mod probe;
mod run;
mod spec;

use std::process::ExitCode;

use spec::{Spec, SPECS};

/// `run_seconds` of BENCHMARK.json: the budget when `--seconds` is absent.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workloads: Vec<Spec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage() -> String {
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    format!(
        "usage: benchmark --workload <{}|all> --seed <u64> [--seconds <n>] [--trace [0|1]] [--smoke]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut smoke = false;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workloads = Some(if name == "all" {
                    SPECS.to_vec()
                } else {
                    vec![Spec::by_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?]
                });
            }
            "--seed" => {
                let v = value("--seed")?;
                seed = Some(v.parse::<u64>().map_err(|e| format!("--seed {v:?}: {e}"))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {v:?}: not a positive number"))?;
            }
            "--trace" => {
                // Bare `--trace` switches tracing on; the driver passes 0 or 1.
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        smoke,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut code = ExitCode::SUCCESS;
    for spec in &args.workloads {
        let spec = if args.smoke { spec.smoke() } else { *spec };
        let result = if args.trace {
            layers::run_traced(spec, args.seed, args.smoke)
        } else {
            run::run_end_to_end(spec, args.seed, args.seconds, args.smoke)
        };
        match result {
            Ok(r) => {
                print!("{}", r.to_table());
                println!("{}", r.to_json());
                if !r.correct {
                    code = ExitCode::from(1);
                }
            }
            Err(e) => {
                eprintln!("{}: {e}", spec.name);
                return ExitCode::from(1);
            }
        }
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = parse(&argv(
            "--workload replay_dense --seed 7 --seconds 15 --trace 0",
        ))
        .unwrap();
        assert_eq!(a.workloads.len(), 1);
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (7, 15.0, false, false)
        );
        let a = parse(&argv("--workload all --seed 1 --trace 1 --smoke")).unwrap();
        assert_eq!(a.workloads.len(), SPECS.len());
        assert!(a.trace && a.smoke);
        // Bare --trace, as the issue's command line writes it.
        assert!(
            parse(&argv("--workload all --seed 1 --trace"))
                .unwrap()
                .trace
        );
        assert!(
            parse(&argv("--trace --workload all --seed 1"))
                .unwrap()
                .trace
        );
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        assert!(parse(&argv("--workload nope --seed 1")).is_err());
        assert!(parse(&argv("--workload all")).is_err());
        assert!(parse(&argv("--workload all --seed x")).is_err());
        assert!(parse(&argv("--workload all --seed 1 --seconds 0")).is_err());
        assert!(parse(&argv("--workload all --seed 1 --fast")).is_err());
    }
}
