//! `rideshare-serve` refuses hostile numbers on its command line, and the
//! crash-safety flags and fault clauses that would be silently ignored: each
//! exits non-zero, names its flag or clause and writes no report. A valid
//! overloaded run keeps its pinned counts.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Serves a tiny city with `extra` flags appended, asking for the report
/// at a fresh path; returns the process output and that path.
fn serve(tag: &str, extra: &[&str]) -> (Output, PathBuf) {
    let id = std::process::id();
    let out = std::env::temp_dir().join(format!("serve_cli_{id}_{tag}.json"));
    std::fs::remove_file(&out).ok();
    let output = Command::new(env!("CARGO_BIN_EXE_rideshare-serve"))
        .args(["--city", "small", "--fleet", "2", "--trips", "20"])
        .args(["--duration", "5", "--fixed-cost", "0.001", "--out"])
        .arg(&out)
        .args(extra)
        .output()
        .expect("the binary runs");
    (output, out)
}

#[test]
fn hostile_numbers_are_refused_by_flag_name() {
    let positive = ["--tick", "--rate", "--trace-speedup"];
    let non_negative = [
        "--duration",
        "--slo-p99",
        "--max-queue-wait",
        "--fixed-cost",
    ];
    // (what the refusal must start with, the flags that draw it)
    let numbers = positive
        .iter()
        .flat_map(|f| ["0", "-1", "nan", "inf"].map(|v| (*f, vec![*f, v])))
        .chain(
            non_negative
                .iter()
                .flat_map(|f| ["-1", "nan", "inf", "-inf"].map(|v| (*f, vec![*f, v]))),
        );
    // Values that do not parse as the flag's type at all.
    let unparseable = [
        ("--fleet", vec!["--fleet", "-1"]),
        ("--trips", vec!["--trips", "abc"]),
        ("--seed", vec!["--seed", "-3"]),
        ("--queue-capacity", vec!["--queue-capacity", "1.5"]),
        ("--rate", vec!["--rate", "abc"]),
        (
            "--checkpoint-every",
            vec!["--recover-dir", "unused", "--checkpoint-every", "x"],
        ),
        (
            "unknown fault clause \"store\"",
            vec!["--fault-plan", "store"],
        ),
    ];
    // Flags and fault clauses this run (no --recover-dir) would otherwise
    // ignore.
    let ignored = [
        ("--recover", vec!["--recover"]),
        ("--checkpoint-every", vec!["--checkpoint-every", "8"]),
        ("fault clause kill=", vec!["--fault-plan", "seed=1,kill=3"]),
        ("fault clause torn=", vec!["--fault-plan", "torn=0.5"]),
    ];
    for (i, (name, flags)) in numbers.chain(unparseable).chain(ignored).enumerate() {
        let (output, report) = serve(&i.to_string(), &flags);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "{flags:?} was accepted");
        assert!(stderr.starts_with(name), "{flags:?}: {stderr}");
        assert!(!report.exists(), "{flags:?} wrote a report");
    }
}

#[test]
fn a_valid_run_writes_its_report() {
    let (output, report) = serve("ok", &["--tick", "0.5"]);
    assert!(output.status.success());
    let json = std::fs::read_to_string(&report).expect("report written");
    assert!(json.contains("\"guarantee_violations\": 0"), "{json}");
    std::fs::remove_file(&report).ok();
}

/// An overloaded run whose counts are pinned: a change to dispatch,
/// admission, shedding or the event trace moves at least one of them.
#[test]
fn an_overloaded_run_keeps_its_pinned_counts() {
    let id = std::process::id();
    let events = std::env::temp_dir().join(format!("serve_cli_{id}_pinned.csv"));
    let events = events.display().to_string();
    let mut flags: Vec<&str> = "--fleet 20 --trips 400 --rate 8 --duration 60 --fixed-cost 0.1 \
         --queue-capacity 16 --max-queue-wait 2 --events"
        .split_whitespace()
        .collect();
    flags.push(&events);
    let (output, report) = serve("pinned", &flags);
    assert!(output.status.success(), "{output:?}");
    let json = std::fs::read_to_string(&report).expect("report written");
    for (field, value) in [
        ("offered", 488),
        ("admitted", 275),
        ("shed_queue_full", 117),
        ("shed_stale", 96),
        ("guarantee_violations", 0),
    ] {
        let pinned = format!("\"{field}\": {value},");
        assert!(json.contains(&pinned), "{pinned} missing from {json}");
    }
    let lines = std::fs::read_to_string(&events).expect("events written");
    assert_eq!(lines.lines().count(), 572);
    std::fs::remove_file(&report).ok();
    std::fs::remove_file(&events).ok();
}
