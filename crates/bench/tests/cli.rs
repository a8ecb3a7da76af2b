//! `paper_replay` and `serve_sweep` refuse numbers they would otherwise
//! clamp, that would make a gate pass on every run (a NaN floor or cap:
//! every comparison with NaN is false) or that would never end a run:
//! each exits non-zero with the flag named on stderr. Every binary here
//! exits 2 the same way on an unknown flag, and `paper_replay`,
//! `chaos_smoke`, `bench_summary` and the figure binaries on a flag without
//! its value and a value that does not parse (a `--scale` or `--seed`);
//! the figure binaries also on a `--panel`
//! they do not draw, which would otherwise run nothing and exit 0.
//! Arguments are parsed before the workload or any labels are built, so
//! every case returns at once.

use std::process::Command;

#[test]
fn bad_numbers_are_refused_by_flag_name() {
    let out = std::env::temp_dir().join(format!("paper_replay_cli_{}.json", std::process::id()));
    let cases = [
        ("--min-trips-per-sec", "nan"),
        ("--min-trips-per-sec", "-1"),
        ("--max-evaluated-fraction", "nan"),
        ("--max-evaluated-fraction", "-inf"),
        ("--batch-window", "nan"),
        ("--batch-window", "-1"),
        ("--batch-window", "inf"),
        ("--checkpoint-every", "0"),
    ];
    for (flag, value) in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_paper_replay"))
            .args(["--scale", "smoke", "--max-trips", "1", "--fresh", "--out"])
            .arg(&out)
            .args([flag, value])
            .output()
            .expect("the binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!output.status.success(), "{flag} {value} was accepted");
        assert!(
            stderr.starts_with(flag),
            "{flag} {value}: the refusal does not name the flag: {stderr}"
        );
        assert!(!out.exists(), "{flag} {value} wrote a report");
    }
}

/// Runs `binary <out> <path> <case>` for each case, `out` being the flag
/// that names the binary's report (none for one that prints its report):
/// every run must exit 2 with the case's first argument at the start of
/// stderr, and write nothing, to the report or to stdout.
fn refused_by_flag_name(binary: &str, out: Option<&str>, name: &str, cases: &[&[&str]]) {
    let path = std::env::temp_dir().join(format!("{name}_cli_{}.json", std::process::id()));
    for args in cases {
        let mut command = Command::new(binary);
        if let Some(flag) = out {
            command.arg(flag).arg(&path);
        }
        let output = command.args(*args).output().expect("the binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?} was accepted");
        assert!(
            stderr.starts_with(args[0]),
            "{args:?}: the refusal does not name the flag: {stderr}"
        );
        assert!(!path.exists(), "{args:?} wrote a report");
        assert!(output.stdout.is_empty(), "{args:?} ran");
    }
}

#[test]
fn serve_sweep_refuses_bad_numbers_by_flag_name() {
    refused_by_flag_name(
        env!("CARGO_BIN_EXE_serve_sweep"),
        Some("--out"),
        "serve_sweep",
        &[
            &["--start-rate", "0"],
            &["--start-rate", "-1"],
            &["--start-rate", "nan"],
            &["--max-rate", "nan"],
            &["--max-rate", "0"],
            &["--duration", "nan"],
            &["--duration", "inf"],
            &["--tick", "0"],
            &["--tick", "nan"],
            &["--slo-p99", "-1"],
            &["--max-queue-wait", "nan"],
            &["--max-queue-wait", "0"],
            &["--start-rate", "8", "--max-rate", "4"],
            &["--bogus"],
        ],
    );
}

#[test]
fn paper_replay_refuses_bad_arguments_by_flag_name() {
    refused_by_flag_name(
        env!("CARGO_BIN_EXE_paper_replay"),
        Some("--out"),
        "paper_replay",
        &[&["--bogus"], &["--seed"], &["--scale", "huge"]],
    );
}

#[test]
fn chaos_smoke_refuses_bad_arguments_by_flag_name() {
    refused_by_flag_name(
        env!("CARGO_BIN_EXE_chaos_smoke"),
        Some("--out"),
        "chaos_smoke",
        &[
            &["--bogus"],
            &["--seed"],
            &["--seed", "nan"],
            &["--seed", "-1"],
        ],
    );
}

#[test]
fn figure_binaries_refuse_a_panel_they_do_not_draw() {
    let cases = [
        (env!("CARGO_BIN_EXE_fig6"), "x"),
        (env!("CARGO_BIN_EXE_fig7"), "d"),
        (env!("CARGO_BIN_EXE_fig8"), "c"),
        (env!("CARGO_BIN_EXE_fig9"), "d"),
        (env!("CARGO_BIN_EXE_occupancy"), "a"),
        (env!("CARGO_BIN_EXE_ablation_theta"), "a"),
    ];
    for (binary, panel) in cases {
        let output = Command::new(binary)
            .args(["--scale", "smoke", "--panel", panel])
            .output()
            .expect("the binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{binary} --panel {panel} was accepted"
        );
        assert!(
            stderr.starts_with("--panel"),
            "{binary} --panel {panel}: the refusal does not name the flag: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{binary} --panel {panel} ran");
    }
}

#[test]
fn bench_summary_refuses_bad_arguments_by_flag_name() {
    refused_by_flag_name(
        env!("CARGO_BIN_EXE_bench_summary"),
        Some("--hublabel-out"),
        "bench_summary",
        &[
            &["--bogus"],
            &["--scale", "huge"],
            &["--scale"],
            &["--seed", "x"],
            &["--seed"],
            &["--mip-out"],
        ],
    );
}

#[test]
fn figure_binaries_refuse_bad_arguments_by_flag_name() {
    for binary in [
        env!("CARGO_BIN_EXE_fig6"),
        env!("CARGO_BIN_EXE_fig7"),
        env!("CARGO_BIN_EXE_fig8"),
        env!("CARGO_BIN_EXE_fig9"),
        env!("CARGO_BIN_EXE_occupancy"),
        env!("CARGO_BIN_EXE_ablation_theta"),
    ] {
        refused_by_flag_name(
            binary,
            None,
            "figure",
            &[
                &["--bogus"],
                &["--scale", "huge"],
                &["--scale"],
                &["--seed", "x"],
                &["--seed"],
                &["--panel"],
            ],
        );
    }
}
