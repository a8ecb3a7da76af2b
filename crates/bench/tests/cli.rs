//! `paper_replay` and `serve_sweep` refuse numbers they would otherwise
//! clamp, that would make a gate pass on every run (a NaN floor or cap:
//! every comparison with NaN is false) or that would never end a run:
//! each exits non-zero with the flag named on stderr. The figure
//! binaries likewise refuse a `--panel` they do not draw, which would
//! otherwise run nothing and exit 0. Arguments are parsed before the
//! workload or any labels are built, so every case returns at once.

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

#[test]
fn serve_sweep_refuses_bad_numbers_by_flag_name() {
    let out = std::env::temp_dir().join(format!("serve_sweep_cli_{}.json", std::process::id()));
    let cases: [&[&str]; 13] = [
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
    ];
    for args in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_serve_sweep"))
            .arg("--out")
            .arg(&out)
            .args(args)
            .output()
            .expect("the binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?} was accepted");
        assert!(
            stderr.starts_with(args[0]),
            "{args:?}: the refusal does not name the flag: {stderr}"
        );
        assert!(!out.exists(), "{args:?} wrote a report");
    }
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
