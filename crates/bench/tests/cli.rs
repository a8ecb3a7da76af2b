//! `paper_replay` refuses numbers it would otherwise clamp, or that would
//! make a gate pass on every run (a NaN floor or cap: every comparison
//! with NaN is false): each exits non-zero with the flag named on stderr.
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
