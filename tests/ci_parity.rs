//! Keeps `ci.sh` and `.github/workflows/ci.yml` running the same steps.
//!
//! `ci.sh` promises that a green local run means a green PR, which holds
//! only while both files run the same cargo commands. They may differ in
//! where a step writes its artifact (`--out`, `--checkpoint`) and in how
//! the shell pipes or quotes the command, nothing else.

use std::path::PathBuf;

fn read(file: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `cargo …` command on a line that is neither a comment nor a
/// workflow step's name, cut at a pipe or a closing quote, with the values
/// of `--out` and `--checkpoint` dropped.
fn cargo_command(line: &str) -> Option<String> {
    let line = line.trim();
    if line.starts_with('#') || line.trim_start_matches("- ").starts_with("name:") {
        return None;
    }
    let at = if line.starts_with("cargo ") {
        0
    } else {
        line.find(" cargo ")? + 1
    };
    let command = line.get(at..)?.split(" |").next()?.split('\'').next()?;
    let mut words = Vec::new();
    let mut drop_value = false;
    for word in command.split_whitespace() {
        if std::mem::take(&mut drop_value) {
            continue;
        }
        drop_value = matches!(word, "--out" | "--checkpoint");
        words.push(word);
    }
    Some(words.join(" "))
}

/// Every cargo command of a file, sorted: a multiset comparable by `==`.
fn cargo_commands(text: &str) -> Vec<String> {
    let mut commands: Vec<String> = text.lines().filter_map(cargo_command).collect();
    commands.sort();
    commands
}

#[test]
fn ci_sh_and_the_workflow_run_the_same_cargo_commands() {
    let local = cargo_commands(&read("ci.sh"));
    let workflow = cargo_commands(&read(".github/workflows/ci.yml"));
    assert!(
        local.iter().any(|c| c.starts_with("cargo test")),
        "no cargo command found in ci.sh: {local:?}"
    );
    assert_eq!(local, workflow, "ci.sh (left) and ci.yml (right) differ");
}

#[test]
fn the_normaliser_cuts_pipes_quotes_and_artifact_paths() {
    assert_eq!(
        cargo_command("run bash -c 'set -o pipefail; cargo run -- --smoke | tee x.txt'"),
        Some("cargo run -- --smoke".to_string())
    );
    assert_eq!(
        cargo_command("run: cargo run --bin b -- --out a.json --checkpoint c.ckpt --fresh"),
        Some("cargo run --bin b -- --out --checkpoint --fresh".to_string())
    );
    assert_eq!(cargo_command("# run cargo build"), None);
    assert_eq!(cargo_command("key: cargo-${{ runner.os }}"), None);
    assert_eq!(cargo_command("- name: Cache cargo artifacts"), None);
}

#[test]
fn both_files_deny_rustdoc_warnings() {
    let local = read("ci.sh");
    assert!(
        local
            .lines()
            .any(|l| !l.trim().starts_with('#')
                && l.contains("RUSTDOCFLAGS=\"-D warnings\" cargo doc")),
        "ci.sh must run cargo doc with RUSTDOCFLAGS=\"-D warnings\""
    );
    // The workflow sets the flags in the env block of the step that runs
    // `cargo doc`.
    let workflow = read(".github/workflows/ci.yml");
    let step = workflow
        .split("- name:")
        .find(|step| {
            step.lines()
                .any(|l| l.trim() == "run: cargo doc --workspace --no-deps")
        })
        .expect("the workflow has a cargo doc step");
    assert!(
        step.lines()
            .any(|l| l.trim() == "RUSTDOCFLAGS: -D warnings"),
        "the workflow's cargo doc step must set RUSTDOCFLAGS: -D warnings:\n{step}"
    );
}
