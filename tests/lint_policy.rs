//! Keeps the determinism and panic policy switched on.
//!
//! Clippy finds the violations (`cargo clippy --workspace --all-targets
//! -- -D warnings`), but clippy is not part of `cargo test`. These tests
//! check the wiring instead: every critical crate root still denies its
//! lints, clippy.toml still lists what they ban, and no suppression hides
//! behind a blank reason (ARCHITECTURE.md, "Determinism and panic policy").

use std::path::{Path, PathBuf};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

// The lints behind each rule of ARCHITECTURE.md's policy table.
const D1_D2: &str = "clippy::disallowed_methods clippy::disallowed_types";
const P1: &str = "clippy::unwrap_used clippy::expect_used clippy::panic \
                  clippy::unreachable clippy::todo clippy::unimplemented";
const P1_SERVE: &str = "clippy::indexing_slicing";

#[test]
fn critical_crate_roots_deny_the_policy_lints_and_clippy_toml_lists_their_targets() {
    let mut missing = Vec::new();
    for (file, lints) in [
        ("crates/core/src/lib.rs", [D1_D2, P1, ""]),
        ("crates/sim/src/lib.rs", [D1_D2, P1, ""]),
        ("crates/roadnet/src/lib.rs", [D1_D2, "", ""]),
        ("crates/serve/src/lib.rs", [D1_D2, P1, P1_SERVE]),
        ("crates/serve/src/main.rs", [D1_D2, P1, P1_SERVE]),
    ] {
        let text = read(&root().join(file));
        let denied: Vec<&str> = text
            .split("\n#![deny(")
            .skip(1)
            .flat_map(|attr| attr.split(")]").next().unwrap_or("").split(','))
            .map(str::trim)
            .collect();
        for lint in lints.iter().flat_map(|group| group.split_whitespace()) {
            if !denied.contains(&lint) {
                missing.push(format!("{file} does not #![deny({lint})]"));
            }
        }
    }
    let config = read(&root().join("clippy.toml"));
    for path in [
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::collections::HashMap",
        "std::collections::HashSet",
    ] {
        let entry = format!("{{ path = \"{path}\"");
        if !config.lines().any(|l| l.trim_start().starts_with(&entry)) {
            missing.push(format!("clippy.toml does not disallow {path}"));
        }
    }
    assert!(
        missing.is_empty(),
        "policy wiring lost:\n{}",
        missing.join("\n")
    );
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for path in std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
    {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Clippy's `allow_attributes_without_reason` accepts an `#[expect]` whose
/// reason is an empty string, so a blank reason is caught here instead.
#[test]
fn no_lint_expectation_has_a_blank_reason() {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root().join(dir), &mut files);
    }
    assert!(files.len() > 50, "only {} .rs files found", files.len());
    let mut blank = Vec::new();
    for file in files {
        for (n, line) in read(&file).lines().enumerate() {
            for reason in line.split("reason = \"").skip(1) {
                if reason.split('"').next().unwrap_or("").trim().is_empty() {
                    blank.push(format!("{}:{}", file.display(), n + 1));
                }
            }
        }
    }
    assert!(
        blank.is_empty(),
        "blank lint reasons:\n{}",
        blank.join("\n")
    );
}
