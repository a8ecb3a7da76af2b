//! The tier-1 lint gate: `cargo test` runs the full workspace scan, so
//! a determinism or panic-policy violation fails the ordinary test
//! suite — not just the dedicated CI step.

use std::path::{Path, PathBuf};

use rideshare_lint::report::TIMING_ALLOWLIST;
use rideshare_lint::scan_workspace;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

/// An allowlist entry for a file that no longer exists exempts nothing
/// today and silently exempts whatever is later created at that path.
#[test]
fn every_timing_allowlist_entry_names_an_existing_file() {
    let root = workspace_root();
    for rel in TIMING_ALLOWLIST {
        assert!(
            root.join(rel).is_file(),
            "TIMING_ALLOWLIST names {rel}, which does not exist — drop the stale entry"
        );
    }
}

#[test]
fn workspace_has_zero_unwaived_violations() {
    let root = workspace_root();
    let report = scan_workspace(&root).expect("scan workspace");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — wrong root?",
        report.files_scanned
    );
    let listing: Vec<String> = report
        .violations
        .iter()
        .map(|v| format!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message))
        .collect();
    assert!(
        report.ok(),
        "unwaived lint violations:\n{}",
        listing.join("\n")
    );
    // Every committed waiver must carry a non-empty reason (W0 enforces
    // this at parse time; this is the belt to that suspender) and the
    // inventory must stay deliberate: growth means a conscious decision.
    for w in &report.waivers {
        assert!(
            !w.reason.trim().is_empty(),
            "{}:{}: waiver without a reason",
            w.file,
            w.line
        );
    }
}
