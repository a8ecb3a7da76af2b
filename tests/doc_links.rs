//! Keeps the documentation layer's cross-references live.
//!
//! ARCHITECTURE.md, OPERATIONS.md, PAPER.md and ROADMAP.md form one
//! linked document set: each points into the others and into source
//! files, artifacts and binaries by name. Those references rot silently —
//! a renamed binary or a deleted artifact breaks the runbook without
//! breaking the build — so this test walks every reference the documents
//! make and fails when a target disappears.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

const DOCS: &[&str] = &["ARCHITECTURE.md", "OPERATIONS.md", "PAPER.md", "ROADMAP.md"];

/// Extracts `](target)` markdown-link targets from one document.
fn markdown_targets(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(i) = rest.find("](") {
        rest = &rest[i + 2..];
        if let Some(end) = rest.find(')') {
            out.push(rest[..end].to_string());
            rest = &rest[end..];
        } else {
            break;
        }
    }
    out
}

#[test]
fn every_markdown_link_target_exists() {
    let root = repo_root();
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| {
            panic!("{doc} must exist at the repository root ({e})");
        });
        for target in markdown_targets(&text) {
            // External URLs and intra-document anchors are out of scope;
            // the test guards file-level references.
            if target.starts_with("http") || target.starts_with('#') {
                continue;
            }
            let path = target.split('#').next().unwrap_or(&target);
            if path.is_empty() {
                continue;
            }
            if !root.join(path).exists() {
                missing.push(format!("{doc} links to {path}, which does not exist"));
            }
        }
    }
    assert!(missing.is_empty(), "dead links:\n{}", missing.join("\n"));
}

#[test]
fn documents_cross_reference_each_other() {
    // The documentation layer's contract: the architecture tour points at
    // the runbook and the paper mapping, the runbook points back at the
    // architecture, and the paper mapping points at the architecture.
    let root = repo_root();
    for (doc, must_mention) in [
        (
            "ARCHITECTURE.md",
            vec!["OPERATIONS.md", "PAPER.md", "ROADMAP.md"],
        ),
        ("OPERATIONS.md", vec!["ARCHITECTURE.md"]),
        ("PAPER.md", vec!["ARCHITECTURE.md"]),
        ("README_or_ROADMAP", vec![]),
    ] {
        if doc == "README_or_ROADMAP" {
            continue;
        }
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        for m in must_mention {
            assert!(
                text.contains(m),
                "{doc} must reference {m} (the doc set is one linked document)"
            );
        }
    }
}

/// References to source files, binaries and artifacts made *by name* in
/// prose (not markdown links) — the ones most likely to rot.
#[test]
fn named_binaries_artifacts_and_sources_exist() {
    let root = repo_root();
    let mut referenced: HashSet<String> = HashSet::new();
    // ROADMAP.md is deliberately absent here: it cites file paths inside
    // *related external repositories* as idiom references, which are not
    // resolvable in this tree. Its markdown links are still checked above.
    for doc in ["ARCHITECTURE.md", "OPERATIONS.md", "PAPER.md"] {
        let text = std::fs::read_to_string(root.join(doc)).unwrap();
        // `path`-style inline-code references that look like files.
        for piece in text.split('`').skip(1).step_by(2) {
            let p = piece.trim();
            if (p.contains('/') && Path::new(p).extension().is_some()
                || p.starts_with("BENCH_") && p.ends_with(".json"))
                && !p.contains(' ')
                && !p.contains('<')
                && !p.contains('$')
                && !p.contains('*')
            {
                referenced.insert(p.trim_start_matches("./").to_string());
            }
        }
    }
    let mut missing = Vec::new();
    for r in &referenced {
        // Generated-at-runtime paths live under target/; committed
        // artifacts and sources must exist in the tree.
        if r.starts_with("target/") {
            continue;
        }
        if !root.join(r).exists() {
            missing.push(r.clone());
        }
    }
    let mut missing_sorted = missing.clone();
    missing_sorted.sort();
    assert!(
        missing.is_empty(),
        "docs reference files that do not exist:\n{}",
        missing_sorted.join("\n")
    );

    // The serve artifact and the runbook's headline binaries must be
    // referenced somewhere — losing the reference means the docs no
    // longer describe the system CI gates.
    let all: String = DOCS
        .iter()
        .map(|d| std::fs::read_to_string(root.join(d)).unwrap())
        .collect();
    for needle in [
        "BENCH_serve.json",
        "BENCH_replay.json",
        "BENCH_chaos.json",
        "clippy.toml",
        "serve_sweep",
        "paper_replay",
        "chaos_smoke",
        "ShardedSimulation",
        "PartitionSpec",
        "--fault-plan",
        "--recover-dir",
        "RIDESHARE_LABEL_CACHE",
    ] {
        assert!(
            all.contains(needle),
            "documentation set no longer mentions {needle}"
        );
    }
}
