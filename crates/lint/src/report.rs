//! Workspace walking, per-crate policy, and the `bench_lint/v1` artifact.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::rules::{analyze_source, Rule, Violation, WaiverRecord};

/// Modules allowed to read the wall clock without a waiver.
///
/// These are the timing modules whose measurements feed fields *already
/// excluded from bit-identity* (per-request `response_nanos` and the
/// `acrt_ms` buckets derived from them): the whole point of those fields
/// is to record real compute cost, so `Instant::now` is their job, and a
/// waiver on every call site would be noise rather than signal. Any
/// *other* module that wants the clock must carry an inline waiver with
/// its reason. Every entry must name a file that exists — the workspace
/// gate fails on a stale one.
pub const TIMING_ALLOWLIST: [&str; 1] = ["crates/core/src/dispatch.rs"];

/// Determinism-critical crates: their `src/` trees get the D-rules.
const DETERMINISM_CRATES: [&str; 4] = ["core", "sim", "roadnet", "serve"];

/// Resolves which rules apply to the file at workspace-relative `rel`
/// (forward-slash separated).
///
/// * `tests/`, `benches/`, `examples/` anywhere, and the `crates/compat`
///   shims: no rules — test code may iterate hash maps and unwrap
///   freely, and the shims implement the very primitives the rules
///   police.
/// * `crates/{core,sim,roadnet,serve}/src`: D1 + D2 + D3 (D2 is skipped
///   for [`TIMING_ALLOWLIST`] modules).
/// * `crates/serve/src`: additionally P1 — the serve loop is the one
///   place a panic takes down a live service rather than a batch job.
/// * `crates/lint/src`: D1 + D2 + D3 (the analyzer polices itself).
/// * every other workspace `src/` tree (workload, spatial, mip, bench,
///   the umbrella): D3 only — ambient entropy is never acceptable, but
///   those crates are either pure functions of their inputs or
///   measurement harnesses where wall clock and panics are fine.
pub fn rules_for(rel: &str) -> Vec<Rule> {
    let parts: Vec<&str> = rel.split('/').collect();
    let in_dir = |d: &str| parts.contains(&d);
    if in_dir("tests") || in_dir("benches") || in_dir("examples") || in_dir("target") {
        return Vec::new();
    }
    if rel.starts_with("crates/compat/") {
        return Vec::new();
    }
    if let Some(krate) = parts
        .strip_prefix(["crates"].as_slice())
        .and_then(|r| r.first())
    {
        if DETERMINISM_CRATES.contains(krate) {
            let mut rules = vec![Rule::D1, Rule::D3];
            if !TIMING_ALLOWLIST.contains(&rel) {
                rules.push(Rule::D2);
            }
            if *krate == "serve" {
                rules.push(Rule::P1);
            }
            rules.sort();
            return rules;
        }
        if *krate == "lint" {
            return vec![Rule::D1, Rule::D2, Rule::D3];
        }
        return vec![Rule::D3];
    }
    // Umbrella crate sources at the workspace root.
    vec![Rule::D3]
}

/// One unwaived violation in the workspace report.
#[derive(Debug, Clone)]
pub struct ReportedViolation {
    /// Rule that fired.
    pub rule: Rule,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Site description.
    pub message: String,
}

/// One waiver in the workspace inventory.
#[derive(Debug, Clone)]
pub struct ReportedWaiver {
    /// Waived rule.
    pub rule: Rule,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Mandatory justification.
    pub reason: String,
}

/// The aggregated result of scanning a workspace.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// Number of `.rs` files lexed.
    pub files_scanned: usize,
    /// Unwaived violations, sorted by (file, line, rule).
    pub violations: Vec<ReportedViolation>,
    /// Waiver inventory, sorted by (file, line, rule).
    pub waivers: Vec<ReportedWaiver>,
    /// Waived-violation count per rule.
    pub waived_counts: BTreeMap<Rule, usize>,
}

impl WorkspaceReport {
    /// True when the gate passes: zero unwaived violations.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Unwaived-violation count for one rule.
    pub fn count(&self, rule: Rule) -> usize {
        self.violations.iter().filter(|v| v.rule == rule).count()
    }

    /// Folds one analyzed file into the aggregate.
    pub fn absorb(&mut self, rel: &str, violations: Vec<Violation>, waivers: Vec<WaiverRecord>) {
        self.files_scanned += 1;
        for v in violations {
            if v.waived {
                *self.waived_counts.entry(v.rule).or_insert(0) += 1;
            } else {
                self.violations.push(ReportedViolation {
                    rule: v.rule,
                    file: rel.to_string(),
                    line: v.line,
                    message: v.message,
                });
            }
        }
        for w in waivers {
            self.waivers.push(ReportedWaiver {
                rule: w.rule,
                file: rel.to_string(),
                line: w.line,
                reason: w.reason,
            });
        }
    }

    /// Renders the `bench_lint/v1` artifact.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"bench_lint/v1\",\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str(&format!("  \"ok\": {},\n", self.ok()));
        s.push_str("  \"rules\": {\n");
        for (i, rule) in Rule::ALL.iter().enumerate() {
            let comma = if i + 1 < Rule::ALL.len() { "," } else { "" };
            s.push_str(&format!(
                "    \"{rule}\": {{\"description\": \"{}\", \"unwaived\": {}, \"waived\": {}}}{comma}\n",
                json_escape(rule.describe()),
                self.count(*rule),
                self.waived_counts.get(rule).copied().unwrap_or(0),
            ));
        }
        s.push_str("  },\n");
        s.push_str("  \"violations\": [\n");
        for (i, v) in self.violations.iter().enumerate() {
            let comma = if i + 1 < self.violations.len() {
                ","
            } else {
                ""
            };
            s.push_str(&format!(
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{comma}\n",
                v.rule,
                json_escape(&v.file),
                v.line,
                json_escape(&v.message),
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"waivers\": [\n");
        for (i, w) in self.waivers.iter().enumerate() {
            let comma = if i + 1 < self.waivers.len() { "," } else { "" };
            s.push_str(&format!(
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"reason\": \"{}\"}}{comma}\n",
                w.rule,
                json_escape(&w.file),
                w.line,
                json_escape(&w.reason),
            ));
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }
}

/// Minimal JSON string escaping for paths, messages and reasons.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Scans every workspace `.rs` file under `root` and returns the
/// aggregate report. Directory entries are visited in sorted order so
/// the artifact is byte-stable across runs and platforms.
pub fn scan_workspace(root: &Path) -> std::io::Result<WorkspaceReport> {
    let mut files: Vec<PathBuf> = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let mut report = WorkspaceReport::default();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)?;
        let file_report = analyze_source(&src, &rules_for(&rel));
        report.absorb(&rel, file_report.violations, file_report.waivers);
    }
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report
        .waivers
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Recursively collects `.rs` files, skipping build output, VCS metadata
/// and hidden directories.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}
