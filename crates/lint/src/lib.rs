//! `rideshare-lint`: a workspace determinism & panic-policy static
//! analyzer.
//!
//! Every headline guarantee in this workspace — parallel movement,
//! region accounting, checkpoint resume and crash recovery all
//! bit-identical to the plain run — is enforced *dynamically*, by property suites that
//! sample a tiny fraction of the state space. This crate adds the static
//! half: an offline, dependency-free analyzer that lexes every workspace
//! `.rs` file (a real mini-lexer — strings, raw strings, char literals
//! vs lifetimes, nested block comments — not a regex pass) and enforces
//! a per-crate policy:
//!
//! | rule | policy |
//! |------|--------|
//! | `D1` | no unordered iteration over `HashMap`/`HashSet` in the determinism-critical crates (`core`, `sim`, `roadnet`, `serve`) |
//! | `D2` | no `Instant::now`/`SystemTime::now` outside the allowlisted timing modules |
//! | `D3` | no ambient entropy anywhere — all randomness via seeded `StdRng` |
//! | `P1` | no `unwrap`/`expect`/`panic!`-family/direct indexing in `crates/serve` runtime paths |
//! | `W0` | every waiver parses and carries a non-empty reason |
//! | `W1` | every waiver actually suppresses something |
//!
//! A violation is suppressed only by an inline
//! `// lint:allow(rule, reason = "…")` waiver; the binary emits the
//! `bench_lint/v1` artifact (per-rule counts plus the full waiver
//! inventory with file/line/reason) and exits nonzero on any unwaived
//! violation. See `OPERATIONS.md` for the CLI and the schema, and
//! `ARCHITECTURE.md` for how the static gate complements the dynamic
//! bit-identity suites.

pub mod lexer;
pub mod report;
pub mod rules;

pub use report::{scan_workspace, WorkspaceReport};
pub use rules::{analyze_source, FileReport, Rule};
