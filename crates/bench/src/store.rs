//! Shared on-disk hub-label store: build once, reload forever.
//!
//! Every experiment binary used to rebuild the hub labels for its network
//! from scratch — 89 s at paper scale, paid again by every harness process.
//! The PR 3 persistence work made labels loadable in 2.5–6 s; this module
//! is the missing wiring: a directory of label files keyed by the network's
//! [`RoadNetwork::fingerprint`], consulted before any build. The first
//! process to need labels for a network builds, saves and verifies them;
//! every later process (or re-run) reloads in seconds. Because the file
//! name *and* the persist header both carry the fingerprint, a stale or
//! foreign file can never be applied to the wrong network — it simply
//! misses the lookup, and a corrupted hit is rejected by
//! [`HubLabels::load`]'s checksum and rebuilt.
//!
//! The store lives in `target/label-cache` by default (next to the other
//! build artefacts, wiped by `cargo clean`) and can be pointed elsewhere
//! with the `RIDESHARE_LABEL_CACHE` environment variable.

use std::path::PathBuf;
use std::time::Instant;

use kinetic_core::FaultPlan;
use roadnet::{HubLabels, RoadNetwork};

/// Environment variable overriding the store directory.
pub const CACHE_DIR_ENV: &str = "RIDESHARE_LABEL_CACHE";

/// How [`load_or_build`] obtained its labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelSource {
    /// Built from scratch (then saved and reload-verified).
    Built,
    /// Reloaded from a previously persisted file.
    Reloaded,
}

/// Provenance and timings of one [`load_or_build`] call, reported by the
/// harness artifacts and gated in CI (the reload path must actually be
/// exercised, and a fresh build must round-trip through disk).
#[derive(Debug, Clone)]
pub struct StoreReport {
    /// Fingerprint of the network the labels belong to.
    pub fingerprint: u64,
    /// File the labels were loaded from / saved to.
    pub path: PathBuf,
    /// Whether the labels were built or reloaded.
    pub source: LabelSource,
    /// Build time in milliseconds (0 when reloaded).
    pub build_ms: f64,
    /// Load time in milliseconds: the reload for [`LabelSource::Reloaded`],
    /// the post-save verification reload for [`LabelSource::Built`].
    pub load_ms: f64,
    /// Size of the persisted file in bytes.
    pub bytes: u64,
    /// True when a freshly built labeling was saved, reloaded and compared
    /// equal — the build-then-reload round trip CI gates on. Always true
    /// for [`LabelSource::Reloaded`] (verified at build time).
    pub roundtrip_verified: bool,
    /// Why a store file that *existed* was not used (corrupt, truncated,
    /// injected IO fault, ...). `None` on a clean reload or a cold miss.
    /// Harness artifacts surface this so a silently-degraded cache shows
    /// up in CI instead of only on stderr.
    pub fallback_reason: Option<String>,
}

/// The store directory: `$RIDESHARE_LABEL_CACHE` or `target/label-cache`.
pub fn cache_dir() -> PathBuf {
    std::env::var_os(CACHE_DIR_ENV)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target").join("label-cache"))
}

/// The store path for a network's labels.
pub fn label_path(graph: &RoadNetwork) -> PathBuf {
    cache_dir().join(format!("hl-{:016x}.hlbl", graph.fingerprint()))
}

/// Returns hub labels for `graph`, reloading them from the store when a
/// valid file exists and building + persisting them otherwise.
///
/// A fresh build is immediately reloaded from disk and compared against
/// the in-memory labels, so every entry the store ever serves has passed
/// the round trip. Store I/O failures (unwritable directory, corrupt
/// file) degrade to a plain rebuild — the harness still runs, just
/// without the cache.
pub fn load_or_build(graph: &RoadNetwork) -> (HubLabels, StoreReport) {
    load_or_build_with_fault(graph, &FaultPlan::none())
}

/// [`load_or_build`] with an injectable fault plan: when
/// [`FaultPlan::store_io_errors`] is set, every load of an existing store
/// file fails as if the read had errored, forcing the rebuild path. The
/// chaos harness uses this to prove the serve stack comes up (degraded to
/// a fresh build) when the label cache is unreadable.
pub fn load_or_build_with_fault(
    graph: &RoadNetwork,
    fault: &FaultPlan,
) -> (HubLabels, StoreReport) {
    let path = label_path(graph);
    let fingerprint = graph.fingerprint();
    let mut fallback_reason = None;
    if path.is_file() {
        let timer = Instant::now();
        let loaded = if fault.store_io_errors {
            Err(roadnet::RoadNetError::Persist(
                "injected store IO fault".to_string(),
            ))
        } else {
            HubLabels::load(&path, graph)
        };
        match loaded {
            Ok(labels) => {
                let load_ms = timer.elapsed().as_secs_f64() * 1e3;
                let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                eprintln!(
                    "label store: reloaded {} ({bytes} bytes) in {load_ms:.0} ms",
                    path.display()
                );
                return (
                    labels,
                    StoreReport {
                        fingerprint,
                        path,
                        source: LabelSource::Reloaded,
                        build_ms: 0.0,
                        load_ms,
                        bytes,
                        roundtrip_verified: true,
                        fallback_reason: None,
                    },
                );
            }
            Err(e) => {
                eprintln!("label store: {} unusable ({e}); rebuilding", path.display());
                fallback_reason = Some(e.to_string());
            }
        }
    }
    let timer = Instant::now();
    let labels = HubLabels::build(graph);
    let build_ms = timer.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "label store: built labels for {} nodes in {:.0} ms",
        graph.node_count(),
        build_ms
    );
    let mut load_ms = 0.0;
    let mut bytes = 0u64;
    let mut roundtrip_verified = false;
    // Write via a process-unique temp file + rename so a process killed
    // mid-save (or two harness binaries racing on the same network) can
    // never leave a torn file at the looked-up path — same pattern as the
    // simulation checkpoint writer.
    let tmp = path.with_extension(format!("hlbl.tmp.{}", std::process::id()));
    let saved = std::fs::create_dir_all(cache_dir())
        .map_err(roadnet::RoadNetError::from)
        .and_then(|()| labels.save(graph, &tmp))
        .and_then(|()| std::fs::rename(&tmp, &path).map_err(roadnet::RoadNetError::from));
    if saved.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    match saved {
        Ok(()) => {
            bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            let timer = Instant::now();
            match HubLabels::load(&path, graph) {
                Ok(back) if back == labels => {
                    load_ms = timer.elapsed().as_secs_f64() * 1e3;
                    roundtrip_verified = true;
                    eprintln!(
                        "label store: saved {} ({bytes} bytes), reload verified in {load_ms:.0} ms",
                        path.display()
                    );
                }
                Ok(_) => {
                    eprintln!("label store: reload verification FAILED (labels differ); removing");
                    std::fs::remove_file(&path).ok();
                }
                Err(e) => {
                    eprintln!("label store: reload verification FAILED ({e}); removing");
                    std::fs::remove_file(&path).ok();
                }
            }
        }
        Err(e) => {
            eprintln!("label store: could not persist to {} ({e})", path.display());
        }
    }
    (
        labels,
        StoreReport {
            fingerprint,
            path,
            source: LabelSource::Built,
            build_ms,
            load_ms,
            bytes,
            roundtrip_verified,
            fallback_reason,
        },
    )
}

/// Runs `f` with the store in a fresh directory under the system temp
/// dir, removed afterwards. The directory is a process-wide environment
/// variable, so the tests that touch the store take turns here.
#[cfg(test)]
pub(crate) fn in_temp_store<R>(name: &str, f: impl FnOnce() -> R) -> R {
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::env::set_var(CACHE_DIR_ENV, &dir);
    let out = f();
    std::env::remove_var(CACHE_DIR_ENV);
    std::fs::remove_dir_all(&dir).ok();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::{GeneratorConfig, NetworkKind};

    fn grid(rows: usize, cols: usize, seed: u64) -> roadnet::RoadNetwork {
        GeneratorConfig {
            kind: NetworkKind::Grid { rows, cols },
            seed,
            ..GeneratorConfig::default()
        }
        .generate()
    }

    #[test]
    fn build_then_reload_round_trip() {
        in_temp_store("label_store_test", build_then_reload_round_trip_in_store);
    }

    fn build_then_reload_round_trip_in_store() {
        let g = grid(6, 6, 3);
        let (labels, report) = load_or_build(&g);
        assert_eq!(report.source, LabelSource::Built);
        assert!(report.roundtrip_verified, "fresh build must verify");
        assert!(report.bytes > 0);
        assert!(report.path.is_file());

        // Second call must hit the store, not rebuild.
        let (again, report2) = load_or_build(&g);
        assert_eq!(report2.source, LabelSource::Reloaded);
        assert_eq!(again, labels);

        // A different network misses the store (different fingerprint) and
        // builds its own entry.
        let other = grid(5, 7, 4);
        let (_, report3) = load_or_build(&other);
        assert_eq!(report3.source, LabelSource::Built);
        assert_ne!(report3.path, report.path);

        // A corrupted entry is detected and rebuilt, with the reason
        // surfaced on the report instead of only stderr.
        let mut bytes = std::fs::read(&report.path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&report.path, bytes).unwrap();
        let (rebuilt, report4) = load_or_build(&g);
        assert_eq!(report4.source, LabelSource::Built);
        assert_eq!(rebuilt, labels);
        assert!(
            report4.fallback_reason.is_some(),
            "corrupt-file fallback must carry a reason"
        );
        // The clean paths carry none.
        assert_eq!(report2.fallback_reason, None);
        assert_eq!(report3.fallback_reason, None);

        // A file left by a build that wrote an older format (the version
        // word is bytes 4..8) is rebuilt once, saying why, and the rewrite
        // is what the next call reloads: upgrading needs no manual step.
        let mut bytes = std::fs::read(&report.path).unwrap();
        bytes[4] = 2;
        std::fs::write(&report.path, bytes).unwrap();
        let (upgraded, report5) = load_or_build(&g);
        assert_eq!(report5.source, LabelSource::Built);
        assert_eq!(upgraded, labels);
        assert!(
            report5
                .fallback_reason
                .as_deref()
                .is_some_and(|r| r.contains("version")),
            "stale-format fallback must name the version: {:?}",
            report5.fallback_reason
        );
        assert_eq!(load_or_build(&g).1.source, LabelSource::Reloaded);
    }

    #[test]
    fn truncated_store_file_never_panics_at_any_prefix() {
        in_temp_store(
            "label_store_trunc",
            truncated_store_file_never_panics_in_store,
        );
    }

    fn truncated_store_file_never_panics_in_store() {
        let g = grid(5, 5, 9);
        let (labels, report) = load_or_build(&g);
        assert!(report.roundtrip_verified);
        let full = std::fs::read(&report.path).unwrap();
        assert!(full.len() > 64, "need a non-trivial file to truncate");

        // Every strict prefix of the file must be rejected by the loader —
        // an error, never a panic, never a silently wrong labeling. This
        // mirrors the persist suite's torn-write coverage, at the store
        // layer.
        for cut in 0..full.len() {
            std::fs::write(&report.path, &full[..cut]).unwrap();
            assert!(
                HubLabels::load(&report.path, &g).is_err(),
                "prefix of {cut}/{} bytes must not load",
                full.len()
            );
        }

        // And through the store API the fallback rebuilds with the reason
        // surfaced (sample a few cuts — each rebuild is a full build).
        for cut in [0, 1, full.len() / 2, full.len() - 1] {
            std::fs::write(&report.path, &full[..cut]).unwrap();
            let (rebuilt, rep) = load_or_build(&g);
            assert_eq!(rep.source, LabelSource::Built);
            assert_eq!(rebuilt, labels);
            assert!(rep.fallback_reason.is_some(), "cut {cut} must surface why");
        }

        // The injected store IO fault forces the rebuild path even with a
        // pristine file on disk.
        let (faulted, rep) = load_or_build_with_fault(
            &g,
            &kinetic_core::FaultPlan {
                store_io_errors: true,
                ..kinetic_core::FaultPlan::none()
            },
        );
        assert_eq!(rep.source, LabelSource::Built);
        assert_eq!(faulted, labels);
        assert!(
            rep.fallback_reason
                .as_deref()
                .is_some_and(|r| r.contains("injected")),
            "injected fault must be the surfaced reason: {:?}",
            rep.fallback_reason
        );
    }
}
