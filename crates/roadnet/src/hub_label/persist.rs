//! On-disk persistence of hub labels.
//!
//! A paper-scale label build takes orders of magnitude longer than loading
//! the finished arena from disk, so the build is paid once and the labels
//! reloaded on every subsequent run. The format is a direct little-endian
//! dump of the CSR arena, versioned and checksummed:
//!
//! ```text
//! offset  size        field
//! 0       4           magic  b"HLBL"
//! 4       4           format version (u32, currently 3)
//! 8       8           network fingerprint (u64, RoadNetwork::fingerprint)
//! 16      8           node count (u64)
//! 24      8           entry count (u64)
//! 32      4·n         rank_to_node (u32 per rank)
//! …       8·(n+1)     label_offsets (u64 per vertex, plus the end offset)
//! …       16·e        entries (u32 hub rank + u32 next hop + f64 distance bits each)
//! end-8   8           FNV-1a checksum over every preceding byte
//! ```
//!
//! The magic, version and checksum are the [`bin`] envelope every
//! persisted file shares. [`load`] validates everything it cannot afford
//! to trust: the envelope, that the embedded network fingerprint matches
//! the network the labels are being loaded *for* (a labeling is only exact
//! for the network it was built from — version 2 made the binding
//! explicit), the exact file length implied by the header, and the structural
//! invariants queries rely on (offsets monotone and bounded, ranks in
//! range and strictly increasing within each label, next hops in range,
//! distances finite and non-negative, `rank_to_node` a permutation).
//! Corrupt or truncated input always yields [`RoadNetError::Persist`] —
//! never a panic and never a structurally unsound `HubLabels`. Whether the
//! next hops *chain* to their hubs is not checked here:
//! [`HubLabels::path`] verifies that as it walks and answers `None` on a
//! broken chain. Files of versions 1 and 2 are rejected and must be
//! rebuilt: they carry no next-hop pointers (and version 1 no fingerprint).

use std::path::Path;

use crate::error::RoadNetError;
use crate::io::bin;

use super::{HubLabels, LabelEntry};

/// File magic: "HLBL" (hub labels).
const MAGIC: &[u8; 4] = b"HLBL";
/// Current format version. Bump on any layout change; [`load`] rejects
/// versions it does not understand. Version 2 added the network
/// fingerprint that binds a label file to the network it was built from;
/// version 3 the next-hop pointer in every entry (12 → 16 bytes each).
const VERSION: u32 = 3;

/// Serialises a labeling into the versioned binary format, stamped with the
/// fingerprint of the network the labels were built from.
pub fn to_bytes(labels: &HubLabels, fingerprint: u64) -> Vec<u8> {
    let n = labels.rank_to_node.len();
    let e = labels.entries.len();
    bin::seal(MAGIC, VERSION, |out| {
        out.reserve(24 + 4 * n + 8 * (n + 1) + 16 * e + 8);
        bin::put_u64(out, fingerprint);
        bin::put_u64(out, n as u64);
        bin::put_u64(out, e as u64);
        for &node in &labels.rank_to_node {
            bin::put_u32(out, node);
        }
        for &off in &labels.label_offsets {
            bin::put_u64(out, off as u64);
        }
        for entry in &labels.entries {
            bin::put_u32(out, entry.hub_rank);
            bin::put_u32(out, entry.parent);
            bin::put_f64(out, entry.dist);
        }
    })
}

/// Deserialises and validates a labeling from the binary format,
/// refusing files whose embedded network fingerprint differs from
/// `expected_fingerprint` — a labeling is only exact for the network it
/// was built from, so loading it against any other network would silently
/// corrupt every distance.
pub fn from_bytes(buf: &[u8], expected_fingerprint: u64) -> Result<HubLabels, RoadNetError> {
    let mut r = bin::open(buf, MAGIC, VERSION, "hub-label file")?;
    let fingerprint = r.u64("network fingerprint")?;
    if fingerprint != expected_fingerprint {
        return Err(RoadNetError::Persist(format!(
            "label file was built for a different network: file fingerprint \
             {fingerprint:#018x}, this network is {expected_fingerprint:#018x} \
             (rebuild the labels for this network)"
        )));
    }
    let n = r.u64("node count")? as usize;
    let e = r.u64("entry count")? as usize;
    // The header fixes the exact file size; check it before allocating
    // anything so a corrupt header cannot trigger a huge allocation or a
    // misaligned parse.
    let expected = 32usize
        .checked_add(4usize.checked_mul(n).ok_or_else(|| too_big(n, e))?)
        // `n + 1` cannot overflow here: `4 * n` just succeeded.
        .and_then(|s| s.checked_add(8usize.checked_mul(n + 1)?))
        .and_then(|s| s.checked_add(16usize.checked_mul(e)?))
        .and_then(|s| s.checked_add(8))
        .ok_or_else(|| too_big(n, e))?;
    if buf.len() != expected {
        return Err(RoadNetError::Persist(format!(
            "file is {} bytes but the header ({n} nodes, {e} entries) implies {expected}",
            buf.len()
        )));
    }

    let mut rank_to_node = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for rank in 0..n {
        let node = r.u32("rank_to_node")?;
        if node as usize >= n || seen[node as usize] {
            return Err(RoadNetError::Persist(format!(
                "rank_to_node is not a permutation: rank {rank} maps to node {node}"
            )));
        }
        seen[node as usize] = true;
        rank_to_node.push(node);
    }
    let mut label_offsets = Vec::with_capacity(n + 1);
    for i in 0..=n {
        let off = r.u64("label_offsets")? as usize;
        if off > e || label_offsets.last().is_some_and(|&prev| off < prev) {
            return Err(RoadNetError::Persist(format!(
                "label offset {i} is {off}: offsets must be non-decreasing and at most {e}"
            )));
        }
        label_offsets.push(off);
    }
    if label_offsets.first() != Some(&0) || label_offsets.last() != Some(&e) {
        return Err(RoadNetError::Persist(
            "label offsets must start at 0 and end at the entry count".to_string(),
        ));
    }
    let mut entries = Vec::with_capacity(e);
    for i in 0..e {
        let hub_rank = r.u32("entry hub rank")?;
        let parent = r.u32("entry next hop")?;
        let dist = r.f64("entry distance")?;
        if hub_rank as usize >= n {
            return Err(RoadNetError::Persist(format!(
                "entry {i} references hub rank {hub_rank} but there are only {n} nodes"
            )));
        }
        if parent as usize >= n {
            return Err(RoadNetError::Persist(format!(
                "entry {i} points at next hop {parent} but there are only {n} nodes"
            )));
        }
        if !dist.is_finite() || dist < 0.0 {
            return Err(RoadNetError::Persist(format!(
                "entry {i} has invalid distance {dist}"
            )));
        }
        entries.push(LabelEntry {
            hub_rank,
            parent,
            dist,
        });
    }
    debug_assert_eq!(r.remaining(), 0, "the header fixed the body's length");
    // Per-vertex labels must be strictly increasing in rank for the merge
    // intersection in queries to be correct.
    for v in 0..n {
        let label = &entries[label_offsets[v]..label_offsets[v + 1]];
        if label.windows(2).any(|w| w[0].hub_rank >= w[1].hub_rank) {
            return Err(RoadNetError::Persist(format!(
                "label of vertex {v} is not strictly rank-sorted"
            )));
        }
    }
    Ok(HubLabels {
        label_offsets,
        entries,
        rank_to_node,
    })
}

fn too_big(n: usize, e: usize) -> RoadNetError {
    RoadNetError::Persist(format!(
        "header claims {n} nodes and {e} entries, which overflows the address space"
    ))
}

/// Writes `labels` to `path` stamped with `fingerprint`, atomically
/// replacing any existing file ([`bin::write_atomic`]).
pub fn save(labels: &HubLabels, fingerprint: u64, path: &Path) -> Result<(), RoadNetError> {
    bin::write_atomic(path, &to_bytes(labels, fingerprint))
}

/// Reads a labeling written by [`save`], verifying it was built for the
/// network with the given fingerprint.
pub fn load(path: &Path, expected_fingerprint: u64) -> Result<HubLabels, RoadNetError> {
    let buf = std::fs::read(path)?;
    from_bytes(&buf, expected_fingerprint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{GeneratorConfig, NetworkKind};
    use crate::graph::RoadNetwork;

    fn sample_grid(rows: usize, cols: usize, seed: u64) -> RoadNetwork {
        GeneratorConfig {
            kind: NetworkKind::Grid { rows, cols },
            seed,
            edge_dropout: 0.05,
            ..GeneratorConfig::default()
        }
        .generate()
    }

    fn sample() -> (RoadNetwork, HubLabels) {
        let g = sample_grid(6, 7, 11);
        let labels = HubLabels::build(&g);
        (g, labels)
    }

    #[test]
    fn roundtrip_is_identical() {
        let (g, labels) = sample();
        let bytes = to_bytes(&labels, g.fingerprint());
        let back = from_bytes(&bytes, g.fingerprint()).unwrap();
        // Whole entries are compared, next hops included; spell that out
        // for one path so a format that dropped them could not pass.
        assert_eq!(back, labels);
        let t = (g.node_count() - 1) as u32;
        assert!(labels.path(0, t).is_some_and(|p| p.len() > 2));
        assert_eq!(back.path(0, t), labels.path(0, t));
    }

    /// Overwrites 4 bytes at `pos` and re-stamps the checksum, so the
    /// structural validation behind it is what has to catch the damage.
    fn patched(mut bytes: Vec<u8>, pos: usize, value: u32) -> Vec<u8> {
        bytes[pos..pos + 4].copy_from_slice(&value.to_le_bytes());
        let body = bytes.len() - 8;
        let checksum = bin::fnv1a(&bytes[..body]);
        bytes[body..].copy_from_slice(&checksum.to_le_bytes());
        bytes
    }

    #[test]
    fn out_of_range_next_hop_is_rejected() {
        let (g, labels) = sample();
        let n = g.node_count();
        let bytes = to_bytes(&labels, g.fingerprint());
        // Next hop of the first entry: past the header, `rank_to_node`,
        // the offsets and the entry's own hub rank.
        let pos = 32 + 4 * n + 8 * (n + 1) + 4;
        assert!(from_bytes(&patched(bytes.clone(), pos, n as u32 - 1), g.fingerprint()).is_ok());
        assert!(matches!(
            from_bytes(&patched(bytes, pos, n as u32), g.fingerprint()),
            Err(RoadNetError::Persist(msg)) if msg.contains("next hop")
        ));
    }

    #[test]
    fn every_truncation_is_an_error_not_a_panic() {
        let (g, labels) = sample();
        let bytes = to_bytes(&labels, g.fingerprint());
        // Cutting the file at any prefix length must produce a Persist
        // error (never a panic, never a silently wrong labeling).
        for len in 0..bytes.len() {
            match from_bytes(&bytes[..len], g.fingerprint()) {
                Err(RoadNetError::Persist(_)) => {}
                other => panic!("truncation at {len} produced {other:?}"),
            }
        }
    }

    #[test]
    fn flipped_bytes_fail_the_checksum() {
        let (g, labels) = sample();
        let bytes = to_bytes(&labels, g.fingerprint());
        // Flip one byte in several positions across the payload; headers
        // may fail their own validation first, but nothing may pass.
        for pos in [8usize, 30, bytes.len() / 2, bytes.len() - 9] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x40;
            assert!(
                matches!(
                    from_bytes(&corrupt, g.fingerprint()),
                    Err(RoadNetError::Persist(_))
                ),
                "corruption at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let (g, labels) = sample();
        let mut bytes = to_bytes(&labels, g.fingerprint());
        bytes[0] = b'X';
        assert!(matches!(
            from_bytes(&bytes, g.fingerprint()),
            Err(RoadNetError::Persist(msg)) if msg.contains("magic")
        ));
        // 99 is from the future; 2 is the 12-bytes-per-entry layout without
        // next-hop pointers, which must be rebuilt rather than misparsed.
        for (version, needle) in [(99u8, "version"), (2, "version-2")] {
            let mut bytes = to_bytes(&labels, g.fingerprint());
            bytes[4] = version;
            assert!(matches!(
                from_bytes(&bytes, g.fingerprint()),
                Err(RoadNetError::Persist(msg)) if msg.contains(needle) && msg.contains("version")
            ));
        }
    }

    #[test]
    fn labels_for_a_different_network_are_refused() {
        // The original bug: a labels file built on one grid loaded cleanly
        // against another network of any size and silently corrupted every
        // distance. The v2 fingerprint makes the mismatch a hard error.
        let (g, labels) = sample();
        let other = sample_grid(6, 7, 12); // same shape, different jitter
        let smaller = sample_grid(4, 4, 11);
        let dir = std::env::temp_dir().join("roadnet_hublabel_mismatch_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("labels.hlbl");
        labels.save(&g, &path).unwrap();
        for wrong in [&other, &smaller] {
            match HubLabels::load(&path, wrong) {
                Err(RoadNetError::Persist(msg)) => {
                    assert!(
                        msg.contains("different network"),
                        "unhelpful mismatch message: {msg}"
                    );
                }
                other => panic!("mismatched network load produced {other:?}"),
            }
        }
        // The right network still loads.
        assert_eq!(HubLabels::load(&path, &g).unwrap(), labels);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn save_load_file_roundtrip() {
        let (g, labels) = sample();
        let dir = std::env::temp_dir().join("roadnet_hublabel_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("labels.hlbl");
        labels.save(&g, &path).unwrap();
        let back = HubLabels::load(&path, &g).unwrap();
        assert_eq!(back, labels);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let (g, _) = sample();
        let err = HubLabels::load("/nonexistent/labels.hlbl", &g).unwrap_err();
        assert!(matches!(err, RoadNetError::Io(_)));
    }
}
