//! Plain-text serialisation of road networks.
//!
//! The format is a line-oriented text file, easy to produce from OSM
//! extracts or other datasets:
//!
//! ```text
//! # comment lines start with '#'
//! v <x> <y>          # one per node, in node-id order
//! e <u> <v> <weight> # one per undirected edge
//! ```
//!
//! Coordinates and weights are in meters. [`parse_network`] reads the format
//! from any string; [`read_network_file`]/[`write_network_file`] wrap file
//! I/O around it.

use std::fmt::Write as _;
use std::path::Path;

use crate::error::RoadNetError;
use crate::graph::{GraphBuilder, RoadNetwork};
use crate::types::Point;

/// Parses the text format into a road network.
pub fn parse_network(text: &str) -> Result<RoadNetwork, RoadNetError> {
    let mut builder = GraphBuilder::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let tag = parts.next().unwrap_or_default();
        match tag {
            "v" => {
                let x = parse_f64(parts.next(), line_no, "x coordinate")?;
                let y = parse_f64(parts.next(), line_no, "y coordinate")?;
                builder.add_node(Point::new(x, y));
            }
            "e" => {
                let u = parse_u32(parts.next(), line_no, "source node")?;
                let v = parse_u32(parts.next(), line_no, "target node")?;
                let w = parse_f64(parts.next(), line_no, "weight")?;
                builder.add_edge(u, v, w);
            }
            other => {
                return Err(RoadNetError::Parse {
                    line: line_no,
                    message: format!("unknown record tag '{other}'"),
                })
            }
        }
        if parts.next().is_some() {
            return Err(RoadNetError::Parse {
                line: line_no,
                message: "trailing fields on line".to_string(),
            });
        }
    }
    builder.try_build()
}

/// Serialises a network into the text format.
pub fn write_network(graph: &RoadNetwork) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# road network: {} nodes, {} edges",
        graph.node_count(),
        graph.edge_count()
    );
    for p in graph.points() {
        let _ = writeln!(out, "v {} {}", p.x, p.y);
    }
    for (u, v, w) in graph.edges() {
        let _ = writeln!(out, "e {u} {v} {w}");
    }
    out
}

/// Reads a network from a file in the text format.
pub fn read_network_file<P: AsRef<Path>>(path: P) -> Result<RoadNetwork, RoadNetError> {
    let text = std::fs::read_to_string(path)?;
    parse_network(&text)
}

/// Writes a network to a file in the text format.
pub fn write_network_file<P: AsRef<Path>>(
    graph: &RoadNetwork,
    path: P,
) -> Result<(), RoadNetError> {
    std::fs::write(path, write_network(graph))?;
    Ok(())
}

/// Little-endian binary primitives shared by the on-disk index formats
/// (currently the hub-label arena in [`crate::hub_label::persist`]).
///
/// Writers append to a `Vec<u8>`; [`bin::Reader`] is a bounds-checked
/// cursor whose every read returns [`RoadNetError::Persist`] on truncation
/// instead of panicking, so corrupted files surface as errors.
pub mod bin {
    use crate::error::RoadNetError;

    /// Appends a `u32` in little-endian byte order.
    pub fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` in little-endian byte order.
    pub fn put_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its little-endian IEEE-754 bit pattern.
    pub fn put_f64(out: &mut Vec<u8>, v: f64) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    /// 64-bit FNV-1a over `bytes`; the checksum the binary formats embed.
    pub fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Bounds-checked little-endian reader over a byte buffer.
    #[derive(Debug, Clone)]
    pub struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        /// Starts reading at the beginning of `buf`.
        pub fn new(buf: &'a [u8]) -> Self {
            Reader { buf, pos: 0 }
        }

        /// Bytes not yet consumed.
        pub fn remaining(&self) -> usize {
            self.buf.len() - self.pos
        }

        /// Consumes `n` raw bytes, erring with a message naming `what` when
        /// the buffer is too short.
        pub fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], RoadNetError> {
            if self.remaining() < n {
                return Err(RoadNetError::Persist(format!(
                    "truncated file: need {n} bytes for {what} at offset {}, {} left",
                    self.pos,
                    self.remaining()
                )));
            }
            let slice = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(slice)
        }

        /// Reads a little-endian `u32`.
        pub fn u32(&mut self, what: &str) -> Result<u32, RoadNetError> {
            let b = self.bytes(4, what)?;
            Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
        }

        /// Reads a little-endian `u64`.
        pub fn u64(&mut self, what: &str) -> Result<u64, RoadNetError> {
            let b = self.bytes(8, what)?;
            Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
        }

        /// Reads a little-endian IEEE-754 `f64`.
        pub fn f64(&mut self, what: &str) -> Result<f64, RoadNetError> {
            let b = self.bytes(8, what)?;
            Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
        }
    }
}

fn parse_f64(field: Option<&str>, line: usize, what: &str) -> Result<f64, RoadNetError> {
    field
        .ok_or_else(|| RoadNetError::Parse {
            line,
            message: format!("missing {what}"),
        })?
        .parse()
        .map_err(|_| RoadNetError::Parse {
            line,
            message: format!("invalid {what}"),
        })
}

fn parse_u32(field: Option<&str>, line: usize, what: &str) -> Result<u32, RoadNetError> {
    field
        .ok_or_else(|| RoadNetError::Parse {
            line,
            message: format!("missing {what}"),
        })?
        .parse()
        .map_err(|_| RoadNetError::Parse {
            line,
            message: format!("invalid {what}"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{GeneratorConfig, NetworkKind};

    #[test]
    fn parse_minimal_network() {
        let text = "# demo\nv 0 0\nv 100 0\nv 100 100\ne 0 1 100\ne 1 2 100.5\n";
        let g = parse_network(text).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.edge_weight(1, 2), Some(100.5));
        assert_eq!(g.point(1).x, 100.0);
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let cfg = GeneratorConfig {
            kind: NetworkKind::Grid { rows: 5, cols: 4 },
            seed: 6,
            ..GeneratorConfig::default()
        };
        let g = cfg.generate();
        let text = write_network(&g);
        let back = parse_network(&text).unwrap();
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.edge_count(), g.edge_count());
        for (a, b) in g.edges().zip(back.edges()) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1, b.1);
            assert_eq!(a.2, b.2);
        }
    }

    #[test]
    fn parse_errors_are_reported_with_line_numbers() {
        let bad_tag = "v 0 0\nx 1 2\n";
        match parse_network(bad_tag) {
            Err(RoadNetError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        let missing_field = "v 0\n";
        assert!(matches!(
            parse_network(missing_field),
            Err(RoadNetError::Parse { line: 1, .. })
        ));
        let bad_number = "v 0 zero\n";
        assert!(matches!(
            parse_network(bad_number),
            Err(RoadNetError::Parse { line: 1, .. })
        ));
        let trailing = "v 0 0 9\n";
        assert!(matches!(
            parse_network(trailing),
            Err(RoadNetError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn invalid_topology_is_rejected_after_parse() {
        let self_loop = "v 0 0\nv 1 1\ne 0 0 1\n";
        assert!(matches!(
            parse_network(self_loop),
            Err(RoadNetError::SelfLoop(0))
        ));
        let unknown = "v 0 0\ne 0 7 1\n";
        assert!(matches!(
            parse_network(unknown),
            Err(RoadNetError::UnknownNode(7))
        ));
        // Finite weights past the grid's exact range: refused, typed.
        for huge in ["1e300", "1.7976931348623157e308", "137438953472"] {
            let text = format!("v 0 0\nv 1 1\ne 0 1 {huge}\n");
            assert!(
                matches!(
                    parse_network(&text),
                    Err(RoadNetError::TotalWeightOutOfRange(_))
                ),
                "{huge}"
            );
        }
    }

    #[test]
    fn file_roundtrip() {
        let cfg = GeneratorConfig {
            kind: NetworkKind::Grid { rows: 3, cols: 3 },
            seed: 1,
            ..GeneratorConfig::default()
        };
        let g = cfg.generate();
        let dir = std::env::temp_dir().join("roadnet_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.txt");
        write_network_file(&g, &path).unwrap();
        let back = read_network_file(&path).unwrap();
        assert_eq!(back.node_count(), g.node_count());
        std::fs::remove_file(path).ok();
    }
}
