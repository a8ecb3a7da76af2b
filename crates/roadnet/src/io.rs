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

/// Little-endian binary primitives and the one envelope every persisted
/// file uses: hub labels, simulation and serve checkpoints, and the serve
/// journal.
///
/// Writers append to a `Vec<u8>`; [`bin::Reader`] is a bounds-checked
/// cursor whose every read returns [`RoadNetError::Persist`] on truncation
/// instead of panicking, so corrupted files surface as errors.
///
/// A whole-file image is [`bin::seal`]ed: a 4-byte magic, a `u32` format
/// version, the format's body, then the FNV-1a checksum of every byte
/// before it. [`bin::open`] checks the magic, the version and the
/// checksum and hands back a [`bin::Reader`] on the body; what the body
/// binds to (network, configuration, trip stream) and how it is validated
/// stay with each format. An append-only file starts with the same
/// [`bin::header`] and then holds [`bin::put_frame`] records
/// (`[u32 len][body][u64 fnv1a(body)]`), each checked on its own by
/// [`bin::read_frame`]. [`bin::write_atomic`] replaces a file through a
/// process-unique sibling temp file and a rename, so a crash mid-write
/// leaves the previous file intact.
pub mod bin {
    use std::path::{Path, PathBuf};

    use crate::error::RoadNetError;

    /// Bytes of the magic and the version word that start every file.
    pub const HEADER_LEN: usize = 8;

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

    /// The start of a file: `magic`, then `version`.
    pub fn header(magic: &[u8; 4], version: u32) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN);
        out.extend_from_slice(magic);
        put_u32(&mut out, version);
        out
    }

    /// A whole-file image: the [`header`], the body `write_body` appends,
    /// then the FNV-1a checksum of every byte before it.
    pub fn seal(magic: &[u8; 4], version: u32, write_body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = header(magic, version);
        write_body(&mut out);
        let checksum = fnv1a(&out);
        put_u64(&mut out, checksum);
        out
    }

    /// Checks a [`header`]: the magic, then the version. `what` names the
    /// file in the error.
    pub fn read_header(
        r: &mut Reader<'_>,
        magic: &[u8; 4],
        version: u32,
        what: &str,
    ) -> Result<(), RoadNetError> {
        let found = r.bytes(4, &format!("{what} magic"))?;
        if found != magic {
            return Err(RoadNetError::Persist(format!(
                "bad magic {found:?} (expected {magic:?}); not a {what}"
            )));
        }
        let found = r.u32(&format!("{what} version"))?;
        if found != version {
            return Err(RoadNetError::Persist(format!(
                "unsupported {what} version {found}: this build reads only \
                 version-{version}, not version-{found}"
            )));
        }
        Ok(())
    }

    /// Opens an image made by [`seal`]: checks the magic and the version
    /// (so a file of another kind or age is named as such), then the
    /// checksum, and returns a reader on the body, between the header and
    /// the checksum. `what` names the file in every error.
    pub fn open<'a>(
        image: &'a [u8],
        magic: &[u8; 4],
        version: u32,
        what: &str,
    ) -> Result<Reader<'a>, RoadNetError> {
        let mut r = Reader::new(image);
        read_header(&mut r, magic, version, what)?;
        let Some((body, trailer)) = image
            .split_last_chunk::<8>()
            .filter(|(body, _)| body.len() >= HEADER_LEN)
        else {
            return Err(RoadNetError::Persist(format!(
                "truncated {what}: {} bytes hold no checksum after the header",
                image.len()
            )));
        };
        let stored = u64::from_le_bytes(*trailer);
        let computed = fnv1a(body);
        if stored != computed {
            return Err(RoadNetError::Persist(format!(
                "{what} checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            )));
        }
        Ok(Reader {
            buf: body,
            pos: HEADER_LEN,
        })
    }

    /// Appends one record of an append-only file:
    /// `[u32 len][body][u64 fnv1a(body)]`.
    pub fn put_frame(out: &mut Vec<u8>, body: &[u8]) {
        put_u32(out, body.len() as u32);
        out.extend_from_slice(body);
        put_u64(out, fnv1a(body));
    }

    /// Reads one record written by [`put_frame`] and returns its body. A
    /// frame cut short or failing its checksum — the torn tail of a crash
    /// mid-append — is an error.
    pub fn read_frame<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], RoadNetError> {
        let len = r.u32("frame length")? as usize;
        let body = r.bytes(len, "frame body")?;
        let stored = r.u64("frame checksum")?;
        if fnv1a(body) != stored {
            return Err(RoadNetError::Persist("frame checksum mismatch".to_string()));
        }
        Ok(body)
    }

    /// The temp file [`write_atomic`] writes before renaming it over
    /// `path`: a sibling named after `path` and this process, so two
    /// processes replacing one file never share it.
    pub fn temp_sibling(path: &Path) -> PathBuf {
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(format!(".tmp.{}", std::process::id()));
        path.with_file_name(name)
    }

    /// Replaces `path` with `bytes`: writes [`temp_sibling`], then renames
    /// it into place, so an interruption leaves the previous file intact.
    /// The temp file is removed when either step fails.
    pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), RoadNetError> {
        let tmp = temp_sibling(path);
        let written = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path));
        if written.is_err() {
            std::fs::remove_file(&tmp).ok();
        }
        Ok(written?)
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

    fn sealed() -> Vec<u8> {
        bin::seal(b"TEST", 7, |out| {
            bin::put_u64(out, 0x0123_4567_89ab_cdef);
            bin::put_f64(out, 2.5);
        })
    }

    fn open_sealed(image: &[u8]) -> Result<(u64, f64), RoadNetError> {
        let mut r = bin::open(image, b"TEST", 7, "test file")?;
        let out = (r.u64("word")?, r.f64("float")?);
        assert_eq!(r.remaining(), 0);
        Ok(out)
    }

    #[test]
    fn a_sealed_image_opens_to_its_body() {
        let image = sealed();
        assert_eq!(&image[..4], b"TEST");
        assert_eq!(image.len(), bin::HEADER_LEN + 16 + 8);
        assert_eq!(open_sealed(&image), Ok((0x0123_4567_89ab_cdef, 2.5)));
    }

    #[test]
    fn every_prefix_and_byte_flip_of_a_sealed_image_is_a_typed_error() {
        let image = sealed();
        for len in 0..image.len() {
            assert!(
                matches!(open_sealed(&image[..len]), Err(RoadNetError::Persist(_))),
                "prefix of {len} bytes"
            );
        }
        for pos in 0..image.len() {
            let mut flipped = image.clone();
            flipped[pos] ^= 0x01;
            assert!(
                matches!(open_sealed(&flipped), Err(RoadNetError::Persist(_))),
                "flip at byte {pos}"
            );
        }
    }

    #[test]
    fn a_wrong_magic_or_version_is_named_before_the_checksum() {
        let stamped = |magic: &[u8; 4], version: u32| bin::seal(magic, version, |_| {});
        let err = |image: Vec<u8>| match bin::open(&image, b"TEST", 7, "test file") {
            Err(RoadNetError::Persist(msg)) => msg,
            other => panic!("{other:?}"),
        };
        assert!(err(stamped(b"NOPE", 7)).contains("not a test file"));
        let old = err(stamped(b"TEST", 6));
        assert!(old.contains("unsupported test file version 6"), "{old}");
        assert!(old.contains("version-7"), "{old}");
        assert!(err(stamped(b"TEST", 8)).contains("not version-8"));
        assert!(bin::open(&stamped(b"TEST", 7), b"TEST", 7, "test file").is_ok());
    }

    #[test]
    fn every_prefix_and_byte_flip_of_a_frame_is_a_typed_error() {
        let mut frame = Vec::new();
        bin::put_frame(&mut frame, b"one journal entry");
        assert_eq!(frame.len(), 4 + 17 + 8);
        let read = |bytes: &[u8]| bin::read_frame(&mut bin::Reader::new(bytes)).map(<[u8]>::to_vec);
        assert_eq!(read(&frame), Ok(b"one journal entry".to_vec()));
        for len in 0..frame.len() {
            assert!(
                matches!(read(&frame[..len]), Err(RoadNetError::Persist(_))),
                "prefix of {len} bytes"
            );
        }
        for pos in 0..frame.len() {
            let mut flipped = frame.clone();
            flipped[pos] ^= 0x01;
            assert!(
                matches!(read(&flipped), Err(RoadNetError::Persist(_))),
                "flip at byte {pos}"
            );
        }
    }

    #[test]
    fn write_atomic_replaces_the_file_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("roadnet_write_atomic_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("image.bin");
        bin::write_atomic(&path, b"first").unwrap();
        bin::write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(!bin::temp_sibling(&path).exists());
        // A rename that fails (onto a non-empty directory) removes the temp
        // file and leaves the target as it was.
        let occupied = dir.join("occupied");
        std::fs::create_dir_all(occupied.join("inner")).unwrap();
        assert!(matches!(
            bin::write_atomic(&occupied, b"x"),
            Err(RoadNetError::Io(_))
        ));
        assert!(!bin::temp_sibling(&occupied).exists());
        assert!(occupied.join("inner").is_dir());
        std::fs::remove_dir_all(&dir).ok();
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
