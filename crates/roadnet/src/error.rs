//! Error type for road-network construction and I/O.

use std::fmt;

/// Errors produced while building, loading or querying a road network.
#[derive(Debug, Clone, PartialEq)]
pub enum RoadNetError {
    /// An edge endpoint refers to a node id that was never added.
    UnknownNode(u32),
    /// An edge has a non-finite or negative weight.
    InvalidWeight(f64),
    /// The rounded edge weights sum to this, not below [`GRID_LIMIT`](crate::GRID_LIMIT).
    TotalWeightOutOfRange(f64),
    /// A self-loop (u, u) was added; road networks never need them and the
    /// shortest-path engines assume their absence.
    SelfLoop(u32),
    /// The network has no nodes at all.
    EmptyNetwork,
    /// A text-format line could not be parsed.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// An I/O error while reading or writing a network file.
    Io(String),
    /// A binary index file (e.g. persisted hub labels) is truncated,
    /// corrupted, or from an incompatible format version.
    Persist(String),
}

impl fmt::Display for RoadNetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoadNetError::UnknownNode(n) => write!(f, "unknown node id {n}"),
            RoadNetError::InvalidWeight(w) => write!(f, "invalid edge weight {w}"),
            RoadNetError::TotalWeightOutOfRange(w) => write!(f, "weights sum to {w} m >= 2^37 m"),
            RoadNetError::SelfLoop(n) => write!(f, "self-loop at node {n}"),
            RoadNetError::EmptyNetwork => write!(f, "road network has no nodes"),
            RoadNetError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            RoadNetError::Io(msg) => write!(f, "i/o error: {msg}"),
            RoadNetError::Persist(msg) => write!(f, "persisted index error: {msg}"),
        }
    }
}

impl std::error::Error for RoadNetError {}

impl From<std::io::Error> for RoadNetError {
    fn from(e: std::io::Error) -> Self {
        RoadNetError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert_eq!(
            RoadNetError::UnknownNode(42).to_string(),
            "unknown node id 42"
        );
        assert_eq!(RoadNetError::SelfLoop(7).to_string(), "self-loop at node 7");
        assert!(RoadNetError::Parse {
            line: 3,
            message: "bad".into()
        }
        .to_string()
        .contains("line 3"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: RoadNetError = io.into();
        assert!(matches!(e, RoadNetError::Io(_)));
    }
}
