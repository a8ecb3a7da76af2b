//! Loading and saving trip streams as CSV.
//!
//! The paper's input is a day of real taxi trips ("each trip t includes the
//! starting and destination coordinates t.s and t.e and the start time
//! t.time"). Users who have such a dataset can feed it to this workspace
//! through the CSV format below; the synthetic generator writes the same
//! format so that workloads can be inspected, archived and replayed.
//!
//! Two layouts are accepted, distinguished by the header:
//!
//! * **Vertex layout** (`time_s,source,destination`) — endpoints are road
//!   vertex ids, ready to simulate;
//! * **Coordinate layout** (`time_s,sx,sy,ex,ey`) — endpoints are planar
//!   coordinates in meters, pre-mapped to the nearest vertex on load
//!   exactly as the paper pre-maps GPS points.

use roadnet::{NodeLocator, Point, RoadNetwork};

use crate::demand::TripEvent;

/// Errors produced while parsing a trip CSV.
#[derive(Debug, Clone, PartialEq)]
pub enum TripCsvError {
    /// The file is empty or its header matches neither layout.
    BadHeader(String),
    /// A data line could not be parsed.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// A vertex id is outside the road network.
    UnknownVertex {
        /// 1-based line number.
        line: usize,
        /// The offending vertex id.
        vertex: u64,
    },
}

impl std::fmt::Display for TripCsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TripCsvError::BadHeader(h) => write!(f, "unrecognised trip CSV header: {h}"),
            TripCsvError::BadLine { line, message } => {
                write!(f, "trip CSV line {line}: {message}")
            }
            TripCsvError::UnknownVertex { line, vertex } => {
                write!(
                    f,
                    "trip CSV line {line}: vertex {vertex} not in the network"
                )
            }
        }
    }
}

impl std::error::Error for TripCsvError {}

/// Serialises a trip stream in the vertex layout.
pub fn trips_to_csv(trips: &[TripEvent]) -> String {
    let mut out = String::from("time_s,source,destination\n");
    for t in trips {
        out.push_str(&format!(
            "{:.3},{},{}\n",
            t.time_seconds, t.source, t.destination
        ));
    }
    out
}

/// Parses a trip stream; endpoints given as coordinates are mapped to the
/// nearest vertex of `network`. The result is sorted by submission time and
/// re-numbered in that order.
pub fn trips_from_csv(text: &str, network: &RoadNetwork) -> Result<Vec<TripEvent>, TripCsvError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| TripCsvError::BadHeader(String::new()))?;
    let header_cols: Vec<&str> = header.split(',').map(str::trim).collect();
    let vertex_layout: bool = match header_cols.as_slice() {
        ["time_s", "source", "destination"] => true,
        ["time_s", "sx", "sy", "ex", "ey"] => false,
        _ => return Err(TripCsvError::BadHeader(header.to_string())),
    };
    let locator = if vertex_layout {
        None
    } else {
        Some(NodeLocator::new(network))
    };
    let n = network.node_count() as u64;
    let mut trips = Vec::new();
    for (idx, raw) in lines {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = line.split(',').map(str::trim).collect();
        let bad = |message: String| TripCsvError::BadLine {
            line: line_no,
            message,
        };
        let text = |i: usize| {
            cols.get(i)
                .copied()
                .ok_or_else(|| bad(format!("missing field {}", header_cols[i])))
        };
        // A finite number, so a NaN or infinite coordinate cannot snap to
        // an arbitrary vertex.
        let number = |i: usize| match text(i)?.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            _ => Err(bad(format!("{}: not a finite number", header_cols[i]))),
        };
        // A whole, non-negative id: `-1`, `nan` and `1.5` name no vertex.
        let vertex = |i: usize| {
            text(i)?
                .parse::<u64>()
                .map_err(|_| bad(format!("{}: not a vertex id", header_cols[i])))
        };
        let time_seconds = number(0)?;
        if time_seconds < 0.0 {
            return Err(bad("submission time must be a non-negative number".into()));
        }
        let (source, destination) = if vertex_layout {
            let s = vertex(1)?;
            let e = vertex(2)?;
            for v in [s, e] {
                if v >= n {
                    return Err(TripCsvError::UnknownVertex {
                        line: line_no,
                        vertex: v,
                    });
                }
            }
            (s as u32, e as u32)
        } else {
            let locator = locator
                .as_ref()
                .expect("locator built for coordinate layout");
            let s = locator.nearest(Point::new(number(1)?, number(2)?));
            let e = locator.nearest(Point::new(number(3)?, number(4)?));
            (s, e)
        };
        if source == destination {
            // Degenerate trips (both endpoints snap to the same vertex) are
            // dropped, matching the generator's behaviour.
            continue;
        }
        trips.push(TripEvent {
            id: 0,
            source,
            destination,
            time_seconds,
        });
    }
    trips.sort_by(|a, b| a.time_seconds.partial_cmp(&b.time_seconds).unwrap());
    for (i, t) in trips.iter_mut().enumerate() {
        t.id = i as u64;
    }
    Ok(trips)
}

/// Reads a trip CSV file.
pub fn read_trips_file<P: AsRef<std::path::Path>>(
    path: P,
    network: &RoadNetwork,
) -> Result<Vec<TripEvent>, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)?;
    Ok(trips_from_csv(&text, network)?)
}

/// Writes a trip CSV file in the vertex layout.
pub fn write_trips_file<P: AsRef<std::path::Path>>(
    trips: &[TripEvent],
    path: P,
) -> std::io::Result<()> {
    std::fs::write(path, trips_to_csv(trips))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::city::CityConfig;
    use crate::demand::DemandConfig;

    fn network() -> RoadNetwork {
        CityConfig::small().build(3).0
    }

    #[test]
    fn vertex_layout_roundtrip() {
        let network = network();
        let demand = DemandConfig {
            trips: 40,
            ..DemandConfig::default()
        };
        let trips = demand.generate(&network, &[], 5);
        let csv = trips_to_csv(&trips);
        let back = trips_from_csv(&csv, &network).unwrap();
        assert_eq!(back.len(), trips.len());
        for (a, b) in trips.iter().zip(back.iter()) {
            assert_eq!(a.source, b.source);
            assert_eq!(a.destination, b.destination);
            assert!((a.time_seconds - b.time_seconds).abs() < 1e-3);
        }
    }

    #[test]
    fn coordinate_layout_maps_to_nearest_vertex() {
        let network = network();
        let p5 = network.point(5);
        let p40 = network.point(40);
        let csv = format!(
            "time_s,sx,sy,ex,ey\n30.0,{},{},{},{}\n",
            p5.x + 10.0,
            p5.y - 10.0,
            p40.x + 5.0,
            p40.y + 5.0
        );
        let trips = trips_from_csv(&csv, &network).unwrap();
        assert_eq!(trips.len(), 1);
        assert_eq!(trips[0].source, 5);
        assert_eq!(trips[0].destination, 40);
        assert_eq!(trips[0].time_seconds, 30.0);
    }

    #[test]
    fn unsorted_input_is_sorted_and_renumbered() {
        let network = network();
        let csv = "time_s,source,destination\n100.0,1,2\n50.0,3,4\n75.0,5,6\n";
        let trips = trips_from_csv(csv, &network).unwrap();
        let times: Vec<f64> = trips.iter().map(|t| t.time_seconds).collect();
        assert_eq!(times, vec![50.0, 75.0, 100.0]);
        assert_eq!(
            trips.iter().map(|t| t.id).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn degenerate_and_comment_lines_are_skipped() {
        let network = network();
        let csv = "time_s,source,destination\n# a comment\n10.0,7,7\n\n20.0,1,2\n";
        let trips = trips_from_csv(csv, &network).unwrap();
        assert_eq!(trips.len(), 1);
        assert_eq!(trips[0].source, 1);
    }

    #[test]
    fn errors_are_descriptive() {
        let network = network();
        assert!(matches!(
            trips_from_csv("bogus,header\n", &network),
            Err(TripCsvError::BadHeader(_))
        ));
        assert!(matches!(
            trips_from_csv("time_s,source,destination\nx,1,2\n", &network),
            Err(TripCsvError::BadLine { line: 2, .. })
        ));
        assert!(matches!(
            trips_from_csv("time_s,source,destination\n5.0,1\n", &network),
            Err(TripCsvError::BadLine { .. })
        ));
        assert!(matches!(
            trips_from_csv("time_s,source,destination\n5.0,1,999999\n", &network),
            Err(TripCsvError::UnknownVertex { vertex: 999999, .. })
        ));
        assert!(matches!(
            trips_from_csv("time_s,source,destination\n-5.0,1,2\n", &network),
            Err(TripCsvError::BadLine { .. })
        ));
        // Errors implement Display.
        let e = TripCsvError::BadHeader("h".into());
        assert!(e.to_string().contains("header"));
    }

    #[test]
    fn hostile_numbers_are_refused_naming_the_field() {
        let network = network();
        let cases = [
            ("time_s,source,destination\n5.0,-1,2\n", "source"),
            ("time_s,source,destination\n5.0,nan,2\n", "source"),
            ("time_s,source,destination\n5.0,1.5,2\n", "source"),
            ("time_s,source,destination\n5.0,1,-1\n", "destination"),
            ("time_s,source,destination\n5.0,1,nan\n", "destination"),
            ("time_s,source,destination\n5.0,1,2.5\n", "destination"),
            ("time_s,sx,sy,ex,ey\n5.0,nan,0,100,100\n", "sx"),
            ("time_s,sx,sy,ex,ey\n5.0,0,inf,100,100\n", "sy"),
            ("time_s,sx,sy,ex,ey\n5.0,0,0,-inf,100\n", "ex"),
            ("time_s,sx,sy,ex,ey\n5.0,0,0,100,NaN\n", "ey"),
            ("time_s,sx,sy,ex,ey\nnan,0,0,100,100\n", "time_s"),
        ];
        for (csv, field) in cases {
            match trips_from_csv(csv, &network) {
                Err(TripCsvError::BadLine { line: 2, message }) => {
                    assert!(message.starts_with(field), "{csv:?}: {message}")
                }
                other => panic!("{csv:?} was not refused: {other:?}"),
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let network = network();
        let demand = DemandConfig {
            trips: 10,
            ..DemandConfig::default()
        };
        let trips = demand.generate(&network, &[], 1);
        let dir = std::env::temp_dir().join("rideshare_trips_io");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trips.csv");
        write_trips_file(&trips, &path).unwrap();
        let back = read_trips_file(&path, &network).unwrap();
        assert_eq!(back.len(), trips.len());
        std::fs::remove_file(path).ok();
    }
}
