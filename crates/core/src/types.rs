//! Fundamental identifiers and value types of the scheduling core.

use roadnet::NodeId;

/// Identifier of a trip request, unique within a simulation run.
pub type TripId = u64;

/// Costs, distances and (meter-equivalent) times.
///
/// Everything in the scheduling core is expressed in meters. The paper uses
/// a constant driving speed of 14 m/s, so a waiting time of 10 minutes is
/// the 8,400 m the paper rounds to "8,500 meters"; the simulation crate
/// performs the seconds-to-meters conversion at its boundary and the core
/// never needs wall-clock units.
pub type Cost = f64;

/// Whether a scheduled stop picks a passenger up or drops one off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StopKind {
    /// Passenger boards the vehicle at this stop.
    Pickup,
    /// Passenger leaves the vehicle at this stop.
    Dropoff,
}

/// One stop of a trip schedule: a pickup or drop-off of a specific trip at a
/// specific road-network vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Stop {
    /// The trip being served.
    pub trip: TripId,
    /// Pickup or drop-off.
    pub kind: StopKind,
    /// Road-network vertex of the stop.
    pub node: NodeId,
}

impl Stop {
    /// Creates a pickup stop.
    pub fn pickup(trip: TripId, node: NodeId) -> Self {
        Stop {
            trip,
            kind: StopKind::Pickup,
            node,
        }
    }

    /// Creates a drop-off stop.
    pub fn dropoff(trip: TripId, node: NodeId) -> Self {
        Stop {
            trip,
            kind: StopKind::Dropoff,
            node,
        }
    }

    /// True if this stop is a pickup.
    pub fn is_pickup(&self) -> bool {
        self.kind == StopKind::Pickup
    }

    /// True if this stop is a drop-off.
    pub fn is_dropoff(&self) -> bool {
        self.kind == StopKind::Dropoff
    }
}

impl std::fmt::Display for Stop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            StopKind::Pickup => write!(f, "s{}@{}", self.trip, self.node),
            StopKind::Dropoff => write!(f, "e{}@{}", self.trip, self.node),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_predicates() {
        let p = Stop::pickup(3, 17);
        let d = Stop::dropoff(3, 21);
        assert!(p.is_pickup() && !p.is_dropoff());
        assert!(d.is_dropoff() && !d.is_pickup());
        assert_eq!(p.trip, 3);
        assert_eq!(d.node, 21);
        assert_ne!(p, d);
    }

    #[test]
    fn display_uses_paper_notation() {
        assert_eq!(Stop::pickup(2, 5).to_string(), "s2@5");
        assert_eq!(Stop::dropoff(2, 9).to_string(), "e2@9");
    }
}
