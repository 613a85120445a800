//! Measurement slots and unique ids.
//!
//! Each beacon execution makes exactly four measurements (§3.3). A
//! measurement's globally unique id encodes both the execution counter and
//! its slot, so the server-side DNS policy can tell which of the four
//! selection rules to apply from the qname alone, and the backend can
//! regroup the four measurements of one execution after the join.

/// The four measurement slots of one beacon execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Slot {
    /// (a) the front-end selected by anycast routing.
    Anycast,
    /// (b) the front-end judged geographically closest to the LDNS.
    GeoClosest,
    /// (c) first distance-weighted random pick from the other candidates.
    Random1,
    /// (d) second distance-weighted random pick.
    Random2,
}

impl Slot {
    /// All slots in execution order.
    pub const ALL: [Slot; 4] = [
        Slot::Anycast,
        Slot::GeoClosest,
        Slot::Random1,
        Slot::Random2,
    ];

    /// Slot index in `0..4`.
    pub fn index(&self) -> u64 {
        match self {
            Slot::Anycast => 0,
            Slot::GeoClosest => 1,
            Slot::Random1 => 2,
            Slot::Random2 => 3,
        }
    }

    /// Decodes a slot from a measurement id.
    pub fn from_id(id: u64) -> Slot {
        Slot::ALL[(id & 3) as usize]
    }

    /// Builds the measurement id for execution `counter` and this slot.
    pub fn id_for(&self, counter: u64) -> u64 {
        (counter << 2) | self.index()
    }

    /// The execution counter a measurement id belongs to.
    pub fn execution_of(id: u64) -> u64 {
        id >> 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_round_trip() {
        for counter in [0u64, 1, 42, 1 << 40] {
            for slot in Slot::ALL {
                let id = slot.id_for(counter);
                assert_eq!(Slot::from_id(id), slot);
                assert_eq!(Slot::execution_of(id), counter);
            }
        }
    }

    #[test]
    fn ids_are_unique_across_slots_and_executions() {
        let mut seen = std::collections::BTreeSet::new();
        for counter in 0..100 {
            for slot in Slot::ALL {
                assert!(seen.insert(slot.id_for(counter)));
            }
        }
        assert_eq!(seen.len(), 400);
    }

    #[test]
    fn slot_order_matches_paper() {
        assert_eq!(Slot::ALL[0], Slot::Anycast);
        assert_eq!(Slot::ALL[1], Slot::GeoClosest);
    }
}
