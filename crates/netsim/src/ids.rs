//! Typed identifiers for network entities.
//!
//! Newtypes prevent the classic simulator bug of indexing one table with
//! another table's id. All ids are dense indexes into their owning
//! collection, assigned at topology-build time and stable for the lifetime
//! of a [`crate::Topology`].

/// An autonomous system (eyeball ISP, transit provider, or the CDN itself).
///
/// `u32` so that generated Internet-scale worlds (up to 75k ASes, see
/// [`crate::worldgen`]) are addressable; the hand-built worlds never exceed
/// a few hundred, and every hash key derived from an id goes through
/// `u64::from`, so widening the representation changes no existing output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AsId(pub u32);

/// A CDN front-end site (a "front-end location" in the paper's terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u16);

/// A CDN border router / peering location.
///
/// The paper's case studies distinguish *border routers announcing the
/// anycast route* from *front-ends*; traffic ingresses at a border router
/// and the CDN's IGP then picks a front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BorderId(pub u16);

impl std::fmt::Display for AsId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

impl std::fmt::Display for SiteId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fe{}", self.0)
    }
}

impl std::fmt::Display for BorderId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "br{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(AsId(3).to_string(), "AS3");
        assert_eq!(SiteId(7).to_string(), "fe7");
        assert_eq!(BorderId(1).to_string(), "br1");
    }

    #[test]
    // Checks that ids hash under std's own random state; nothing is
    // iterated, so no hash order can show.
    #[allow(clippy::disallowed_methods)]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(SiteId(1));
        set.insert(SiteId(1));
        set.insert(SiteId(2));
        assert_eq!(set.len(), 2);
        assert!(SiteId(1) < SiteId(2));
    }
}
