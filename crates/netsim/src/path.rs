//! Route paths: the hop-by-hop geographic trajectory of a request.
//!
//! The paper troubleshoots poor anycast routes with RIPE Atlas traceroutes
//! (§5). [`RoutePath`] is this simulator's equivalent observable: the ordered
//! list of waypoints a request traverses from client to front-end, each
//! tagged with the network segment it belongs to. The latency model consumes
//! the same path, so a printed traceroute always agrees with the latency the
//! client measured.

use anycast_geo::{GeoPoint, MetroId, WorldAtlas};

/// The network segment a hop belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HopKind {
    /// The client's access link (first hop).
    ClientAccess,
    /// Inside the client's ISP backbone.
    IspBackbone,
    /// Inside a transit provider's backbone.
    TransitBackbone,
    /// The peering/hand-off point into the CDN's AS (a border router).
    Peering,
    /// Inside the CDN's backbone.
    CdnBackbone,
    /// The terminating front-end.
    FrontEnd,
}

impl HopKind {
    /// Short label for traceroute-style rendering.
    pub fn label(&self) -> &'static str {
        match self {
            HopKind::ClientAccess => "access",
            HopKind::IspBackbone => "isp",
            HopKind::TransitBackbone => "transit",
            HopKind::Peering => "peering",
            HopKind::CdnBackbone => "cdn",
            HopKind::FrontEnd => "front-end",
        }
    }
}

/// One waypoint on a route.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hop {
    /// Segment this hop belongs to.
    pub kind: HopKind,
    /// Metro the hop is located in.
    pub metro: MetroId,
    /// Exact location (metro center for infrastructure, the client's own
    /// location for the first hop).
    pub location: GeoPoint,
}

/// An ordered list of hops from client to front-end.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoutePath {
    hops: Vec<Hop>,
}

impl RoutePath {
    /// Creates a path from hops. The first hop should be the client access
    /// point and the last the front-end; [`RoutePath::total_km`] and the
    /// latency model assume consecutive hops are physically adjacent
    /// segments.
    pub fn new(hops: Vec<Hop>) -> Self {
        RoutePath { hops }
    }

    /// The hops, in order.
    pub fn hops(&self) -> &[Hop] {
        &self.hops
    }

    /// Number of hops.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// Whether the path is empty.
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// Total great-circle length of the path in km (sum over consecutive
    /// hop pairs). This is the distance the latency model charges
    /// propagation for; it exceeds the client→front-end geodesic whenever
    /// routing detours — the quantity at the heart of the paper's §5 case
    /// studies.
    pub fn total_km(&self) -> f64 {
        self.hops
            .windows(2)
            .map(|w| w[0].location.haversine_km(&w[1].location))
            .sum()
    }

    /// Direct great-circle distance from the first to the last hop, in km.
    pub fn direct_km(&self) -> f64 {
        match (self.hops.first(), self.hops.last()) {
            (Some(a), Some(b)) => a.location.haversine_km(&b.location),
            _ => 0.0,
        }
    }

    /// Renders the path as a traceroute-style multi-line string using metro
    /// names from `atlas`.
    pub fn render(&self, atlas: &WorldAtlas) -> String {
        let mut out = String::new();
        let mut cumulative = 0.0;
        for (i, hop) in self.hops.iter().enumerate() {
            if i > 0 {
                cumulative += self.hops[i - 1].location.haversine_km(&hop.location);
            }
            let metro = atlas.metro(hop.metro);
            out.push_str(&format!(
                "{:>2}  {:<10} {:<18} {:>8.0} km\n",
                i + 1,
                hop.kind.label(),
                format!("{}, {}", metro.name, metro.country),
                cumulative,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anycast_geo::WorldAtlas;

    fn hop(kind: HopKind, lat: f64, lon: f64) -> Hop {
        Hop {
            kind,
            metro: MetroId(0),
            location: GeoPoint::new(lat, lon),
        }
    }

    #[test]
    fn total_km_sums_segments() {
        let path = RoutePath::new(vec![
            hop(HopKind::ClientAccess, 0.0, 0.0),
            hop(HopKind::Peering, 0.0, 10.0),
            hop(HopKind::FrontEnd, 0.0, 20.0),
        ]);
        let direct = GeoPoint::new(0.0, 0.0).haversine_km(&GeoPoint::new(0.0, 20.0));
        assert!((path.total_km() - direct).abs() < 1.0); // along the equator
        assert!((path.total_km() / path.direct_km() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn detour_shows_in_stretch() {
        // Client and front-end in the same place, detour via 10°E.
        let path = RoutePath::new(vec![
            hop(HopKind::ClientAccess, 0.0, 0.0),
            hop(HopKind::Peering, 0.0, 10.0),
            hop(HopKind::FrontEnd, 0.0, 1.0),
        ]);
        assert!(path.total_km() / path.direct_km() > 15.0);
    }

    #[test]
    fn empty_and_single_hop_paths() {
        let empty = RoutePath::default();
        assert!(empty.is_empty());
        assert_eq!(empty.total_km(), 0.0);
        assert_eq!(empty.direct_km(), 0.0);
        let single = RoutePath::new(vec![hop(HopKind::FrontEnd, 1.0, 1.0)]);
        assert_eq!(single.total_km(), 0.0);
        assert_eq!(single.direct_km(), 0.0);
    }

    #[test]
    fn degenerate_loop_has_infinite_stretch() {
        let path = RoutePath::new(vec![
            hop(HopKind::ClientAccess, 0.0, 0.0),
            hop(HopKind::Peering, 0.0, 5.0),
            hop(HopKind::FrontEnd, 0.0, 0.0),
        ]);
        assert_eq!(path.direct_km(), 0.0);
        assert!((path.total_km() / path.direct_km()).is_infinite());
    }

    #[test]
    fn render_mentions_every_hop() {
        let atlas = WorldAtlas::new();
        let path = RoutePath::new(vec![
            Hop {
                kind: HopKind::ClientAccess,
                metro: MetroId(0),
                location: GeoPoint::new(40.7, -74.0),
            },
            Hop {
                kind: HopKind::FrontEnd,
                metro: MetroId(1),
                location: GeoPoint::new(34.0, -118.2),
            },
        ]);
        let text = path.render(&atlas);
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("access"));
        assert!(text.contains("front-end"));
    }
}
