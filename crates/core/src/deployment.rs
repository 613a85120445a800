//! The CDN deployment: its sites, as a service-level view.
//!
//! `anycast-netsim` knows the CDN as routers and links; this module is the
//! CDN *service* view the paper operates at: named front-end locations
//! (§3.1), plus the geographic queries the figures need (distance from a
//! client to its Nth-closest front-end, Figure 2).

use anycast_geo::{GeoPoint, NearestIndex};
use anycast_netsim::{Internet, SiteId};

/// One front-end location, as presented in reports.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontEnd {
    /// Site id.
    pub site: SiteId,
    /// Metro name ("Seattle, US").
    pub label: String,
    /// Location.
    pub location: GeoPoint,
}

/// The deployment: front-ends and their nearest-site index.
#[derive(Debug, Clone)]
pub struct Deployment {
    front_ends: Vec<FrontEnd>,
    index: NearestIndex<SiteId>,
}

impl Deployment {
    /// Builds the deployment view of a simulated world.
    pub fn of(internet: &Internet) -> Deployment {
        let topo = internet.topology();
        let front_ends: Vec<FrontEnd> = topo
            .cdn
            .site_ids()
            .map(|s| {
                let metro = topo.atlas.metro(topo.cdn.site_metro(s));
                FrontEnd {
                    site: s,
                    label: format!("{}, {}", metro.name, metro.country),
                    location: metro.location(),
                }
            })
            .collect();
        let index = NearestIndex::new(front_ends.iter().map(|f| (f.site, f.location)).collect());
        Deployment { front_ends, index }
    }

    /// All front-ends.
    pub fn front_ends(&self) -> &[FrontEnd] {
        &self.front_ends
    }

    /// Number of locations — the §4 size statistic.
    pub fn size(&self) -> usize {
        self.front_ends.len()
    }

    /// Nearest-k front-ends to a point, `(site, km)` ascending.
    pub fn nearest(&self, from: &GeoPoint, k: usize) -> Vec<(SiteId, f64)> {
        self.index.k_nearest(from, k)
    }

    /// Distance to the n-th closest front-end (1-based) — Figure 2's
    /// quantity.
    pub fn distance_to_nth_km(&self, from: &GeoPoint, n: usize) -> Option<f64> {
        self.index.distance_to_nth(from, n)
    }

    /// The front-end record for a site.
    pub fn front_end(&self, site: SiteId) -> &FrontEnd {
        &self.front_ends[site.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anycast_netsim::NetConfig;

    fn deployment() -> Deployment {
        let net = Internet::new(NetConfig::small(), 2).unwrap();
        Deployment::of(&net)
    }

    #[test]
    fn size_matches_topology() {
        let d = deployment();
        assert_eq!(d.size(), NetConfig::small().n_sites);
    }

    #[test]
    fn labels_are_human_readable() {
        let d = deployment();
        for f in d.front_ends() {
            assert!(f.label.contains(", "), "{}", f.label);
        }
    }

    #[test]
    fn nearest_ordering_holds() {
        let d = deployment();
        let p = GeoPoint::new(48.85, 2.35);
        let near = d.nearest(&p, 5);
        assert_eq!(near.len(), 5);
        for w in near.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(d.distance_to_nth_km(&p, 1), Some(near[0].1));
        assert_eq!(d.distance_to_nth_km(&p, 5), Some(near[4].1));
    }

    #[test]
    fn front_end_lookup_is_by_site_id() {
        let d = deployment();
        for f in d.front_ends() {
            assert_eq!(d.front_end(f.site).site, f.site);
        }
    }
}
