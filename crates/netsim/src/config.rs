//! Simulation parameters.
//!
//! Every knob an experiment varies lives here: the world's size, failure
//! injection and the policy-world generator. Values every world shares —
//! the latency model's constants and congestion rates, the peering and IGP
//! calibration, the churn rates, the drain and reconvergence windows — are
//! named constants beside the code that reads them (`latency`, `topology`,
//! `internet`, `churn`, `outage`), calibrated so the default world
//! reproduces the paper's headline shapes (≈20% of clients with a better
//! unicast front-end; ≈55% of clients routed to their closest front-end;
//! churn of a few percent per weekday).

/// Parameters for topology generation and failure injection.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Number of CDN front-end sites. The paper's CDN has "dozens of front
    /// end locations" and is compared to Level3 (62) and MaxCDN; default 44.
    pub n_sites: usize,
    /// Number of additional CDN peering locations that host a border router
    /// but no front-end. These create the §5 case-study gap between where
    /// traffic ingresses and where front-ends are.
    pub n_extra_borders: usize,
    /// Number of transit (tier-1-like) providers with global footprints.
    pub n_transit: usize,
    /// Number of metros in each transit provider's backbone.
    pub transit_pops: usize,
    /// Number of eyeball (access) ASes hosting clients.
    pub n_eyeball: usize,
    /// Per-day probability that a front-end site suffers an **unplanned
    /// outage** (crash): its anycast announcement is withdrawn reactively,
    /// so the old catchment blackholes until BGP reconverges, and its
    /// unicast prefix points at a dead machine for the whole window.
    /// Default 0 — failure worlds are opt-in and the default world is
    /// byte-identical to pre-failure builds.
    pub p_site_outage: f64,
    /// Per-day probability that a site is taken down for a **maintenance
    /// drain** (pre-announced withdrawal; anycast clients move losslessly
    /// before the site goes dark). Rolled only on days without an outage.
    pub p_site_drain: f64,
    /// Duration of an unplanned outage window, seconds (≤ one day; windows
    /// never span midnight).
    pub outage_duration_s: f64,
    /// Present: generate an Internet-scale policy-routed AS graph
    /// ([`crate::worldgen`]) instead of the default small world, and route
    /// by valley-free best-path selection instead of distance ranking.
    /// `None` (the default) keeps every existing world byte-identical.
    pub worldgen: Option<crate::worldgen::WorldGenConfig>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            n_sites: 44,
            n_extra_borders: 10,
            n_transit: 6,
            transit_pops: 50,
            n_eyeball: 160,
            p_site_outage: 0.0,
            p_site_drain: 0.0,
            outage_duration_s: 7_200.0,
            worldgen: None,
        }
    }
}

impl NetConfig {
    /// A small world for fast unit tests: fewer sites and ASes, same
    /// mechanisms.
    pub fn small() -> Self {
        NetConfig {
            n_sites: 12,
            n_extra_borders: 4,
            n_transit: 3,
            transit_pops: 20,
            n_eyeball: 40,
            ..Default::default()
        }
    }

    /// Validates parameter ranges, returning a description of the first
    /// violated constraint. Called by `Internet::new` so a bad sweep
    /// parameter fails loudly at construction time, not as a NaN ten
    /// minutes into an experiment.
    pub fn validate(&self) -> Result<(), String> {
        fn prob(name: &str, v: f64) -> Result<(), String> {
            if (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(format!("{name} must be a probability, got {v}"))
            }
        }
        if self.n_sites == 0 {
            return Err("n_sites must be at least 1".into());
        }
        if self.n_eyeball == 0 {
            return Err("n_eyeball must be at least 1".into());
        }
        prob("p_site_outage", self.p_site_outage)?;
        prob("p_site_drain", self.p_site_drain)?;
        if !(self.outage_duration_s > 0.0 && self.outage_duration_s <= 86_400.0) {
            return Err(format!(
                "outage_duration_s must be in (0, 86400], got {}",
                self.outage_duration_s
            ));
        }
        if let Some(wg) = &self.worldgen {
            wg.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        NetConfig::default().validate().unwrap();
        NetConfig::small().validate().unwrap();
    }

    #[test]
    fn bad_probability_rejected() {
        let cfg = NetConfig {
            p_site_outage: 1.5,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_sites_rejected() {
        let cfg = NetConfig {
            n_sites: 0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn failure_knobs_default_off_and_validate() {
        let cfg = NetConfig::default();
        assert_eq!(cfg.p_site_outage, 0.0);
        assert_eq!(cfg.p_site_drain, 0.0);
        let bad = NetConfig {
            outage_duration_s: 200_000.0,
            ..NetConfig::default()
        };
        assert!(bad.validate().is_err());
        let ok = NetConfig {
            p_site_outage: 0.3,
            p_site_drain: 0.1,
            ..NetConfig::small()
        };
        ok.validate().unwrap();
    }
}
