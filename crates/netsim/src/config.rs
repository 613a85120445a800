//! Simulation parameters.
//!
//! Every knob an experiment varies lives here, with defaults calibrated so
//! the default world reproduces the paper's headline shapes (≈20% of
//! clients with a better unicast front-end; ≈55% of clients routed to
//! their closest front-end; churn of a few percent per weekday). The
//! calibration rationale for each default is given on the field. Values
//! every world shares — the latency model's constants, the peering and
//! IGP calibration, the drain and reconvergence windows — are named
//! constants beside the code that reads them (`latency`, `topology`,
//! `internet`, `outage`).

/// Parameters for topology generation, routing pathologies, churn and the
/// latency model.
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
    /// Among directly-peering ASes, the fraction whose *only* peering with
    /// the CDN is at a single (possibly distant) location — the paper's
    /// "ISP's internal policy chooses to hand off traffic at a distant
    /// peering point" pathology (Moscow→Stockholm).
    pub p_remote_peering_only: f64,
    /// Among directly-peering multi-egress ASes, the fraction whose egress
    /// policy pins all CDN traffic to one fixed regional egress instead of
    /// hot-potato (the Denver→Phoenix case).
    pub p_fixed_regional_egress: f64,
    /// Probability that a given (AS, ingress) peering adjacency is
    /// **chronically** congested: the penalty applies every day. This is
    /// the small population of prefixes Figure 6 shows poor for five or
    /// more (often consecutive) days.
    pub p_chronic_congestion: f64,
    /// Per-day probability that an otherwise healthy adjacency suffers a
    /// **transient** congestion episode. Episodes are drawn independently
    /// per day, so most last exactly one day — Figure 6's "around 60%
    /// appear for only one day over the month".
    pub p_episodic_congestion: f64,
    /// Probability that a flappy attachment point flips its route tie-break
    /// on a given weekday. Calibrated against Figure 7 *end to end*: an
    /// attachment-level flip only becomes a visible front-end switch when
    /// the alternative egress maps to a different site and the client is
    /// observed on both routes, so the attachment-level rates here are
    /// roughly 2.5× the client-visible rates the paper reports (~7% of
    /// clients switching on day one, ~21% over the week).
    pub weekday_flip_prob: f64,
    /// Same, on weekend days. Figure 7 shows churn under 0.5% on weekends
    /// ("network operators not pushing out changes during the weekend").
    pub weekend_flip_prob: f64,
    /// Fraction of (AS, metro) attachment points that are flappy at all;
    /// the rest never change routes. Figure 7 plateaus near 21% over a full
    /// week: most clients are stable.
    pub flappy_fraction: f64,
    /// Fraction of CDN border routers whose IGP cost towards some front-ends
    /// is inflated (non-geographic internal topology, §5 case study 1).
    pub p_igp_inflated: f64,
    /// Probability that a given (AS, unicast-announcement) pair carries a
    /// stable extra path penalty. The measurement /24s are announced from a
    /// single location and carry no production traffic, so ISPs neither
    /// traffic-engineer nor hot-fix their routes towards them; a sizable
    /// share of such single-prefix paths are measurably worse than the
    /// anycast path to the very same building. This is why, in the paper,
    /// only 19% of prefixes see *any* daily-median improvement even though
    /// 45% of clients are not on their geographically closest front-end.
    pub p_unicast_path_penalty: f64,
    /// Per-day probability that a border router's ingress→front-end mapping
    /// is remapped to its runner-up site for that day (internal maintenance
    /// and load management — the FastRoute-style interventions the paper
    /// cites). These are the *anycast-only* one-day events behind Figure
    /// 6's short-lived poor paths: unicast probes, pinned to their own
    /// sites, are unaffected.
    pub p_igp_episode: f64,
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
            p_remote_peering_only: 0.05,
            p_fixed_regional_egress: 0.045,
            p_chronic_congestion: 0.02,
            p_episodic_congestion: 0.07,
            weekday_flip_prob: 0.42,
            weekend_flip_prob: 0.02,
            flappy_fraction: 0.42,
            p_igp_inflated: 0.08,
            p_unicast_path_penalty: 0.55,
            p_igp_episode: 0.02,
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

    /// A pathology-free world: no remote peering, no fixed egress, no
    /// congested adjacencies, no IGP inflation, no churn. Anycast should be
    /// near-optimal here; used by ablations and as a test oracle.
    pub fn idealized() -> Self {
        NetConfig {
            p_remote_peering_only: 0.0,
            p_fixed_regional_egress: 0.0,
            p_chronic_congestion: 0.0,
            p_episodic_congestion: 0.0,
            p_igp_inflated: 0.0,
            p_unicast_path_penalty: 0.0,
            p_igp_episode: 0.0,
            flappy_fraction: 0.0,
            weekday_flip_prob: 0.0,
            weekend_flip_prob: 0.0,
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
        prob("p_remote_peering_only", self.p_remote_peering_only)?;
        prob("p_fixed_regional_egress", self.p_fixed_regional_egress)?;
        prob("p_chronic_congestion", self.p_chronic_congestion)?;
        prob("p_episodic_congestion", self.p_episodic_congestion)?;
        prob("weekday_flip_prob", self.weekday_flip_prob)?;
        prob("weekend_flip_prob", self.weekend_flip_prob)?;
        prob("flappy_fraction", self.flappy_fraction)?;
        prob("p_igp_inflated", self.p_igp_inflated)?;
        prob("p_igp_episode", self.p_igp_episode)?;
        prob("p_site_outage", self.p_site_outage)?;
        prob("p_site_drain", self.p_site_drain)?;
        prob("p_unicast_path_penalty", self.p_unicast_path_penalty)?;
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
        NetConfig::idealized().validate().unwrap();
    }

    #[test]
    fn bad_probability_rejected() {
        let cfg = NetConfig {
            p_remote_peering_only: 1.5,
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

    #[test]
    fn idealized_has_no_pathologies() {
        let cfg = NetConfig::idealized();
        assert_eq!(cfg.p_remote_peering_only, 0.0);
        assert_eq!(cfg.p_chronic_congestion, 0.0);
        assert_eq!(cfg.p_episodic_congestion, 0.0);
        assert_eq!(cfg.flappy_fraction, 0.0);
    }
}
