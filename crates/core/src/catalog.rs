//! The §4 CDN size comparison.
//!
//! "We examine 21 CDNs and content providers for which there is publicly
//! available data." The paper's point: thousand-site deployments (Google,
//! Akamai) are the *exception*; most CDNs — including the anycast CDNs and
//! the studied Bing deployment — operate a few dozen locations. This table
//! embeds the counts the paper reports so the comparison can be regenerated
//! as `table-cdn-sizes`.

/// How a CDN directs clients to front-ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedirectionKind {
    /// BGP anycast.
    Anycast,
    /// DNS-based redirection.
    Dns,
    /// Not publicly documented.
    Unknown,
}

/// One row of the comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdnEntry {
    /// CDN or content-provider name.
    pub name: &'static str,
    /// Number of front-end locations (lower bound where the paper says
    /// "over N").
    pub locations: u32,
    /// Whether the count is a lower bound ("over 1000").
    pub lower_bound: bool,
    /// Redirection mechanism, where known.
    pub redirection: RedirectionKind,
    /// Whether the paper calls this deployment out as an extreme outlier
    /// (the China-centric and hyperscale deployments).
    pub outlier: bool,
}

/// The 21-CDN comparison (§4), plus the studied deployment itself.
pub const CDN_CATALOG: &[CdnEntry] = &[
    CdnEntry {
        name: "Google",
        locations: 1000,
        lower_bound: true,
        redirection: RedirectionKind::Dns,
        outlier: true,
    },
    CdnEntry {
        name: "Akamai",
        locations: 1000,
        lower_bound: true,
        redirection: RedirectionKind::Dns,
        outlier: true,
    },
    CdnEntry {
        name: "ChinaNetCenter",
        locations: 100,
        lower_bound: true,
        redirection: RedirectionKind::Unknown,
        outlier: true,
    },
    CdnEntry {
        name: "ChinaCache",
        locations: 100,
        lower_bound: true,
        redirection: RedirectionKind::Unknown,
        outlier: true,
    },
    CdnEntry {
        name: "CDNetworks",
        locations: 161,
        lower_bound: false,
        redirection: RedirectionKind::Dns,
        outlier: false,
    },
    CdnEntry {
        name: "SkyparkCDN",
        locations: 119,
        lower_bound: false,
        redirection: RedirectionKind::Unknown,
        outlier: false,
    },
    CdnEntry {
        name: "Level3",
        locations: 62,
        lower_bound: false,
        redirection: RedirectionKind::Dns,
        outlier: false,
    },
    CdnEntry {
        name: "Bing CDN (studied)",
        locations: 44,
        lower_bound: false,
        redirection: RedirectionKind::Anycast,
        outlier: false,
    },
    CdnEntry {
        name: "CloudFlare",
        locations: 43,
        lower_bound: false,
        redirection: RedirectionKind::Anycast,
        outlier: false,
    },
    CdnEntry {
        name: "CacheFly",
        locations: 41,
        lower_bound: false,
        redirection: RedirectionKind::Anycast,
        outlier: false,
    },
    CdnEntry {
        name: "Amazon CloudFront",
        locations: 37,
        lower_bound: false,
        redirection: RedirectionKind::Dns,
        outlier: false,
    },
    CdnEntry {
        name: "EdgeCast",
        locations: 31,
        lower_bound: false,
        redirection: RedirectionKind::Anycast,
        outlier: false,
    },
    CdnEntry {
        name: "MaxCDN",
        locations: 30,
        lower_bound: false,
        redirection: RedirectionKind::Dns,
        outlier: false,
    },
    CdnEntry {
        name: "Fastly",
        locations: 28,
        lower_bound: false,
        redirection: RedirectionKind::Unknown,
        outlier: false,
    },
    CdnEntry {
        name: "Incapsula",
        locations: 27,
        lower_bound: false,
        redirection: RedirectionKind::Anycast,
        outlier: false,
    },
    CdnEntry {
        name: "KeyCDN",
        locations: 25,
        lower_bound: false,
        redirection: RedirectionKind::Unknown,
        outlier: false,
    },
    CdnEntry {
        name: "Limelight",
        locations: 24,
        lower_bound: false,
        redirection: RedirectionKind::Dns,
        outlier: false,
    },
    CdnEntry {
        name: "Highwinds",
        locations: 23,
        lower_bound: false,
        redirection: RedirectionKind::Unknown,
        outlier: false,
    },
    CdnEntry {
        name: "CDN77",
        locations: 21,
        lower_bound: false,
        redirection: RedirectionKind::Unknown,
        outlier: false,
    },
    CdnEntry {
        name: "LeaseWeb",
        locations: 19,
        lower_bound: false,
        redirection: RedirectionKind::Unknown,
        outlier: false,
    },
    CdnEntry {
        name: "OnApp",
        locations: 18,
        lower_bound: false,
        redirection: RedirectionKind::Unknown,
        outlier: false,
    },
    CdnEntry {
        name: "CDNify",
        locations: 17,
        lower_bound: false,
        redirection: RedirectionKind::Unknown,
        outlier: false,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_at_least_21_entries() {
        assert!(CDN_CATALOG.len() >= 21);
    }

    #[test]
    fn paper_quoted_counts_are_present() {
        let find = |n: &str| CDN_CATALOG.iter().find(|e| e.name == n).unwrap();
        assert_eq!(find("CDNetworks").locations, 161);
        assert_eq!(find("SkyparkCDN").locations, 119);
        assert_eq!(find("Level3").locations, 62);
        assert_eq!(find("CloudFlare").locations, 43);
        assert_eq!(find("CacheFly").locations, 41);
        assert_eq!(find("Amazon CloudFront").locations, 37);
        assert_eq!(find("EdgeCast").locations, 31);
        assert_eq!(find("CDNify").locations, 17);
        assert!(find("Google").lower_bound && find("Google").locations >= 1000);
    }

    #[test]
    fn anycast_cdns_flagged() {
        for name in ["CloudFlare", "CacheFly", "EdgeCast", "Bing CDN (studied)"] {
            let e = CDN_CATALOG.iter().find(|e| e.name == name).unwrap();
            assert_eq!(e.redirection, RedirectionKind::Anycast, "{name}");
        }
    }

    #[test]
    fn mainstream_range_matches_paper() {
        // "The remaining 17 CDNs … have between 17 locations (CDNify) and
        // 62 locations (Level3)" — after excluding the two mid-size DNS
        // CDNs above that range.
        let mainstream = || CDN_CATALOG.iter().filter(|e| !e.outlier);
        let max_small = mainstream()
            .filter(|e| e.locations <= 62)
            .map(|e| e.locations)
            .max()
            .unwrap();
        let min = mainstream().map(|e| e.locations).min().unwrap();
        assert_eq!(max_small, 62);
        assert_eq!(min, 17);
    }

    #[test]
    fn studied_cdn_is_level3_maxcdn_scale() {
        let bing = CDN_CATALOG
            .iter()
            .find(|e| e.name.starts_with("Bing"))
            .unwrap();
        assert!(bing.locations >= 30 && bing.locations <= 62);
    }
}
