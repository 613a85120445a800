//! Per-query passive log records, and the group-bys the distance
//! (Figure 4) and affinity (Figures 7–8) analyses read from a run of them.

use std::collections::{BTreeMap, HashMap};

use anycast_geo::{GeoPoint, MetroId, Region};
use anycast_netsim::{Day, Prefix24, SiteId};

/// One row of the CDN's production request log — the §3.2.1 data source for
/// the distance (Figure 4) and affinity (Figures 7–8) analyses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassiveRecord {
    /// Client /24 prefix ("we aggregated client IP addresses … into /24
    /// prefixes").
    pub prefix: Prefix24,
    /// Client's metro (from the CDN's geolocation of the client IP).
    pub metro: MetroId,
    /// Client's country code.
    pub country: &'static str,
    /// Client's continental region.
    pub region: Region,
    /// Client's (believed) location.
    pub location: GeoPoint,
    /// Front-end that served the request — for production traffic this is
    /// always the anycast-selected site.
    pub site: SiteId,
    /// Day of the request.
    pub day: Day,
    /// Seconds within the day.
    pub time_s: f64,
}

/// Query volume per prefix across `records` — the weighting the paper
/// applies "to reflect that the number of queries per /24 is heavily
/// skewed across prefixes" (§3.2).
pub fn query_volume(records: &[PassiveRecord]) -> HashMap<Prefix24, u64> {
    let mut out: HashMap<Prefix24, u64> = HashMap::new();
    for r in records {
        *out.entry(r.prefix).or_default() += 1;
    }
    out
}

/// The site that served the *majority* of a prefix's queries each day —
/// the affinity analyses track this per-day serving site. Prefixes with no
/// queries on a day are absent for that day. Ties break towards the lower
/// site id (deterministic).
pub fn daily_serving_site(records: &[PassiveRecord]) -> HashMap<Prefix24, BTreeMap<Day, SiteId>> {
    let mut counts: HashMap<(Day, Prefix24, SiteId), u64> = HashMap::new();
    for r in records {
        *counts.entry((r.day, r.prefix, r.site)).or_default() += 1;
    }
    let mut best: HashMap<(Day, Prefix24), (SiteId, u64)> = HashMap::new();
    for ((day, prefix, site), n) in counts {
        match best.get(&(day, prefix)) {
            Some(&(s, m)) if (m, std::cmp::Reverse(s)) >= (n, std::cmp::Reverse(site)) => {}
            _ => {
                best.insert((day, prefix), (site, n));
            }
        }
    }
    let mut out: HashMap<Prefix24, BTreeMap<Day, SiteId>> = HashMap::new();
    for ((day, prefix), (site, _)) in best {
        out.entry(prefix).or_default().insert(day, site);
    }
    out
}

/// All sites that served a prefix on `day`, with counts — used to detect
/// *within-day* front-end switches (Figure 7's first-day churn).
pub fn sites_seen(records: &[PassiveRecord], day: Day) -> HashMap<Prefix24, HashMap<SiteId, u64>> {
    let mut out: HashMap<Prefix24, HashMap<SiteId, u64>> = HashMap::new();
    for r in records.iter().filter(|r| r.day == day) {
        *out.entry(r.prefix).or_default().entry(r.site).or_default() += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn rec(prefix_octet: u8, site: u16, day: u32, t: f64) -> PassiveRecord {
        PassiveRecord {
            prefix: Prefix24::containing(Ipv4Addr::new(11, 0, prefix_octet, 1)),
            metro: MetroId(0),
            country: "US",
            region: Region::NorthAmerica,
            location: GeoPoint::new(40.0, -74.0),
            site: SiteId(site),
            day: Day(day),
            time_s: t,
        }
    }

    #[test]
    fn query_volume_counts_per_prefix() {
        let mut records = vec![rec(1, 0, 0, 0.0); 5];
        records.push(rec(2, 0, 0, 0.0));
        let vol = query_volume(&records);
        assert_eq!(vol[&Prefix24::containing(Ipv4Addr::new(11, 0, 1, 1))], 5);
        assert_eq!(vol[&Prefix24::containing(Ipv4Addr::new(11, 0, 2, 1))], 1);
    }

    #[test]
    fn daily_serving_site_majority_wins() {
        let records = [rec(1, 0, 0, 0.0), rec(1, 7, 0, 1.0), rec(1, 7, 0, 2.0)];
        let sites = daily_serving_site(&records);
        let p = Prefix24::containing(Ipv4Addr::new(11, 0, 1, 1));
        assert_eq!(sites[&p][&Day(0)], SiteId(7));
    }

    #[test]
    fn daily_serving_site_tie_breaks_low_id() {
        // A tie on each of two days, the low id first on one and last on
        // the other; the other day's records never count.
        let records = [
            rec(1, 9, 0, 0.0),
            rec(1, 2, 0, 1.0),
            rec(1, 4, 1, 0.0),
            rec(1, 6, 1, 1.0),
            rec(1, 6, 0, 2.0),
            rec(1, 4, 0, 3.0),
        ];
        let sites = daily_serving_site(&records);
        let p = Prefix24::containing(Ipv4Addr::new(11, 0, 1, 1));
        assert_eq!(sites[&p][&Day(0)], SiteId(2));
        assert_eq!(sites[&p][&Day(1)], SiteId(4));
    }

    #[test]
    fn sites_seen_detects_multi_site_days() {
        let records = [
            rec(1, 0, 0, 0.0),
            rec(1, 3, 0, 1.0),
            rec(2, 0, 0, 2.0),
            rec(2, 5, 1, 0.0),
        ];
        let seen = sites_seen(&records, Day(0));
        let p1 = Prefix24::containing(Ipv4Addr::new(11, 0, 1, 1));
        let p2 = Prefix24::containing(Ipv4Addr::new(11, 0, 2, 1));
        assert_eq!(seen[&p1].len(), 2);
        assert_eq!(seen[&p2].len(), 1);
    }

    #[test]
    fn no_records_no_groups() {
        assert!(query_volume(&[]).is_empty());
        assert!(daily_serving_site(&[]).is_empty());
        assert!(sites_seen(&[], Day(0)).is_empty());
    }

    #[test]
    fn record_is_plain_data() {
        let r = PassiveRecord {
            prefix: Prefix24::containing(Ipv4Addr::new(11, 0, 0, 1)),
            metro: MetroId(3),
            country: "US",
            region: Region::NorthAmerica,
            location: GeoPoint::new(40.0, -74.0),
            site: SiteId(1),
            day: Day(0),
            time_s: 120.0,
        };
        let copy = r;
        assert_eq!(copy, r);
    }
}
