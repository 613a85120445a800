//! Per-query passive log records, and the group-bys the distance
//! (Figure 4) and affinity (Figures 7–8) analyses read from a run of them.
//!
//! A record names its client by index into the scenario's population
//! (`Scenario::clients`), so every group-by is a per-client array indexed
//! the same way, and the client's own facts (metro, country, believed
//! location) are read from the population by that index.

use std::collections::BTreeMap;

use anycast_netsim::{Day, SiteId};

/// One row of the CDN's production request log — the §3.2.1 data source for
/// the distance (Figure 4) and affinity (Figures 7–8) analyses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassiveRecord {
    /// Client /24, as its index in the scenario's population ("we
    /// aggregated client IP addresses … into /24 prefixes").
    pub client: u32,
    /// Front-end that served the request — for production traffic this is
    /// always the anycast-selected site.
    pub site: SiteId,
    /// Day of the request.
    pub day: Day,
    /// Seconds within the day.
    pub time_s: f64,
}

const _: () = assert!(std::mem::size_of::<PassiveRecord>() == 24);

/// Query volume per client across `records`, indexed by client — the
/// weighting the paper applies "to reflect that the number of queries per
/// /24 is heavily skewed across prefixes" (§3.2).
pub fn query_volume(records: &[PassiveRecord], n_clients: usize) -> Vec<u64> {
    let mut out = vec![0; n_clients];
    for r in records {
        out[r.client as usize] += 1;
    }
    out
}

/// The site that served the *majority* of a client's queries each day,
/// indexed by client — the affinity analyses track this per-day serving
/// site. A client with no queries on a day has no entry for that day. Ties
/// break towards the lower site id (deterministic).
pub fn daily_serving_site(
    records: &[PassiveRecord],
    n_clients: usize,
) -> Vec<BTreeMap<Day, SiteId>> {
    let mut counts: Vec<BTreeMap<(Day, SiteId), u64>> = vec![BTreeMap::new(); n_clients];
    for r in records {
        *counts[r.client as usize]
            .entry((r.day, r.site))
            .or_default() += 1;
    }
    counts
        .into_iter()
        .map(|counts| {
            // Sites ascend within a day, so a later site wins only on a
            // strictly larger count.
            let mut best: BTreeMap<Day, (SiteId, u64)> = BTreeMap::new();
            for ((day, site), n) in counts {
                let b = best.entry(day).or_insert((site, n));
                if n > b.1 {
                    *b = (site, n);
                }
            }
            best.into_iter()
                .map(|(day, (site, _))| (day, site))
                .collect()
        })
        .collect()
}

/// All sites that served a client on `day`, with counts, indexed by client
/// — used to detect *within-day* front-end switches (Figure 7's first-day
/// churn).
pub fn sites_seen(
    records: &[PassiveRecord],
    day: Day,
    n_clients: usize,
) -> Vec<BTreeMap<SiteId, u64>> {
    let mut out = vec![BTreeMap::new(); n_clients];
    for r in records.iter().filter(|r| r.day == day) {
        *out[r.client as usize].entry(r.site).or_default() += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(client: u32, site: u16, day: u32, t: f64) -> PassiveRecord {
        PassiveRecord {
            client,
            site: SiteId(site),
            day: Day(day),
            time_s: t,
        }
    }

    #[test]
    fn query_volume_counts_per_prefix() {
        let mut records = vec![rec(1, 0, 0, 0.0); 5];
        records.push(rec(2, 0, 0, 0.0));
        assert_eq!(query_volume(&records, 4), [0, 5, 1, 0]);
    }

    #[test]
    fn daily_serving_site_majority_wins() {
        let records = [rec(1, 0, 0, 0.0), rec(1, 7, 0, 1.0), rec(1, 7, 0, 2.0)];
        let sites = daily_serving_site(&records, 2);
        assert_eq!(sites[1][&Day(0)], SiteId(7));
        assert!(sites[0].is_empty());
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
        let sites = daily_serving_site(&records, 2);
        assert_eq!(sites[1][&Day(0)], SiteId(2));
        assert_eq!(sites[1][&Day(1)], SiteId(4));
    }

    #[test]
    fn sites_seen_detects_multi_site_days() {
        let records = [
            rec(1, 0, 0, 0.0),
            rec(1, 3, 0, 1.0),
            rec(2, 0, 0, 2.0),
            rec(2, 5, 1, 0.0),
        ];
        let seen = sites_seen(&records, Day(0), 3);
        assert_eq!(seen[1].len(), 2);
        assert_eq!(seen[2].len(), 1);
        assert!(seen[0].is_empty());
    }

    #[test]
    fn no_records_no_groups() {
        assert_eq!(query_volume(&[], 3), [0, 0, 0]);
        assert!(daily_serving_site(&[], 3).iter().all(BTreeMap::is_empty));
        assert!(sites_seen(&[], Day(0), 3).iter().all(BTreeMap::is_empty));
    }

    #[test]
    fn record_is_plain_data() {
        let r = rec(3, 1, 0, 120.0);
        let copy = r;
        assert_eq!(copy, r);
    }
}
