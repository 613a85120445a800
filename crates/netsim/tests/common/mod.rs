//! Fixtures shared by the policy-world snapshot tests: `props.rs` checks
//! routes, `snapshot_counters.rs` (its own process, so exact counter
//! deltas are safe) checks the tallies.
#![allow(dead_code)]

use anycast_netsim::{AccessTech, ClientAttachment, Day, Internet, NetConfig, WorldGenConfig};

/// A small policy world in which route dynamics *and* site outages fire
/// several times a day.
pub fn flappy_world(seed: u64) -> Internet {
    let cfg = NetConfig {
        worldgen: Some(WorldGenConfig {
            n_ases: 250,
            p_session_flap: 0.25,
            p_border_flap: 0.1,
        }),
        p_site_outage: 0.2,
        p_site_drain: 0.1,
        ..NetConfig::small()
    };
    Internet::new(cfg, seed).unwrap()
}

/// A client attached to some enterprise AS of a policy world (transit-class
/// nodes host no clients).
pub fn policy_client(net: &Internet, idx: usize) -> ClientAttachment {
    let hosts: Vec<anycast_netsim::EyeballAs> = net
        .topology()
        .eyeballs()
        .filter(|e| !e.pops.is_empty())
        .collect();
    let e = hosts[idx % hosts.len()];
    let metro = e.pops[idx % e.pops.len()];
    ClientAttachment {
        as_id: e.id,
        metro,
        location: net
            .topology()
            .atlas
            .metro(metro)
            .location()
            .destination((idx as f64 * 41.0) % 360.0, 20.0),
        access: AccessTech::sample((idx as f64 * 0.173) % 1.0),
    }
}

/// `3 * n_ases` clients, three to an AS at different places, drawn from
/// the hosts starting at `first`: an event that moves an AS moves several
/// snapshot rows at once.
pub fn clients_sharing_ases(net: &Internet, first: usize, n_ases: usize) -> Vec<ClientAttachment> {
    (0..3 * n_ases)
        .map(|i| {
            let mut c = policy_client(net, first + i % n_ases);
            c.location = c.location.destination(i as f64 * 7.0, 3.0 + i as f64);
            c
        })
        .collect()
}

/// The instants at which a day's routing can change — every edge of every
/// dynamics window and site down-window, and the end of each unplanned
/// outage's reconvergence — each with the nearest representable instant
/// on either side, plus the centre of every half hour.
pub fn probe_times(net: &Internet, day: Day) -> Vec<f64> {
    let mut edges = Vec::new();
    if let Some(pw) = net.policy_world() {
        for w in pw.events_on(day).iter() {
            edges.extend([w.start_s, w.end_s]);
        }
    }
    for site in net.topology().cdn.site_ids() {
        if let Some(w) = net.outages().window_on(site, day) {
            let converged = w.start_s + anycast_netsim::outage::BGP_RECONVERGENCE_S;
            edges.extend([w.start_s, converged, w.end_s]);
        }
    }
    let mut times: Vec<f64> = (0..48).map(|k| f64::from(k) * 1_800.0 + 900.0).collect();
    for b in edges {
        // Window edges are positive and finite, so the neighbouring
        // floats are one bit pattern away.
        let below = if b > 0.0 {
            f64::from_bits(b.to_bits() - 1)
        } else {
            -f64::MIN_POSITIVE
        };
        times.extend([below, b, f64::from_bits(b.to_bits() + 1)]);
    }
    times
}
