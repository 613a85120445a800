//! Campaign bytes, pinned.
//!
//! Every other tier-1 check of the campaign compares two runs of the
//! *same* build (worker counts, obs on and off, snapshot against direct
//! routing). This one compares against constants: an FNV-1a digest over
//! every joined row of days 0–1 of two small worlds, recorded from the
//! build of the commit before the metro distance table and the memoised
//! candidate sets went in. A change that is meant to leave campaign
//! output alone — a faster ranker, a different routing engine's
//! plumbing, a sharded population — must leave these four numbers alone;
//! a change that is meant to move routes or latencies re-records them and
//! says why.

use anycast_beacon::{BeaconMeasurement, Target};
use anycast_core::{Study, StudyConfig};
use anycast_netsim::{Day, WorldGenConfig};
use anycast_workload::{Scenario, ScenarioConfig};

/// FNV-1a over the little-endian bytes of each word.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn push_row(&mut self, m: &BeaconMeasurement) {
        self.push(m.measurement_id);
        self.push(u64::from(m.prefix.raw()));
        self.push(u64::from(m.ldns.0));
        self.push(match m.target {
            Target::Anycast => u64::MAX,
            Target::Unicast(site) => u64::from(site.0),
        });
        self.push(u64::from(m.served_site.0));
        self.push(u64::from(m.failed));
        self.push(m.rtt_ms.to_bits());
        self.push(m.time_s.to_bits());
    }
}

/// The small default (distance-ranked) world with site outages and drains
/// switched on, so failover routing and failed fetches are in the rows.
fn outage_world() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::small(7);
    cfg.net.p_site_outage = 0.25;
    cfg.net.p_site_drain = 0.15;
    cfg
}

/// A 1,000-AS policy-routed world with the default flap rates.
fn policy_world() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::small(7);
    cfg.net.worldgen = Some(WorldGenConfig::with_ases(1_000));
    cfg
}

/// `(rows, failed rows, digest)` of days 0–1.
fn two_days(cfg: ScenarioConfig, workers: usize) -> (usize, usize, u64) {
    let scenario = Scenario::build(cfg).expect("valid config");
    let mut study = Study::new(
        scenario,
        StudyConfig {
            workers,
            ..StudyConfig::default()
        },
    );
    study.run_days(Day(0), 2);
    let mut digest = Fnv::new();
    let rows = study.dataset().measurements();
    for m in rows {
        digest.push_row(m);
    }
    let failed = rows.iter().filter(|m| m.failed).count();
    (rows.len(), failed, digest.0)
}

#[test]
fn outage_world_days_match_the_recorded_digest() {
    for workers in [1, 2] {
        let (rows, failed, digest) = two_days(outage_world(), workers);
        assert!(
            failed > 0,
            "no fetch failed: the outage path is not covered"
        );
        assert_eq!(
            (rows, digest),
            (OUTAGE_ROWS, OUTAGE_DIGEST),
            "{workers} worker(s): digest {digest:#018x}"
        );
    }
}

#[test]
fn policy_world_days_match_the_recorded_digest() {
    for workers in [1, 2] {
        let (rows, _, digest) = two_days(policy_world(), workers);
        assert_eq!(
            (rows, digest),
            (POLICY_ROWS, POLICY_DIGEST),
            "{workers} worker(s): digest {digest:#018x}"
        );
    }
}

const OUTAGE_ROWS: usize = 6_392;
const OUTAGE_DIGEST: u64 = 0xa12f_34e1_3069_8c0e;
const POLICY_ROWS: usize = 6_392;
const POLICY_DIGEST: u64 = 0x01b4_48ca_83e3_8c72;
