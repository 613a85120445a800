//! The workers' exact per-batch tallies, read through `anycast_obs`
//! capture windows.
//!
//! Capture windows are process-wide, so these tests need a binary of
//! their own: any other test serving in the same process would record
//! into the window. Every server here runs with the valve off, so each
//! query meets exactly one answer decision per response.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

use anycast_core::prediction::{Grouping, Predictor, PredictorConfig};
use anycast_core::{Study, StudyConfig};
use anycast_dns::LdnsId;
use anycast_netsim::Day;
use anycast_obs::{HistogramSnapshot, MetricKey, Snapshot};
use anycast_serve::client::WireClient;
use anycast_serve::replay::{day_queries, ldns_directory, ldns_source_addr, service_qname};
use anycast_serve::server::{DnsServer, ServeConfig};
use anycast_serve::store::{CompiledTable, TableStore};
use anycast_workload::Scenario;

const SCOPE: &str = "serve_answer_scope";
const RESPONSE_BYTES: &str = "serve_response_bytes";

/// A compiled table and the scenario it was trained on.
struct Trained {
    study: Study,
    table: CompiledTable,
}

fn trained(seed: u64) -> Trained {
    let mut study = Study::new(Scenario::small(seed), StudyConfig::default());
    study.run_day(Day(0));
    let cfg = PredictorConfig {
        grouping: Grouping::Ecs,
        ..PredictorConfig::default()
    };
    let table = Predictor::new(cfg).train(study.dataset(), Day(0));
    let table = CompiledTable::compile(&table, Grouping::Ecs, study.scenario().addressing, 60, 1);
    Trained { study, table }
}

fn spawn(t: &Trained, workers: usize, recorder: bool) -> DnsServer {
    let scenario = t.study.scenario();
    let mut cfg = ServeConfig::new(scenario.addressing.anycast_ip());
    cfg.workers = workers;
    cfg.batch = 32;
    cfg.overload_watermark = usize::MAX;
    cfg.recorder = recorder;
    let store = Arc::new(TableStore::new(t.table.clone()));
    DnsServer::spawn_tables(cfg, store, ldns_directory(scenario)).expect("server spawns")
}

/// What one replayed day looked like from both ends of the wire.
struct Replay {
    /// Responses the clients received (a TC=1 reply and its TCP retry
    /// are two).
    responses: u64,
    /// A answers the server decided, from its per-address tallies.
    decided: u64,
    delta: Snapshot,
}

impl Replay {
    fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.delta.histograms.get(&MetricKey::new(name, &[]))
    }
}

/// Serves day 1's queries, one client per resolver, inside a capture
/// window. Every tally is flushed before its batch is sent, so the window
/// holds the day's once the last answer is in.
fn replay_day(t: &Trained, workers: usize, recorder: bool) -> Replay {
    let scenario = t.study.scenario();
    let queries = day_queries(scenario, Day(1), usize::MAX);
    assert!(queries.len() > 100, "a day of {} queries", queries.len());
    let qname = service_qname();
    let ((responses, decided), delta) = anycast_obs::capture(|| {
        let mut server = spawn(t, workers, recorder);
        let mut clients: HashMap<LdnsId, WireClient> = HashMap::new();
        let mut responses = 0u64;
        for q in &queries {
            let client = clients.entry(q.ldns).or_insert_with(|| {
                WireClient::bind(ldns_source_addr(q.ldns), server.local_addr()).expect("bind")
            });
            let served = client.query(&qname, q.ecs.as_ref()).expect("wire query");
            responses += 1 + u64::from(served.over_tcp);
        }
        server.stop();
        let decided = server
            .stats()
            .answered_by_addr()
            .iter()
            .map(|&(_, n)| n)
            .sum();
        (responses, decided)
    });
    Replay {
        responses,
        decided,
        delta,
    }
}

#[test]
fn tallies_count_every_decision_and_every_response() {
    let t = trained(61);

    // Off first: no other test in this binary turns the recorder on, so
    // an off server must leave both histograms unregistered.
    for workers in [1usize, 4] {
        let off = replay_day(&t, workers, false);
        assert!(off.decided > 0);
        for name in [SCOPE, RESPONSE_BYTES] {
            assert!(
                !anycast_obs::global()
                    .snapshot()
                    .histograms
                    .contains_key(&MetricKey::new(name, &[])),
                "{name} registered with the recorder off ({workers} workers)"
            );
        }
    }

    let mut by_workers = Vec::new();
    for workers in [1usize, 4] {
        let on = replay_day(&t, workers, true);
        let scopes = on.histogram(SCOPE).expect("scope histogram registered");
        let bytes = on
            .histogram(RESPONSE_BYTES)
            .expect("size histogram registered");
        assert_eq!(
            scopes.count(),
            on.decided,
            "one scope per A answer decided ({workers} workers)"
        );
        assert_eq!(
            bytes.count(),
            on.responses,
            "one size per response sent ({workers} workers)"
        );
        assert_eq!(
            on.decided, on.responses,
            "valve off: one decision a response"
        );
        assert_eq!(on.delta.counter("serve_overload_batches_total"), 0);
        by_workers.push((scopes.clone(), bytes.clone()));
    }
    assert_eq!(
        by_workers[0], by_workers[1],
        "the tallies are a function of the traffic, not of the worker count"
    );
}

#[test]
fn a_scrape_past_the_send_slot_comes_back_over_tcp() {
    // The registry must render to more than one 4 KiB send slot.
    for i in 0..200 {
        anycast_obs::global()
            .counter(&format!("serve_tallies_padding_{i:03}_total"))
            .inc();
    }
    let before = anycast_obs::global().snapshot().to_prometheus();
    assert!(before.len() > 4096, "{} bytes of text", before.len());

    let t = trained(62);
    let (text, delta) = anycast_obs::capture(|| {
        // Recorder off: the other test checks that an off server leaves
        // the recorder's histograms unregistered.
        let server = spawn(&t, 2, false);
        let mut scraper =
            WireClient::bind(Ipv4Addr::LOCALHOST, server.local_addr()).expect("scraper binds");
        scraper.udp_payload = u16::MAX;
        let text = scraper.scrape_metrics().expect("the scrape is answered");
        assert_eq!(server.stats().truncated.load(Relaxed), 1, "one TC=1 reply");
        assert_eq!(server.stats().tcp_queries.load(Relaxed), 1, "one TCP retry");
        text
    });
    assert_eq!(delta.counter("serve_truncated_responses_total"), 1);
    assert!(text.len() > 4096, "the full text, {} bytes", text.len());
    assert!(text.contains("serve_tallies_padding_199_total 1\n"));
    let problems = anycast_obs::validate_prometheus(&text);
    assert!(problems.is_empty(), "{problems:?}");
}
