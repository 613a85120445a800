//! End-to-end loopback tests: real UDP/TCP packets against the in-process
//! answer of the table the server compiled.
//!
//! The acceptance bar: for a full simulated day of queries, the
//! wire-served `(addr, ttl, ecs_scope)` triple must be byte-identical to
//! the answer the trained table's own `match_query` implies — at 1 worker
//! and at 4 workers, on the portable one-packet path (`batch = 1`) and the
//! batched one.

mod common;

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use anycast_core::prediction::{Grouping, Predictor, PredictorConfig};
use anycast_core::{Study, StudyConfig};
use anycast_dns::{DnsAnswer, LdnsId};
use anycast_netsim::Day;
use anycast_serve::client::WireClient;
use anycast_serve::replay::{
    day_queries, ldns_directory, ldns_source_addr, service_qname, QuerySpec,
};
use anycast_serve::server::{DnsServer, ServeConfig, VALVE_TTL_S};
use anycast_serve::store::{CompiledTable, TableStore};
use anycast_workload::Scenario;

use common::{Reference, TTL_S};

/// One trained table: its own match is the reference every served answer
/// is checked against, and its compiled form is what the server serves.
struct Trained {
    /// Owns the scenario.
    study: Study,
    reference: Reference,
}

impl Trained {
    /// A fresh store holding the compiled table.
    fn store(&self) -> Arc<TableStore> {
        Arc::new(TableStore::new(self.reference.compile()))
    }
}

/// Runs one real beacon day at small scale and trains a table from it.
fn trained(seed: u64, grouping: Grouping) -> Trained {
    let mut study = Study::new(Scenario::small(seed), StudyConfig::default());
    study.run_day(Day(0));
    let cfg = PredictorConfig {
        grouping,
        ..PredictorConfig::default()
    };
    let table = Predictor::new(cfg).train(study.dataset(), Day(0));
    let plan = study.scenario().addressing;
    let reference = Reference {
        table,
        grouping,
        plan,
    };
    Trained { study, reference }
}

/// One client per LDNS source address, created on demand.
struct ClientPool {
    server: std::net::SocketAddr,
    clients: BTreeMap<LdnsId, WireClient>,
}

impl ClientPool {
    fn new(server: std::net::SocketAddr) -> ClientPool {
        ClientPool {
            server,
            clients: BTreeMap::new(),
        }
    }

    fn get(&mut self, ldns: LdnsId) -> &mut WireClient {
        let server = self.server;
        self.clients
            .entry(ldns)
            .or_insert_with(|| WireClient::bind(ldns_source_addr(ldns), server).expect("bind"))
    }
}

/// The first `limit` queries of the scenario's day 1 as raw A/IN wire
/// queries (EDNS, ECS where the resolver sends it), with the resolver
/// each must be sent from.
fn day_wires(scenario: &Scenario, limit: usize) -> Vec<(LdnsId, Vec<u8>)> {
    use anycast_serve::message::{encode_query, Edns, WireEcs, WireQuery};
    use anycast_serve::wire::{CLASS_IN, TYPE_A};
    let wire = |(i, q): (usize, &QuerySpec)| {
        let edns = Edns {
            udp_payload: 1232,
            ecs: q.ecs.as_ref().map(WireEcs::from_option),
        };
        let query = WireQuery {
            id: i as u16,
            rd: i % 2 == 0,
            qname: q.qname.clone(),
            qtype: TYPE_A,
            qclass: CLASS_IN,
            edns: Some(edns),
        };
        (q.ldns, encode_query(&query))
    };
    let queries = day_queries(scenario, Day(1), limit);
    queries.iter().enumerate().map(wire).collect()
}

/// Sends one raw datagram from `ldns`'s source address and returns the
/// raw reply.
fn ask(server: &DnsServer, ldns: LdnsId, wire: &[u8]) -> Vec<u8> {
    let sock = std::net::UdpSocket::bind((ldns_source_addr(ldns), 0)).expect("bind");
    sock.set_read_timeout(Some(std::time::Duration::from_millis(2000)))
        .unwrap();
    sock.send_to(wire, server.local_addr()).expect("send");
    let mut buf = [0u8; 4096];
    let (n, _) = sock.recv_from(&mut buf).expect("reply");
    buf[..n].to_vec()
}

/// A trained table behind the server must serve a full simulated day as
/// the table's own match answers it, each reply carrying its A record.
/// `batch = 1` is the portable one-packet path, `batch = 32` the
/// recvmmsg/sendmmsg one.
fn equivalence_for(workers: usize, batch: usize) {
    let t = trained(52, Grouping::Ecs);
    let scenario = t.study.scenario();

    let mut cfg = ServeConfig::new(scenario.addressing.anycast_ip());
    cfg.workers = workers;
    cfg.batch = batch;
    let server =
        DnsServer::spawn_tables(cfg, t.store(), ldns_directory(scenario)).expect("server spawns");
    let qname = service_qname();
    let mut pool = ClientPool::new(server.local_addr());
    let queries = day_queries(scenario, Day(1), usize::MAX);
    assert!(
        queries.len() > 100,
        "a simulated day must produce a real workload, got {}",
        queries.len()
    );
    for q in &queries {
        let served = pool
            .get(q.ldns)
            .query(&qname, q.ecs.as_ref())
            .expect("wire query");
        assert_eq!(
            (served.addr, served.ttl_s, served.ecs_scope),
            t.reference.answer(q.ldns, q.ecs.as_ref()),
            "wire answer must match the table's own match for {q:?} \
             ({workers} workers, batch {batch})"
        );
    }
    use std::sync::atomic::Ordering::Relaxed;
    let stats = server.stats();
    assert_eq!(stats.decode_errors.load(Relaxed), 0);
    assert!(stats.udp_queries.load(Relaxed) >= queries.len() as u64);
    assert!(
        stats.template_hits.load(Relaxed) > 0,
        "client queries must be answered with an A record"
    );
}

#[test]
fn wire_answers_match_in_process_path_one_worker() {
    equivalence_for(1, 1);
}

#[test]
fn wire_answers_match_in_process_path_four_workers() {
    equivalence_for(4, 1);
}

#[test]
fn batched_tables_match_in_process_path_one_worker() {
    equivalence_for(1, 32);
}

#[test]
fn batched_tables_match_in_process_path_four_workers() {
    equivalence_for(4, 32);
}

#[test]
fn batched_and_fallback_servers_are_byte_identical_on_the_wire() {
    // Golden-drift guard at the raw-datagram level: the same table served
    // through the batched syscall path (batch 32) and through the
    // portable one-packet fallback (batch 1) must produce bit-for-bit
    // identical response packets, answers and empty replies alike.
    use anycast_serve::message::{encode_query, Edns, WireQuery};
    use anycast_serve::wire::CLASS_IN;

    let t = trained(53, Grouping::Ecs);
    let scenario = t.study.scenario();

    let spawn_with_batch = |batch: usize| {
        let mut cfg = ServeConfig::new(scenario.addressing.anycast_ip());
        cfg.workers = 1;
        cfg.batch = batch;
        DnsServer::spawn_tables(cfg, t.store(), ldns_directory(scenario)).expect("server spawns")
    };
    let batched = spawn_with_batch(32);
    let fallback = spawn_with_batch(1);

    // Real day-of-queries shapes plus a crafted AAAA query.
    let mut wires = day_wires(scenario, 200);
    let some_ldns = wires[0].0;
    wires.push((
        some_ldns,
        encode_query(&WireQuery {
            id: 0xAAAA,
            rd: true,
            qname: service_qname(),
            qtype: 28, // AAAA: a reply with no A record
            qclass: CLASS_IN,
            edns: Some(Edns::plain(1232)),
        }),
    ));

    for (ldns, wire) in &wires {
        assert_eq!(
            ask(&batched, *ldns, wire),
            ask(&fallback, *ldns, wire),
            "batched and one-packet servers must not drift on the wire"
        );
    }
    use std::sync::atomic::Ordering::Relaxed;
    assert!(
        batched.stats().template_hits.load(Relaxed) > 0,
        "the batched server answered A queries"
    );
    assert!(
        batched.stats().template_misses.load(Relaxed) > 0,
        "the crafted AAAA query drew a reply without an A record"
    );
}

#[test]
fn client_discards_rogue_datagrams_and_stale_ids() {
    // Satellite bugfix: a datagram from the wrong source address — even
    // one carrying the right txid — or a right-source datagram with a
    // stale id must be skipped, not returned and not turned into an
    // error. Only the genuine answer lands.
    use anycast_serve::message::{decode_query, encode_response};

    let fake_server = std::net::UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind server");
    let rogue = std::net::UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind rogue");
    let server_addr = fake_server.local_addr().unwrap();

    let genuine = Ipv4Addr::new(198, 18, 0, 1);
    let poisoned = Ipv4Addr::new(203, 0, 113, 66);
    let feeder = std::thread::spawn(move || {
        let mut buf = [0u8; 4096];
        let (n, client_addr) = fake_server.recv_from(&mut buf).expect("query arrives");
        let q = decode_query(&buf[..n]).expect("client query decodes");
        // 1) Off-path spoof: right txid, wrong source socket.
        let spoof = encode_response(&q, Some(&DnsAnswer::global(poisoned, 60)), 0, 4096);
        rogue.send_to(&spoof, client_addr).expect("spoof sends");
        // 2) Right source, stale txid.
        let mut stale_q = q.clone();
        stale_q.id = q.id.wrapping_add(1);
        let stale = encode_response(&stale_q, Some(&DnsAnswer::global(poisoned, 60)), 0, 4096);
        fake_server
            .send_to(&stale, client_addr)
            .expect("stale sends");
        // 3) The genuine answer.
        let real = encode_response(&q, Some(&DnsAnswer::global(genuine, 60)), 0, 4096);
        fake_server.send_to(&real, client_addr).expect("real sends");
    });

    let mut client =
        WireClient::bind(Ipv4Addr::new(127, 0, 0, 1), server_addr).expect("client binds");
    let answer = client
        .query(&service_qname(), None)
        .expect("rogue traffic must not error the query");
    feeder.join().expect("feeder thread");
    assert_eq!(
        answer.addr, genuine,
        "the spoofed and stale datagrams must not poison the answer"
    );
}

#[test]
fn answered_tallies_mirror_answers_and_never_influence_them() {
    // Satellite: the per-front-end answered tally is the control plane's
    // live load feed. It must be (a) a pure function of the served
    // answers — identical across reruns and worker counts — and (b)
    // obs-neutral: the answers themselves are byte-identical whether or
    // not anyone reads the tallies.
    let t = trained(49, Grouping::Ecs);
    let scenario = t.study.scenario();
    let queries = day_queries(scenario, Day(1), 400);
    let run = |workers: usize| {
        let mut cfg = ServeConfig::new(scenario.addressing.anycast_ip());
        cfg.workers = workers;
        let directory = ldns_directory(scenario);
        let server = DnsServer::spawn_tables(cfg, t.store(), directory).expect("server spawns");
        let qname = service_qname();
        let mut pool = ClientPool::new(server.local_addr());
        let mut answers = Vec::new();
        for q in &queries {
            let a = pool
                .get(q.ldns)
                .query(&qname, q.ecs.as_ref())
                .expect("query");
            answers.push((a.addr, a.ttl_s, a.ecs_scope));
        }
        let tallies = server.stats().answered_by_addr();
        (answers, tallies)
    };
    let (a1, t1) = run(1);
    let (a2, t2) = run(2);
    assert_eq!(a1, a2, "answers do not depend on worker count");
    assert_eq!(t1, t2, "tallies are a pure function of the served answers");
    assert_eq!(
        t1.iter().map(|&(_, n)| n).sum::<u64>(),
        queries.len() as u64,
        "every answered query is attributed to exactly one front end"
    );
    // The tally agrees with the answers the clients actually saw.
    let mut expect: BTreeMap<Ipv4Addr, u64> = BTreeMap::new();
    for &(addr, _, _) in &a1 {
        *expect.entry(addr).or_default() += 1;
    }
    assert_eq!(expect.len(), t1.len());
    for (addr, n) in &t1 {
        assert_eq!(expect.get(addr), Some(n), "tally for {addr} disagrees");
    }
}

#[test]
fn aggregated_tables_serve_identically_compiled_or_in_process() {
    // The routing-aware table behind a real socket: the compiled table,
    // matching through its `GroupIndex`, must serve the same (addr, ttl,
    // scope) triple as the table's own hash-probe longest-prefix match for
    // a full day, never advertise a scope wider than the query disclosed,
    // and answer misses at scope 0.
    use anycast_core::prediction::{AggregationConfig, TrainSpec};
    use anycast_dns::ecs::EcsOption;
    use anycast_netsim::Prefix;

    let mut study = Study::new(Scenario::small(50), StudyConfig::default());
    study.run_day(Day(0));
    let cfg = PredictorConfig {
        grouping: Grouping::Ecs,
        ..PredictorConfig::default()
    };
    let spec = TrainSpec {
        days: vec![Day(0)],
        agg: Some(AggregationConfig::default()),
    };
    let table = Predictor::new(cfg).train(study.dataset(), spec);
    let scenario = study.scenario();
    let reference = Reference {
        table,
        grouping: Grouping::Ecs,
        plan: scenario.addressing,
    };

    let cfg = ServeConfig::new(scenario.addressing.anycast_ip());
    let store = Arc::new(TableStore::new(reference.compile()));
    let server =
        DnsServer::spawn_tables(cfg, store, ldns_directory(scenario)).expect("server spawns");

    let qname = service_qname();
    let mut pool = ClientPool::new(server.local_addr());
    let queries = day_queries(scenario, Day(1), 2_000);
    for q in &queries {
        let served = pool
            .get(q.ldns)
            .query(&qname, q.ecs.as_ref())
            .expect("wire query");
        assert_eq!(
            (served.addr, served.ttl_s, served.ecs_scope),
            reference.answer(q.ldns, q.ecs.as_ref()),
            "compiled GroupIndex and hash-probe LPM answers must agree for {q:?}"
        );
        if let Some(e) = &q.ecs {
            assert!(
                served.ecs_scope <= e.source_prefix_len(),
                "scope {} wider than disclosed /{}",
                served.ecs_scope,
                e.source_prefix_len()
            );
        }
    }
    // An untrained subnet: the fallback VIP answer is derived from no
    // subnet, so the wire must carry scope 0 — the §6 bugfix this PR pins.
    let ecs_ldns = queries
        .iter()
        .find(|q| q.ecs.is_some())
        .expect("small world has public resolvers")
        .ldns;
    let unknown = EcsOption::for_subnet(Prefix::new(Ipv4Addr::new(203, 0, 113, 0), 24));
    let miss = pool
        .get(ecs_ldns)
        .query(&qname, Some(&unknown))
        .expect("wire query");
    assert_eq!(miss.addr, scenario.addressing.anycast_ip());
    assert_eq!(miss.ecs_scope, 0, "table miss must be scope 0 on the wire");
}

#[test]
fn disabled_aggregation_compiles_to_byte_identical_answers() {
    // Golden-drift guard: with aggregation disabled the compiled table's
    // `GroupIndex` match must answer every query of a simulated day
    // byte-identically to the plain per-/24 training path.
    use anycast_core::prediction::{AggregationConfig, TrainSpec};

    let mut study = Study::new(Scenario::small(51), StudyConfig::default());
    study.run_day(Day(0));
    let cfg = PredictorConfig {
        grouping: Grouping::Ecs,
        ..PredictorConfig::default()
    };
    let predictor = Predictor::new(cfg);
    let plain = predictor.train(study.dataset(), Day(0));
    let spec = TrainSpec {
        days: vec![Day(0)],
        agg: Some(AggregationConfig::disabled()),
    };
    let disabled = predictor.train(study.dataset(), spec);
    let scenario = study.scenario();
    let a = CompiledTable::compile(&plain, Grouping::Ecs, scenario.addressing, TTL_S, 1);
    let b = CompiledTable::compile(&disabled, Grouping::Ecs, scenario.addressing, TTL_S, 1);
    assert_eq!(a.len(), b.len(), "same group count");
    let queries = day_queries(scenario, Day(1), usize::MAX);
    assert!(queries.len() > 100);
    for q in &queries {
        let (x, y) = (
            a.answer(q.ldns, q.ecs.as_ref()),
            b.answer(q.ldns, q.ecs.as_ref()),
        );
        assert_eq!(
            (x.addr, x.ttl_s, x.ecs_scope),
            (y.addr, y.ttl_s, y.ecs_scope),
            "disabled aggregation must not drift from plain training for {q:?}"
        );
    }
}

#[test]
fn ldns_keyed_tables_serve_scope_zero_on_the_wire() {
    let t = trained(43, Grouping::Ldns);
    let scenario = t.study.scenario();
    let cfg = ServeConfig::new(scenario.addressing.anycast_ip());
    let directory = ldns_directory(scenario);
    let server = DnsServer::spawn_tables(cfg, t.store(), directory).expect("server spawns");

    let qname = service_qname();
    let mut pool = ClientPool::new(server.local_addr());
    let queries = day_queries(scenario, Day(1), 2_000);
    assert!(
        queries.iter().any(|q| q.ecs.is_some()),
        "small world has public resolvers"
    );
    for q in &queries {
        let served = pool
            .get(q.ldns)
            .query(&qname, q.ecs.as_ref())
            .expect("wire query");
        assert_eq!(
            (served.addr, served.ttl_s, served.ecs_scope),
            t.reference.answer(q.ldns, q.ecs.as_ref()),
            "LDNS-keyed wire answer must match the table's own match for {q:?}"
        );
        // An LDNS-keyed answer to an ECS-bearing query is scope 0.
        assert_eq!(served.ecs_scope, 0);
    }
}

#[test]
fn hot_swap_and_ttl_control_retention_through_the_wire() {
    // A TableStore behind the server: swapping tables changes answers
    // without restart, and the served TTL controls client-side retention
    // (a 0-TTL answer is never kept).
    let scenario = Scenario::small(44);
    let plan = scenario.addressing;
    let vip = plan.anycast_ip();
    let site0 = plan.site_ip(anycast_netsim::SiteId(0));

    for (ttl, expect_stale_hit) in [(300u32, true), (0u32, false)] {
        // Start with the cold-start table: everyone gets the VIP.
        let store = Arc::new(TableStore::new(CompiledTable::empty(
            Grouping::Ldns,
            plan,
            ttl,
        )));
        let mut cfg = ServeConfig::new(vip);
        cfg.workers = 1;
        let mut directory = anycast_serve::server::LdnsDirectory::new();
        directory.insert(
            ldns_source_addr(LdnsId(0)),
            LdnsId(0),
            anycast_geo::GeoPoint::new(0.0, 0.0),
        );
        let server = DnsServer::spawn_tables(cfg, store.clone(), directory).expect("server spawns");

        let qname = service_qname();
        let mut client =
            WireClient::bind(ldns_source_addr(LdnsId(0)), server.local_addr()).expect("bind");

        // First query at t0: the VIP, with the served TTL. The client
        // keeps an answer received at t0 while `now < t0 + ttl_s`.
        let t0 = 100.0;
        let a = client.query(&qname, None).expect("first query");
        assert_eq!(a.addr, vip);
        assert_eq!(a.ttl_s, ttl);
        let kept = |now: f64| now < t0 + f64::from(a.ttl_s);

        // Retrain: the predictor now redirects LDNS 0 to site 0. Swap the
        // table while the server keeps running.
        let table = {
            use anycast_beacon::{BeaconDataset, BeaconMeasurement, Slot, Target};
            use anycast_netsim::{Prefix24, SiteId};
            let mut ds = BeaconDataset::new();
            let mk = |exec: u64, t: Target, rtt: f64| BeaconMeasurement {
                measurement_id: match t {
                    Target::Anycast => Slot::Anycast.id_for(exec),
                    Target::Unicast(_) => Slot::GeoClosest.id_for(exec),
                },
                slot: Slot::Anycast,
                prefix: Prefix24::containing(Ipv4Addr::new(10, 0, 0, 1)),
                ldns: LdnsId(0),
                ecs: None,
                target: t,
                served_site: SiteId(0),
                rtt_ms: rtt,
                failed: false,
                day: Day(0),
                time_s: 0.0,
            };
            ds.extend((0..25).map(|i| mk(i, Target::Anycast, 90.0)));
            ds.extend((100..125).map(|i| mk(i, Target::Unicast(SiteId(0)), 40.0)));
            let cfg = PredictorConfig {
                grouping: Grouping::Ldns,
                ..PredictorConfig::default()
            };
            Predictor::new(cfg).train(&ds, Day(0))
        };
        store.swap(CompiledTable::compile(&table, Grouping::Ldns, plan, ttl, 1));

        // A client still inside the TTL keeps the stale VIP answer and
        // does not ask; with TTL 0 nothing was kept, so it re-queries and
        // sees the swap immediately.
        let t1 = t0 + 1.0;
        if kept(t1) {
            assert!(expect_stale_hit, "0-TTL answer must not be kept");
        } else {
            assert!(!expect_stale_hit, "300s answer must still be kept at +1s");
            let b = client.query(&qname, None).expect("re-query");
            assert_eq!(b.addr, site0, "post-swap answer reaches the wire");
        }

        // Past expiry both variants observe the new table.
        let t2 = t0 + f64::from(ttl) + 1.0;
        assert!(!kept(t2), "answer expired");
        let c = client.query(&qname, None).expect("post-expiry query");
        assert_eq!(c.addr, site0);
        drop(server);
    }
}

#[test]
fn overload_valve_degrades_to_anycast() {
    let t = trained(45, Grouping::Ecs);
    let scenario = t.study.scenario();
    let plan = scenario.addressing;
    let mut cfg = ServeConfig::new(plan.anycast_ip());
    cfg.workers = 1;
    cfg.overload_watermark = 0; // every dequeue sees depth >= watermark
    let directory = ldns_directory(scenario);
    let server = DnsServer::spawn_tables(cfg, t.store(), directory).expect("server spawns");

    let qname = service_qname();
    let queries = day_queries(scenario, Day(1), 50);
    let mut pool = ClientPool::new(server.local_addr());
    for q in &queries {
        let a = pool
            .get(q.ldns)
            .query(&qname, q.ecs.as_ref())
            .expect("query");
        assert_eq!(a.addr, plan.anycast_ip(), "valve always answers the VIP");
        assert_eq!(
            a.ttl_s, VALVE_TTL_S,
            "valve answers use the short degraded TTL"
        );
        assert_eq!(a.ecs_scope, 0, "degraded answers are global");
    }
    let degraded = server
        .stats()
        .degraded
        .load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(degraded, queries.len() as u64);
}

#[test]
fn truncated_udp_answers_complete_over_tcp() {
    let t = trained(46, Grouping::Ecs);
    let scenario = t.study.scenario();
    let plan = scenario.addressing;
    let mut cfg = ServeConfig::new(plan.anycast_ip());
    cfg.workers = 1;
    // Clamp UDP responses below the answer size: every answer truncates.
    cfg.udp_response_cap = Some(40);
    // std TCP clients cannot bind a loopback source address, so TCP
    // connections arrive from 127.0.0.1; pin this test to one resolver
    // and register that address as its alias (the directory is operator
    // data — multi-homed resolvers are registered the same way).
    let queries: Vec<_> = {
        let all = day_queries(scenario, Day(1), usize::MAX);
        let ldns = all[0].ldns;
        all.into_iter()
            .filter(|q| q.ldns == ldns)
            .take(20)
            .collect()
    };
    let ldns = queries[0].ldns;
    let mut directory = ldns_directory(scenario);
    let believed = directory.lookup(ldns_source_addr(ldns)).unwrap().1;
    directory.insert(Ipv4Addr::new(127, 0, 0, 1), ldns, believed);
    let server = DnsServer::spawn_tables(cfg, t.store(), directory).expect("server spawns");

    let qname = service_qname();
    let mut pool = ClientPool::new(server.local_addr());
    for q in &queries {
        let served = pool
            .get(q.ldns)
            .query(&qname, q.ecs.as_ref())
            .expect("query");
        assert!(served.over_tcp, "a clamped answer must arrive over TCP");
        assert_eq!(
            (served.addr, served.ttl_s, served.ecs_scope),
            t.reference.answer(q.ldns, q.ecs.as_ref()),
            "TCP fallback serves the same bytes"
        );
    }
    let s = server.stats();
    use std::sync::atomic::Ordering::Relaxed;
    assert!(s.truncated.load(Relaxed) >= queries.len() as u64);
    assert!(s.tcp_queries.load(Relaxed) >= queries.len() as u64);
}

#[test]
fn malformed_packets_get_formerr_and_are_counted() {
    let t = trained(47, Grouping::Ecs);
    let scenario = t.study.scenario();
    let cfg = ServeConfig::new(scenario.addressing.anycast_ip());
    let directory = ldns_directory(scenario);
    let server = DnsServer::spawn_tables(cfg, t.store(), directory).expect("server spawns");

    let sock = std::net::UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind");
    sock.set_read_timeout(Some(std::time::Duration::from_millis(2000)))
        .unwrap();
    // A garbage query that still has a whole header: QR=0, two questions
    // and no bytes for either. (A response, or a packet shorter than a
    // header, draws no reply at all: `reply_rules.rs`.)
    let garbage = [0xAB, 0xCD, 0x01, 0x00, 0, 2, 0, 0, 0, 0, 0, 0];
    sock.send_to(&garbage, server.local_addr()).expect("send");
    let mut buf = [0u8; 512];
    let (n, _) = sock.recv_from(&mut buf).expect("formerr reply");
    assert!(n >= 12);
    assert_eq!(&buf[..2], &[0xAB, 0xCD], "id echoed");
    assert_eq!(buf[3] & 0x0F, 1, "rcode FORMERR");
    assert_eq!(
        server
            .stats()
            .decode_errors
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
}

#[test]
fn unknown_qtypes_get_empty_noerror() {
    use anycast_serve::message::{decode_response, encode_query, Edns, WireQuery};
    let t = trained(48, Grouping::Ecs);
    let scenario = t.study.scenario();
    let cfg = ServeConfig::new(scenario.addressing.anycast_ip());
    let directory = ldns_directory(scenario);
    let server = DnsServer::spawn_tables(cfg, t.store(), directory).expect("server spawns");

    let q = WireQuery {
        id: 77,
        rd: false,
        qname: service_qname(),
        qtype: 28, // AAAA
        qclass: 1,
        edns: Some(Edns::plain(1232)),
    };
    let sock = std::net::UdpSocket::bind((ldns_source_addr(LdnsId(0)), 0)).expect("bind");
    sock.set_read_timeout(Some(std::time::Duration::from_millis(2000)))
        .unwrap();
    sock.send_to(&encode_query(&q), server.local_addr())
        .unwrap();
    let mut buf = [0u8; 512];
    let (n, _) = sock.recv_from(&mut buf).expect("reply");
    let r = decode_response(&buf[..n]).expect("decodes");
    assert_eq!(r.id, 77);
    assert_eq!(r.rcode, 0);
    assert_eq!(r.answer, None);
}

#[test]
fn policy_answers_are_pure_dnsanswer_roundtrips() {
    // Spot-check the codec against DnsAnswer directly (no server): the
    // wire triple survives for scoped, subnet and global answers.
    use anycast_serve::message::{decode_response, encode_response, Edns, WireEcs, WireQuery};
    let q = WireQuery {
        id: 5,
        rd: true,
        qname: service_qname(),
        qtype: 1,
        qclass: 1,
        edns: Some(Edns {
            udp_payload: 1232,
            ecs: Some(WireEcs {
                addr: Ipv4Addr::new(203, 0, 113, 0),
                source_prefix_len: 24,
                scope_prefix_len: 0,
            }),
        }),
    };
    for answer in [
        DnsAnswer::global(Ipv4Addr::new(198, 18, 0, 1), 60),
        DnsAnswer::subnet_scoped(Ipv4Addr::new(198, 19, 3, 1), 45),
        DnsAnswer::scoped(Ipv4Addr::new(198, 19, 7, 1), 0, 16),
    ] {
        let r = decode_response(&encode_response(&q, Some(&answer), 0, 4096)).unwrap();
        assert_eq!(r.answer, Some((answer.addr, answer.ttl_s)));
        assert_eq!(r.ecs.unwrap().scope_prefix_len, answer.ecs_scope);
    }
}

#[test]
fn recorder_toggle_is_obs_neutral_on_the_batched_path() {
    // The recorder switch gates the workers' scope, response-size and
    // overloaded-batch tallies, which only *observe*: raw response
    // datagrams must be bit-for-bit identical with it on and off, at 1
    // worker and at 4, through the batched syscall path. (What it tallies
    // is pinned by `serve_tallies.rs`, whose capture windows need their
    // own binary.)
    let t = trained(54, Grouping::Ecs);
    let scenario = t.study.scenario();

    let spawn = |workers: usize, recorder: bool| {
        let mut cfg = ServeConfig::new(scenario.addressing.anycast_ip());
        cfg.workers = workers;
        cfg.batch = 32;
        cfg.recorder = recorder;
        DnsServer::spawn_tables(cfg, t.store(), ldns_directory(scenario)).expect("server spawns")
    };

    let wires = day_wires(scenario, 300);

    for workers in [1usize, 4] {
        let on = spawn(workers, true);
        let off = spawn(workers, false);
        for (ldns, wire) in &wires {
            assert_eq!(
                ask(&on, *ldns, wire),
                ask(&off, *ldns, wire),
                "recorder on/off must not change a single wire byte \
                 ({workers} workers)"
            );
        }
        use std::sync::atomic::Ordering::Relaxed;
        for server in [&on, &off] {
            assert_eq!(
                server.stats().udp_queries.load(Relaxed),
                wires.len() as u64,
                "both servers served the workload"
            );
        }
    }
}

#[test]
fn chaos_scrape_answers_live_prometheus_mid_replay() {
    // PR-9 in-band scrape, end to end over the wire: while a batched
    // server is serving a replay workload, a `CHAOS TXT metrics.bind`
    // query returns schema-valid Prometheus text reflecting the queries
    // served so far — through the exact same socket path as A queries.
    let t = trained(55, Grouping::Ecs);
    let scenario = t.study.scenario();

    let mut cfg = ServeConfig::new(scenario.addressing.anycast_ip());
    cfg.workers = 2;
    cfg.batch = 32;
    let server =
        DnsServer::spawn_tables(cfg, t.store(), ldns_directory(scenario)).expect("server spawns");

    // Serve part of a day first so the scrape has counters to report.
    let qname = service_qname();
    let mut pool = ClientPool::new(server.local_addr());
    let queries = day_queries(scenario, Day(1), 200);
    for q in &queries {
        pool.get(q.ldns)
            .query(&qname, q.ecs.as_ref())
            .expect("wire query");
    }

    let mut scraper =
        WireClient::bind(Ipv4Addr::LOCALHOST, server.local_addr()).expect("scraper binds");
    let text = scraper.scrape_metrics().expect("CHAOS scrape succeeds");
    let problems = anycast_obs::validate_prometheus(&text);
    assert!(
        problems.is_empty(),
        "live scrape must be schema-valid Prometheus text: {problems:?}"
    );
    assert!(
        text.contains("serve_udp_queries_total"),
        "scrape reflects the serving counters"
    );
    // The snapshot was taken mid-replay: the served-query counter it
    // carries must cover the replayed prefix (scrape included).
    let served: u64 = text
        .lines()
        .find(|l| l.starts_with("serve_udp_queries_total"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .expect("counter sample parses");
    assert!(
        served >= queries.len() as u64,
        "scraped counter {served} must cover the {} replayed queries",
        queries.len()
    );

    // And the ordinary A-record path keeps answering after the scrape.
    let q = &queries[0];
    pool.get(q.ldns)
        .query(&qname, q.ecs.as_ref())
        .expect("A queries still answered after a CHAOS scrape");
}
