//! The in-band metrics scrape must not amplify over UDP: a UDP source can
//! be spoofed, and the registry's text runs to kilobytes. A binary of its
//! own, so the registry holds only this server's metrics — a few KB that
//! would fit the 4,096-byte payload the query advertises.

use std::net::{Ipv4Addr, UdpSocket};
use std::sync::Arc;
use std::time::Duration;

use anycast_core::prediction::{Grouping, PredictionTable};
use anycast_dns::DnsName;
use anycast_netsim::CdnAddressing;
use anycast_serve::message::{decode_chaos_txt, encode_query, Edns, WireQuery};
use anycast_serve::server::{DnsServer, LdnsDirectory, ServeConfig};
use anycast_serve::store::{CompiledTable, TableStore};
use anycast_serve::wire::{CLASS_CHAOS, TYPE_TXT};
use anycast_serve::{WireClient, CHAOS_METRICS_QNAME};

#[test]
fn a_udp_scrape_is_truncated_to_no_more_than_its_query() {
    let plan = CdnAddressing::standard(8);
    let table = CompiledTable::compile(&PredictionTable::default(), Grouping::Ecs, plan, 60, 1);
    let store = Arc::new(TableStore::new(table));
    let cfg = ServeConfig::new(plan.anycast_ip());
    let server = DnsServer::spawn_tables(cfg, store, LdnsDirectory::new()).expect("server spawns");

    let query = encode_query(&WireQuery {
        id: 0x5CA9,
        rd: false,
        qname: DnsName::new(CHAOS_METRICS_QNAME).expect("static qname"),
        qtype: TYPE_TXT,
        qclass: CLASS_CHAOS,
        edns: Some(Edns::plain(4096)),
    });
    let sock = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("socket binds");
    sock.set_read_timeout(Some(Duration::from_secs(2)))
        .expect("timeout set");
    sock.send_to(&query, server.local_addr())
        .expect("query sent");
    let mut buf = [0u8; 4096];
    let (n, _) = sock.recv_from(&mut buf).expect("the scrape is answered");
    let reply = decode_chaos_txt(&buf[..n]).expect("a scrape reply");
    assert!(reply.tc, "a UDP scrape comes back TC=1");
    assert!(n <= query.len(), "{n} bytes back for {}", query.len());

    // Over TCP the scrape still carries every family the registry holds.
    let families = anycast_obs::global().snapshot().to_prometheus();
    let mut scraper =
        WireClient::bind(Ipv4Addr::LOCALHOST, server.local_addr()).expect("scraper binds");
    let text = scraper
        .scrape_metrics()
        .expect("the scrape falls back to TCP");
    for family in families.lines().filter(|l| l.starts_with("# TYPE")) {
        assert!(text.contains(family), "{family} missing");
    }
    assert!(text.contains("serve_chaos_scrapes_total"));
    let problems = anycast_obs::validate_prometheus(&text);
    assert!(problems.is_empty(), "{problems:?}");
}
