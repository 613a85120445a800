//! Every reply the server sends obeys the reply rules, on the wire against
//! a running `spawn_tables` server.
//!
//! The domain is exhaustive and small, so a failure names its query as
//! built rather than a shrunk one: class IN or CH, type A, AAAA, TXT or
//! other, no OPT / a plain OPT / ECS /0, /8, /24 or /32, lower or 0x20
//! mixed case, opcode 0, 2 or 4, UDP or TCP, and an advertised payload of
//! none, 512, 1232 or 4096 bytes. Every prefix of each query and a fixed
//! set of byte flips ride along over UDP. Each reply must:
//! - echo the id, opcode, RD and the question's bytes as received;
//! - carry OPT exactly when the query did, echoing the ECS family, source
//!   length and address, with scope ≤ source;
//! - over UDP, fit in max(512, advertised) bytes, set TC when content was
//!   cut, grow on its query by at most `MAX_UDP_REPLY_GROWTH` bytes, and be
//!   no longer than its query for class CH;
//! - when it carries an A record over UDP, equal what `write_response`
//!   writes for the parsed query and the answer served;
//!
//! and the replies to the whole domain, byte for byte, digest to
//! `REPLY_DIGEST`.
//!
//! A packet that does not decode draws nothing or a 12-byte FORMERR, and
//! a worker never panics: each burst ends with a sentinel query that must
//! be answered.

use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpStream, UdpSocket};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Duration;

use anycast_core::prediction::{GroupKey, Grouping, Predictor, PredictorConfig};
use anycast_core::{Study, StudyConfig};
use anycast_dns::{DnsName, LdnsId};
use anycast_geo::GeoPoint;
use anycast_netsim::Day;
use anycast_serve::message::{
    decode_query, decode_response, encode_query, Edns, WireEcs, WireQuery,
};
use anycast_serve::server::{DnsServer, LdnsDirectory, ServeConfig, MAX_UDP_REPLY_GROWTH};
use anycast_serve::store::{CompiledTable, TableStore};
use anycast_serve::template::write_response;
use anycast_serve::wire::{
    CLASSIC_UDP_LIMIT, CLASS_CHAOS, CLASS_IN, HEADER_LEN, OPTION_ECS, TYPE_A, TYPE_OPT, TYPE_TXT,
};
use anycast_serve::{AnswerRr, QueryView, CHAOS_METRICS_QNAME};
use anycast_workload::Scenario;

const TYPE_AAAA: u16 = 28;
const TYPE_OTHER: u16 = 99;
/// The id of the query that closes each burst; no query or flip uses it.
const SENTINEL_ID: u16 = 0x5A5A;

/// FNV-1a digest of every reply the domain draws, in the order sent: per
/// packet its reply's length and bytes, or `u64::MAX` for no reply, then
/// the server's decode-error count. A TCP scrape reply counts only up to
/// its question, because the text it carries is live counter values.
const REPLY_DIGEST: u64 = 0x55b6_7f8b_9a85_ca1c;

/// FNV-1a over bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    /// One packet's reply, or its absence.
    fn reply(&mut self, query: &[u8], reply: Option<&[u8]>, udp: bool) {
        let Some(mut r) = reply else {
            return self.word(u64::MAX);
        };
        let question_end = skip_name(query, HEADER_LEN).map(|at| at + 4);
        if let Some(end) = question_end.filter(|&end| !udp && end <= query.len()) {
            let field = |at: usize| u16::from_be_bytes([query[at], query[at + 1]]);
            let scrape =
                query[2] & 0x78 == 0 && field(end - 4) == TYPE_TXT && field(end - 2) == CLASS_CHAOS;
            if scrape {
                r = &r[..end.min(r.len())];
            }
        }
        self.word(r.len() as u64);
        self.bytes(r);
    }
}

/// A one-worker server, so replies leave in the order queries arrive, over
/// a table trained on one small beacon day; 127.0.0.1 is a known resolver.
/// Also returns a client inside a /24 the table sends to a unicast site, so
/// its ECS /24 and /32 queries are answered at scope 24 and its /8 and /0
/// ones miss at scope 0.
fn server() -> (DnsServer, Ipv4Addr) {
    let mut study = Study::new(Scenario::small(47), StudyConfig::default());
    study.run_day(Day(0));
    let table = Predictor::new(PredictorConfig::default()).train(study.dataset(), Day(0));
    let client = table
        .redirected_groups()
        .find_map(|(key, _)| match key {
            GroupKey::Ecs(p) if p.len() == 24 => Some(Ipv4Addr::from(u32::from(p.network()) | 77)),
            _ => None,
        })
        .expect("a redirected /24");
    let plan = study.scenario().addressing;
    let table = CompiledTable::compile(&table, Grouping::Ecs, plan, 60, 1);
    let mut directory = LdnsDirectory::new();
    directory.insert(Ipv4Addr::LOCALHOST, LdnsId(0), GeoPoint::new(0.0, 0.0));
    let mut cfg = ServeConfig::new(plan.anycast_ip());
    cfg.workers = 1;
    cfg.overload_watermark = usize::MAX;
    let store = Arc::new(TableStore::new(table));
    let server = DnsServer::spawn_tables(cfg, store, directory).expect("server spawns");
    (server, client)
}

/// `qname`'s wire form with every other letter upper-cased.
fn mixed_case(wire: &mut [u8], qname_len: usize) {
    let mut upper = true;
    for b in &mut wire[HEADER_LEN..HEADER_LEN + qname_len] {
        if b.is_ascii_lowercase() {
            if upper {
                b.make_ascii_uppercase();
            }
            upper = !upper;
        }
    }
}

/// Every query of the domain, as sent (the transport is chosen later).
fn domain(client: Ipv4Addr) -> Vec<Vec<u8>> {
    let mut opts = vec![None];
    for payload in [512u16, 1232, 4096] {
        opts.push(Some(Edns::plain(payload)));
        for source in [0u8, 8, 24, 32] {
            let mask = u32::MAX.checked_shl(32 - u32::from(source)).unwrap_or(0);
            let ecs = WireEcs {
                addr: Ipv4Addr::from(u32::from(client) & mask),
                source_prefix_len: source,
                scope_prefix_len: 0,
            };
            opts.push(Some(Edns {
                udp_payload: payload,
                ecs: Some(ecs),
            }));
        }
    }
    let mut out = Vec::new();
    for (qclass, name) in [
        (CLASS_IN, "www.cdn.example"),
        (CLASS_CHAOS, CHAOS_METRICS_QNAME),
    ] {
        for qtype in [TYPE_A, TYPE_AAAA, TYPE_TXT, TYPE_OTHER] {
            for &edns in &opts {
                for mixed in [false, true] {
                    for opcode in [0u8, 2, 4] {
                        let id = out.len() as u16;
                        let mut wire = encode_query(&WireQuery {
                            id,
                            rd: id.is_multiple_of(2),
                            qname: DnsName::new(name).expect("a valid name"),
                            qtype,
                            qclass,
                            edns,
                        });
                        if mixed {
                            mixed_case(&mut wire, name.len() + 2);
                        }
                        wire[2] |= opcode << 3;
                        out.push(wire);
                    }
                }
            }
        }
    }
    out
}

/// Past the name at `at`: labels up to the root, or up to a pointer.
fn skip_name(msg: &[u8], mut at: usize) -> Option<usize> {
    loop {
        match *msg.get(at)? {
            0 => return Some(at + 1),
            len if len & 0xC0 == 0xC0 => return Some(at + 2),
            len => at += 1 + usize::from(len),
        }
    }
}

/// A reply's answer count, and the RDATA of its OPT record if it has one.
/// Walks every section, so counts that do not match the records, or bytes
/// past the last one, are an error.
fn sections(msg: &[u8]) -> Result<(u16, Option<&[u8]>), String> {
    let count = |at: usize| u16::from_be_bytes([msg[at], msg[at + 1]]);
    let (qd, an, ns, ar) = (count(4), count(6), count(8), count(10));
    let mut at = HEADER_LEN;
    for _ in 0..qd {
        at = skip_name(msg, at).ok_or("question overruns")? + 4;
    }
    let mut opt = None;
    for nth in 0..an + ns + ar {
        at = skip_name(msg, at).ok_or("owner overruns")?;
        if at + 10 > msg.len() {
            return Err("record overruns".into());
        }
        let rdlen = usize::from(count(at + 8));
        if nth >= an + ns && count(at) == TYPE_OPT {
            opt = Some(msg.get(at + 10..at + 10 + rdlen).ok_or("OPT overruns")?);
        }
        at += 10 + rdlen;
    }
    if at != msg.len() {
        return Err(format!("sections end at {at} of {}", msg.len()));
    }
    Ok((an, opt))
}

/// The ECS option inside OPT RDATA: (family, source, scope, address).
fn ecs_option(rdata: &[u8]) -> Option<(u16, u8, u8, &[u8])> {
    let mut at = 0;
    while at + 4 <= rdata.len() {
        let code = u16::from_be_bytes([rdata[at], rdata[at + 1]]);
        let len = usize::from(u16::from_be_bytes([rdata[at + 2], rdata[at + 3]]));
        let body = &rdata[at + 4..at + 4 + len];
        if code == OPTION_ECS {
            let family = u16::from_be_bytes([body[0], body[1]]);
            return Some((family, body[2], body[3], &body[4..]));
        }
        at += 4 + len;
    }
    None
}

/// The largest UDP reply a query may draw: its advertisement, never
/// below the classic 512.
fn udp_limit(edns: Option<Edns>) -> usize {
    edns.map_or(CLASSIC_UDP_LIMIT, |e| {
        usize::from(e.udp_payload).max(CLASSIC_UDP_LIMIT)
    })
}

/// Checks the reply `query` drew over UDP or TCP against every rule.
fn check(query: &[u8], reply: Option<&[u8]>, udp: bool) -> Result<(), String> {
    let (q, echo) = match (decode_query(query), QueryView::decode(query)) {
        (Ok(q), Ok(echo)) => (q, echo),
        _ => {
            // Nothing for a runt or a response, else a 12-byte FORMERR with
            // the header echoed and no question.
            return match (QueryView::header(query).ok(), reply) {
                (None, None) => Ok(()),
                (Some(echo), Some(r)) => {
                    let flags = 0x8400 | u16::from(echo.opcode) << 11 | u16::from(echo.rd) << 8 | 1;
                    let mut want = echo.id.to_be_bytes().to_vec();
                    want.extend_from_slice(&flags.to_be_bytes());
                    want.extend_from_slice(&[0; 8]);
                    (r == want).then_some(()).ok_or(format!("FORMERR {r:02x?}"))
                }
                (want, got) => Err(format!(
                    "expected a reply: {}, got {got:02x?}",
                    want.is_some()
                )),
            };
        }
    };
    let r = reply.ok_or("no reply to a query that decodes")?;
    if r.len() < HEADER_LEN {
        return Err(format!("{} bytes", r.len()));
    }
    if r[..2] != query[..2] {
        return Err("id not echoed".into());
    }
    let (qr, opcode, aa, tc, rd) = (
        r[2] >> 7,
        (r[2] >> 3) & 0x0F,
        r[2] & 0x04,
        r[2] & 0x02,
        r[2] & 1,
    );
    if qr != 1 || aa == 0 || opcode != echo.opcode || (rd == 1) != echo.rd {
        return Err(format!("header bits {:02x}", r[2]));
    }
    if r[4..6] != [0, 1]
        || r.get(HEADER_LEN..HEADER_LEN + echo.question.len()) != Some(echo.question)
    {
        return Err("question not echoed as received".into());
    }
    let (answers, opt) = sections(r)?;
    match (echo.edns, opt) {
        (None, None) => {}
        (Some(edns), Some(rdata)) => match (edns.ecs, ecs_option(rdata)) {
            (None, None) => {}
            (Some(ecs), Some((family, source, scope, addr))) => {
                let octets = ecs.addr.octets();
                let want = &octets[..usize::from(ecs.source_prefix_len.div_ceil(8))];
                if family != 1 || source != ecs.source_prefix_len || addr != want || scope > source
                {
                    return Err(format!(
                        "ECS echo {family} /{source} scope {scope} {addr:?}"
                    ));
                }
            }
            (want, got) => return Err(format!("ECS {want:?} echoed as {got:?}")),
        },
        (want, got) => return Err(format!("OPT {want:?} echoed as {got:?}")),
    }
    let scrape =
        q.qclass == CLASS_CHAOS && q.qtype == TYPE_TXT && q.qname.as_str() == CHAOS_METRICS_QNAME;
    let (rcode, answered) = (r[3] & 0x0F, answers == 1);
    let ok = match () {
        _ if echo.opcode != 0 => rcode == 4 && !answered,
        _ if scrape && udp => rcode == 0 && !answered && tc != 0,
        _ if scrape => rcode == 0 && answered && tc == 0,
        _ if q.qclass != CLASS_IN => rcode == 5 && !answered,
        _ if q.qtype == TYPE_A => rcode == 0 && (answered != (tc != 0)),
        _ => rcode == 0 && !answered,
    };
    if !ok {
        return Err(format!("rcode {rcode}, {answers} answers, TC {tc}"));
    }
    if udp {
        if r.len() > udp_limit(echo.edns) {
            return Err(format!("{} bytes over UDP", r.len()));
        }
        if r.len() > query.len() + MAX_UDP_REPLY_GROWTH {
            return Err(format!(
                "{} bytes for a {}-byte query",
                r.len(),
                query.len()
            ));
        }
        if q.qclass == CLASS_CHAOS && r.len() > query.len() {
            return Err(format!("CH reply of {} bytes for {}", r.len(), query.len()));
        }
        let served = decode_response(r).map_err(|e| e.to_string())?;
        if let Some((addr, ttl)) = served.answer {
            let scope = served.ecs.map_or(0, |e| e.scope_prefix_len);
            let mut want = [0u8; 4096];
            let n = write_response(&mut want, &echo, &AnswerRr::new(addr, ttl), scope);
            if r != &want[..n] {
                return Err("answer bytes differ from write_response's".into());
            }
        }
    }
    Ok(())
}

/// Sends `packets` then the sentinel over UDP, and pairs each packet with
/// its reply. With one worker replies keep the packets' order, and the
/// test predicts which packets draw one; the sentinel's reply proves the
/// worker survived the burst.
fn udp_burst<'a>(
    sock: &UdpSocket,
    server: SocketAddr,
    packets: &[&'a [u8]],
) -> Vec<(&'a [u8], Option<Vec<u8>>)> {
    let sentinel = encode_query(&WireQuery {
        id: SENTINEL_ID,
        rd: false,
        qname: DnsName::new("www.cdn.example").unwrap(),
        qtype: TYPE_A,
        qclass: CLASS_IN,
        edns: None,
    });
    for p in packets {
        sock.send_to(p, server).expect("sent");
    }
    sock.send_to(&sentinel, server).expect("sent");
    let mut replies = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        let (n, _) = sock.recv_from(&mut buf).expect("the sentinel is answered");
        let reply = buf[..n].to_vec();
        if n >= 2 && reply[..2] == SENTINEL_ID.to_be_bytes() {
            break;
        }
        replies.push(reply);
    }
    let mut replies = replies.into_iter();
    let paired = packets
        .iter()
        .map(|&p| {
            let draws = QueryView::header(p).is_ok();
            (p, draws.then(|| replies.next()).flatten())
        })
        .collect();
    assert!(
        replies.next().is_none(),
        "more replies than packets that draw one"
    );
    paired
}

/// One TCP exchange on an open connection, unframed.
fn tcp_exchange(stream: &mut TcpStream, wire: &[u8]) -> Vec<u8> {
    let mut frame = (wire.len() as u16).to_be_bytes().to_vec();
    frame.extend_from_slice(wire);
    stream.write_all(&frame).expect("query sent");
    let mut len = [0u8; 2];
    stream.read_exact(&mut len).expect("length read");
    let mut reply = vec![0u8; usize::from(u16::from_be_bytes(len))];
    stream.read_exact(&mut reply).expect("reply read");
    reply
}

fn udp_socket() -> UdpSocket {
    let sock = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("socket binds");
    sock.set_read_timeout(Some(Duration::from_secs(2)))
        .expect("timeout set");
    sock
}

fn tcp_stream(server: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(server).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .expect("timeout set");
    stream
}

#[test]
fn every_reply_conforms() {
    let (server, client) = server();
    let queries = domain(client);
    assert_eq!(queries.len(), 2 * 4 * 16 * 2 * 3);
    let sock = udp_socket();
    let mut failures = Vec::new();
    let mut digest = Fnv::new();
    let mut note = |query: &[u8], reply: Option<&[u8]>, udp: bool| {
        digest.reply(query, reply, udp);
        if let Err(why) = check(query, reply, udp) {
            failures.push(format!(
                "{} {query:02x?}: {why}",
                if udp { "UDP" } else { "TCP" }
            ));
        }
    };

    // The domain itself, over both transports.
    let mut stream = tcp_stream(server.local_addr());
    for chunk in queries.chunks(32) {
        let packets: Vec<&[u8]> = chunk.iter().map(Vec::as_slice).collect();
        for (query, reply) in udp_burst(&sock, server.local_addr(), &packets) {
            note(query, reply.as_deref(), true);
        }
    }
    for query in &queries {
        note(query, Some(&tcp_exchange(&mut stream, query)), false);
    }

    // Every prefix of each query, and the flips of two bits (the 0x20
    // case bit and the top bit) at every byte of each standard query.
    let mut mutants = Vec::new();
    for query in &queries {
        mutants.extend((0..query.len()).map(|len| query[..len].to_vec()));
        if query[2] & 0x78 == 0 {
            for at in 0..query.len() {
                for mask in [0x20u8, 0x80] {
                    let mut flipped = query.clone();
                    flipped[at] ^= mask;
                    mutants.push(flipped);
                }
            }
        }
    }
    let undecodable = mutants
        .iter()
        .filter(|m| QueryView::decode(m).is_err())
        .count();
    for chunk in mutants.chunks(48) {
        let packets: Vec<&[u8]> = chunk.iter().map(Vec::as_slice).collect();
        for (mutant, reply) in udp_burst(&sock, server.local_addr(), &packets) {
            note(mutant, reply.as_deref(), true);
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} replies break the rules; first: {:#?}",
        failures.len(),
        2 * queries.len() + mutants.len(),
        &failures[..failures.len().min(8)]
    );
    let decode_errors = server.stats().decode_errors.load(Relaxed);
    assert_eq!(
        decode_errors, undecodable as u64,
        "one decode error for each packet that does not decode"
    );
    digest.word(decode_errors);
    assert_eq!(
        digest.0, REPLY_DIGEST,
        "the replies to the domain moved: digest {:#018x}",
        digest.0
    );
}

/// The reply to `wire` over UDP.
fn udp_exchange(sock: &UdpSocket, server: SocketAddr, wire: &[u8]) -> Vec<u8> {
    sock.send_to(wire, server).expect("sent");
    let mut buf = [0u8; 4096];
    let (n, _) = sock.recv_from(&mut buf).expect("answered");
    buf[..n].to_vec()
}

/// An A/IN query for `www.cdn.example`, optionally with OPT.
fn a_query(id: u16, edns: Option<Edns>) -> Vec<u8> {
    encode_query(&WireQuery {
        id,
        rd: true,
        qname: DnsName::new("www.cdn.example").unwrap(),
        qtype: TYPE_A,
        qclass: CLASS_IN,
        edns,
    })
}

#[test]
fn a_mixed_case_question_comes_back_as_received() {
    let (server, _) = server();
    let sock = udp_socket();
    let mut stream = tcp_stream(server.local_addr());
    for edns in [None, Some(Edns::plain(1232))] {
        let mut wire = a_query(0x0020, edns);
        wire[HEADER_LEN + 1] = b'W';
        wire[HEADER_LEN + 5] = b'C';
        let question = &wire[HEADER_LEN..HEADER_LEN + 17 + 4];
        assert_eq!(&question[..17], b"\x03Www\x03Cdn\x07example\x00");
        for (transport, reply) in [
            ("UDP", udp_exchange(&sock, server.local_addr(), &wire)),
            ("TCP", tcp_exchange(&mut stream, &wire)),
        ] {
            assert_eq!(
                &reply[HEADER_LEN..HEADER_LEN + question.len()],
                question,
                "{transport}, OPT {edns:?}"
            );
            let served = decode_response(&reply).expect("a response");
            assert_eq!((served.rcode, served.answer.is_some()), (0, true));
        }
    }
}

#[test]
fn a_pointer_in_the_question_draws_formerr() {
    let (server, _) = server();
    // Id 0x0161, one question whose name is a pointer to offset 0: read
    // as a name, the header's first bytes spell `a`.
    let packet = [
        0x01, 0x61, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 0x00, 0, 1, 0, 1,
    ];
    let reply = udp_exchange(&udp_socket(), server.local_addr(), &packet);
    assert_eq!(reply.len(), HEADER_LEN, "{reply:02x?}");
    assert_eq!(&reply[..2], &[0x01, 0x61], "id echoed");
    assert_eq!(reply[3] & 0x0F, 1, "FORMERR");
    assert_eq!(&reply[4..], &[0; 8], "no question, no records");
    assert_eq!(server.stats().decode_errors.load(Relaxed), 1);
}

#[test]
fn other_opcodes_draw_notimp() {
    let (server, _) = server();
    let sock = udp_socket();
    for opcode in [1u8, 2, 4, 5] {
        let mut wire = a_query(0x4000 | u16::from(opcode), None);
        wire[2] |= opcode << 3;
        let reply = udp_exchange(&sock, server.local_addr(), &wire);
        assert_eq!(&reply[..2], &wire[..2], "id echoed");
        assert_eq!((reply[2] >> 3) & 0x0F, opcode, "opcode echoed");
        assert_eq!(reply[3] & 0x0F, 4, "NOTIMP for opcode {opcode}");
        assert_eq!(&reply[4..8], &[0, 1, 0, 0], "the question, no answer");
        assert_eq!(&reply[HEADER_LEN..], &wire[HEADER_LEN..], "question echoed");
    }
}
