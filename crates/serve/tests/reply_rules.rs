//! Which packets draw a reply, and what a scrape reply carries beside its
//! answer, on the wire against a running server.
//!
//! A response (QR=1) or a packet shorter than a header is counted and
//! never answered, so two servers cannot answer each other forever. A
//! scrape reply echoes the query's OPT record, as every other reply does
//! (RFC 6891 §7), over UDP (TC=1, no longer than the query) and over TCP.
//! A TCP client that sends nothing, or trickles its query in, holds up no
//! other TCP client, and one source that keeps many connections busy
//! locks out no other source.

use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpStream, UdpSocket};
use std::sync::atomic::AtomicBool;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

use anycast_core::prediction::{Grouping, PredictionTable};
use anycast_dns::DnsName;
use anycast_netsim::CdnAddressing;
use anycast_serve::message::{decode_response, encode_query, Edns, WireQuery};
use anycast_serve::server::{DnsServer, LdnsDirectory, ServeConfig, SERVER_UDP_PAYLOAD};
use anycast_serve::store::{CompiledTable, TableStore};
use anycast_serve::wire::{CLASS_CHAOS, CLASS_IN, TYPE_A, TYPE_OPT, TYPE_TXT};
use anycast_serve::CHAOS_METRICS_QNAME;

/// A one-worker server over an empty ECS table: every A query is answered
/// with the anycast address.
fn server() -> DnsServer {
    let plan = CdnAddressing::standard(8);
    let table = CompiledTable::compile(&PredictionTable::default(), Grouping::Ecs, plan, 60, 1);
    let mut cfg = ServeConfig::new(plan.anycast_ip());
    cfg.workers = 1;
    DnsServer::spawn_tables(cfg, Arc::new(TableStore::new(table)), LdnsDirectory::new())
        .expect("server spawns")
}

fn query(id: u16, qname: &str, qtype: u16, qclass: u16, edns: Option<Edns>) -> Vec<u8> {
    encode_query(&WireQuery {
        id,
        rd: false,
        qname: DnsName::new(qname).expect("a valid name"),
        qtype,
        qclass,
        edns,
    })
}

fn udp_socket(timeout: Duration) -> UdpSocket {
    let sock = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("socket binds");
    sock.set_read_timeout(Some(timeout)).expect("timeout set");
    sock
}

/// The reply to `wire` over TCP, unframed.
fn tcp_exchange(server: SocketAddr, wire: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(server).expect("connects");
    ask(&mut stream, wire).expect("a reply")
}

/// The reply to `wire` on an open TCP connection, unframed, waiting up to
/// two seconds for it.
fn ask(stream: &mut TcpStream, wire: &[u8]) -> std::io::Result<Vec<u8>> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut frame = (wire.len() as u16).to_be_bytes().to_vec();
    frame.extend_from_slice(wire);
    stream.write_all(&frame)?;
    let mut len = [0u8; 2];
    stream.read_exact(&mut len)?;
    let mut reply = vec![0u8; usize::from(u16::from_be_bytes(len))];
    stream.read_exact(&mut reply)?;
    Ok(reply)
}

/// A TCP connection to `server` from the local address `source`. std
/// cannot bind a stream before it connects, so the socket is made, bound
/// and connected through the C library std links already.
#[cfg(target_os = "linux")]
fn tcp_connect_from(source: Ipv4Addr, server: SocketAddr) -> TcpStream {
    use std::os::fd::FromRawFd;
    /// `struct sockaddr_in`.
    #[repr(C)]
    struct SockaddrIn {
        family: u16,
        port: [u8; 2],
        addr: [u8; 4],
        zero: [u8; 8],
    }
    extern "C" {
        fn socket(domain: i32, kind: i32, protocol: i32) -> i32;
        fn bind(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
        fn connect(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
    }
    const AF_INET: u16 = 2;
    const SOCK_STREAM: i32 = 1;
    let SocketAddr::V4(server) = server else {
        panic!("an IPv4 server")
    };
    let at = |ip: Ipv4Addr, port: u16| SockaddrIn {
        family: AF_INET,
        port: port.to_be_bytes(),
        addr: ip.octets(),
        zero: [0; 8],
    };
    let len = std::mem::size_of::<SockaddrIn>() as u32;
    // SAFETY: `socket` takes no pointers; the descriptor it returns is
    // checked and then owned by the stream alone, which closes it.
    let stream = unsafe {
        let fd = socket(i32::from(AF_INET), SOCK_STREAM, 0);
        assert!(fd >= 0, "socket: {}", std::io::Error::last_os_error());
        TcpStream::from_raw_fd(fd)
    };
    let fd = std::os::fd::AsRawFd::as_raw_fd(&stream);
    // SAFETY: both addresses are live `sockaddr_in`s of `len` bytes for
    // the length of the call, and `fd` is the stream's open socket.
    let (bound, connected) = unsafe {
        let bound = bind(fd, &at(source, 0), len);
        (bound, connect(fd, &at(*server.ip(), server.port()), len))
    };
    assert_eq!(bound, 0, "bind: {}", std::io::Error::last_os_error());
    assert_eq!(connected, 0, "connect: {}", std::io::Error::last_os_error());
    stream
}

/// Past the name at `at`: labels up to the root, or up to a pointer.
fn skip_name(msg: &[u8], mut at: usize) -> usize {
    loop {
        match msg[at] {
            0 => return at + 1,
            len if len & 0xC0 == 0xC0 => return at + 2,
            len => at += 1 + usize::from(len),
        }
    }
}

/// ARCOUNT, and the OPT records of the additional section as `(CLASS,
/// RDLENGTH)`. Walks every section, so a count that does not match the
/// records, or bytes past the last one, fail here.
fn additional(msg: &[u8]) -> (u16, Vec<(u16, u16)>) {
    let count = |at: usize| u16::from_be_bytes([msg[at], msg[at + 1]]);
    let (qd, an, ns, ar) = (count(4), count(6), count(8), count(10));
    let mut at = 12;
    for _ in 0..qd {
        at = skip_name(msg, at) + 4;
    }
    let mut opts = Vec::new();
    for nth in 0..u32::from(an) + u32::from(ns) + u32::from(ar) {
        at = skip_name(msg, at);
        let (rtype, class, rdlen) = (count(at), count(at + 2), count(at + 8));
        if nth >= u32::from(an) + u32::from(ns) && rtype == TYPE_OPT {
            opts.push((class, rdlen));
        }
        at += 10 + usize::from(rdlen);
    }
    assert_eq!(at, msg.len(), "the sections fill the message");
    (ar, opts)
}

#[test]
fn a_response_or_a_runt_draws_no_reply_and_the_next_query_is_answered() {
    let server = server();
    let sock = udp_socket(Duration::from_millis(200));
    let mut buf = [0u8; 512];
    // A FORMERR response header, as this server would send one, a packet
    // shorter than any header, and an empty one.
    let formerr = [0x12, 0x34, 0x80, 0x01, 0, 0, 0, 0, 0, 0, 0, 0];
    for packet in [&formerr[..], &[0xAB, 0xCD, 0x00, 0x00, 0x00][..], &[][..]] {
        sock.send_to(packet, server.local_addr()).expect("sent");
        let got = sock.recv_from(&mut buf);
        let quiet = got
            .as_ref()
            .is_err_and(|e| matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut));
        assert!(quiet, "{packet:?} drew {got:?}");
    }
    let wire = query(0x5151, "www.example.com", TYPE_A, CLASS_IN, None);
    sock.send_to(&wire, server.local_addr()).expect("sent");
    let (n, _) = sock.recv_from(&mut buf).expect("the query is answered");
    let reply = decode_response(&buf[..n]).expect("a response");
    assert_eq!((reply.id, reply.rcode), (0x5151, 0));
    assert_eq!(server.stats().decode_errors.load(Relaxed), 3);
}

#[test]
fn scrape_replies_echo_the_querys_opt_over_udp_and_tcp() {
    let server = server();
    let sock = udp_socket(Duration::from_secs(2));
    let mut buf = [0u8; 4096];
    for edns in [None, Some(Edns::plain(4096))] {
        let wire = query(0x0C4A, CHAOS_METRICS_QNAME, TYPE_TXT, CLASS_CHAOS, edns);
        let want = match edns {
            Some(_) => (1, vec![(SERVER_UDP_PAYLOAD, 0)]),
            None => (0, Vec::new()),
        };
        sock.send_to(&wire, server.local_addr()).expect("sent");
        let (n, _) = sock.recv_from(&mut buf).expect("the scrape is answered");
        let udp = &buf[..n];
        assert!(udp[2] & 0x02 != 0, "a UDP scrape comes back TC=1");
        assert!(n <= wire.len(), "{n} bytes back for {}", wire.len());
        assert_eq!(additional(udp), want, "UDP, query OPT {edns:?}");

        let tcp = tcp_exchange(server.local_addr(), &wire);
        assert_eq!(u16::from_be_bytes([tcp[6], tcp[7]]), 1, "one TXT answer");
        assert_eq!(additional(&tcp), want, "TCP, query OPT {edns:?}");
    }
}

#[test]
fn an_idle_or_trickling_tcp_client_holds_up_no_other() {
    let server = server();
    let addr = server.local_addr();
    let wire = query(0x7C90, "www.example.com", TYPE_A, CLASS_IN, None);
    let mut framed = (wire.len() as u16).to_be_bytes().to_vec();
    framed.extend_from_slice(&wire);
    // One connection that never sends, and one that sends its query a
    // byte every 100 ms, faster than any per-read timeout fires, for up to
    // three seconds (so a server it stalls still shuts down).
    let _idle = TcpStream::connect(addr).expect("connects");
    let mut trickle = TcpStream::connect(addr).expect("connects");
    let done = Arc::new(AtomicBool::new(false));
    let dripper = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            for byte in framed.iter().cycle().take(30) {
                if done.load(Relaxed) || trickle.write_all(&[*byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        })
    };
    // Both are accepted (the acceptor polls every 5 ms) before the query.
    std::thread::sleep(Duration::from_millis(50));
    let asked = Instant::now();
    let reply = tcp_exchange(addr, &wire);
    let took = asked.elapsed();
    done.store(true, Relaxed);
    dripper.join().expect("dripper ends");
    assert!(took < Duration::from_millis(100), "answered after {took:?}");
    let reply = decode_response(&reply).expect("a response");
    assert_eq!((reply.id, reply.rcode, reply.qtype), (0x7C90, 0, TYPE_A));
    let anycast = CdnAddressing::standard(8).anycast_ip();
    assert_eq!(reply.answer.map(|(ip, _)| ip), Some(anycast));
}

#[cfg(target_os = "linux")]
#[test]
fn one_source_holding_many_tcp_connections_locks_out_no_other_source() {
    let server = server();
    let addr = server.local_addr();
    // Sixteen connections from 127.0.0.1, each asking every 300 ms and
    // reading its answer, until the server closes it or the test ends.
    let done = Arc::new(AtomicBool::new(false));
    let holders: Vec<_> = (0..16u16)
        .map(|i| {
            let mut stream = TcpStream::connect(addr).expect("connects");
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let wire = query(0x4000 + i, "www.example.com", TYPE_A, CLASS_IN, None);
                while !done.load(Relaxed) && ask(&mut stream, &wire).is_ok() {
                    std::thread::sleep(Duration::from_millis(300));
                }
            })
        })
        .collect();
    // All are accepted or refused (the acceptor polls every 5 ms) before
    // another source asks, five times, 400 ms apart.
    std::thread::sleep(Duration::from_millis(50));
    for try_ in 0..5u16 {
        let wire = query(0x7D00 + try_, "www.example.com", TYPE_A, CLASS_IN, None);
        let asked = Instant::now();
        let mut stream = tcp_connect_from(Ipv4Addr::new(127, 0, 0, 2), addr);
        let reply = ask(&mut stream, &wire);
        let took = asked.elapsed();
        let reply = reply.unwrap_or_else(|e| panic!("try {try_}: {e} after {took:?}"));
        assert!(
            took < Duration::from_millis(100),
            "try {try_} answered after {took:?}"
        );
        let reply = decode_response(&reply).expect("a response");
        assert_eq!((reply.id, reply.rcode), (0x7D00 + try_, 0));
        std::thread::sleep(Duration::from_millis(400));
    }
    done.store(true, Relaxed);
    holders
        .into_iter()
        .for_each(|holder| holder.join().expect("a holder ends"));
    // The source's connections past its cap were closed at accept.
    assert_eq!(server.stats().tcp_refused.load(Relaxed), 12);
}
