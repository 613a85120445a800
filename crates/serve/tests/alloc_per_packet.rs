//! A running server answers the well-formed query domain without
//! allocating: after one warm-up pass, a one-worker server answers every
//! query of it — lower and 0x20 mixed case, A and AAAA, CH REFUSED,
//! NOTIMP, TC=1 over the size limit and FORMERR for runts — with zero heap
//! allocations in the whole process.
//!
//! A dedicated integration-test binary, one test: the counting allocator
//! is this binary's alone (every library crate forbids `unsafe`), and the
//! client side allocates nothing while the measured pass runs (its packets
//! are built and its buffer sized before it).

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

use anycast_core::prediction::Grouping;
use anycast_dns::{DnsName, LdnsId};
use anycast_geo::GeoPoint;
use anycast_netsim::CdnAddressing;
use anycast_serve::message::{encode_query, Edns, WireEcs, WireQuery};
use anycast_serve::server::{DnsServer, LdnsDirectory, ServeConfig};
use anycast_serve::store::{CompiledTable, TableStore};
use anycast_serve::wire::{CLASS_CHAOS, CLASS_IN, HEADER_LEN, TYPE_A, TYPE_TXT};
use anycast_serve::CHAOS_METRICS_QNAME;

/// The system allocator, counting calls.
struct Counting;

static CALLS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no memory the allocator
// hands out and does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: the caller's `layout` obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, block: *mut u8, layout: Layout) {
        // SAFETY: `block` came from `System` through this type with `layout`.
        unsafe { System.dealloc(block, layout) }
    }

    unsafe fn realloc(&self, block: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: `block` came from `System` through this type with `layout`,
        // and the caller vouches for `new_size`.
        unsafe { System.realloc(block, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The UDP reply cap: a plain or plain-OPT `www.cdn.example` answer fits
/// it (49 and 60 bytes), one that echoes an ECS option does not, and goes
/// out TC=1.
const UDP_CAP: usize = 60;

/// The queries of `reply_conformance.rs`'s domain (class IN or CH, type A,
/// AAAA, TXT or other, no OPT / a plain OPT / ECS, lower or mixed case,
/// opcode 0, 2 or 4), then a header-and-a-bit runt of each standard query.
fn domain() -> Vec<Vec<u8>> {
    let client = Ipv4Addr::new(198, 51, 100, 77);
    let mut opts = vec![None];
    for payload in [512u16, 1232, 4096] {
        opts.push(Some(Edns::plain(payload)));
        for source in [0u8, 8, 24, 32] {
            let mask = u32::MAX.checked_shl(32 - u32::from(source)).unwrap_or(0);
            opts.push(Some(Edns {
                udp_payload: payload,
                ecs: Some(WireEcs {
                    addr: Ipv4Addr::from(u32::from(client) & mask),
                    source_prefix_len: source,
                    scope_prefix_len: 0,
                }),
            }));
        }
    }
    let mut out = Vec::new();
    for (qclass, name) in [
        (CLASS_IN, "www.cdn.example"),
        (CLASS_CHAOS, CHAOS_METRICS_QNAME),
    ] {
        for qtype in [TYPE_A, 28, TYPE_TXT, 99] {
            for &edns in &opts {
                for mixed in [false, true] {
                    for opcode in [0u8, 2, 4] {
                        let mut wire = encode_query(&WireQuery {
                            id: out.len() as u16,
                            rd: true,
                            qname: DnsName::new(name).expect("a valid name"),
                            qtype,
                            qclass,
                            edns,
                        });
                        if mixed {
                            wire[HEADER_LEN + 1].make_ascii_uppercase();
                            wire[HEADER_LEN + 3].make_ascii_uppercase();
                        }
                        wire[2] |= opcode << 3;
                        out.push(wire);
                    }
                }
            }
        }
    }
    let runts: Vec<Vec<u8>> = out
        .iter()
        .filter(|q| q[2] & 0x78 == 0)
        .map(|q| q[..HEADER_LEN + 3].to_vec())
        .collect();
    out.extend(runts);
    out
}

/// Sends the domain in bursts of 32 and reads back one reply a packet.
fn pass(sock: &UdpSocket, server: SocketAddr, packets: &[Vec<u8>], buf: &mut [u8]) -> usize {
    let mut answered = 0;
    for burst in packets.chunks(32) {
        for p in burst {
            sock.send_to(p, server).expect("sent");
        }
        for _ in burst {
            sock.recv_from(buf).expect("every packet is answered");
            answered += 1;
        }
    }
    answered
}

#[test]
fn answering_the_domain_allocates_nothing() {
    let plan = CdnAddressing::standard(8);
    let table = CompiledTable::empty(Grouping::Ecs, plan, 60);
    let mut directory = LdnsDirectory::new();
    directory.insert(Ipv4Addr::LOCALHOST, LdnsId(0), GeoPoint::new(0.0, 0.0));
    let mut cfg = ServeConfig::new(plan.anycast_ip());
    cfg.workers = 1;
    cfg.overload_watermark = usize::MAX;
    cfg.udp_response_cap = Some(UDP_CAP);
    let server = DnsServer::spawn_tables(cfg, Arc::new(TableStore::new(table)), directory)
        .expect("server spawns");

    let packets = domain();
    let sock = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("socket binds");
    sock.set_read_timeout(Some(Duration::from_secs(2)))
        .expect("timeout set");
    let mut buf = vec![0u8; 4096];
    // The warm-up registers every counter, histogram and answered address
    // the pass touches.
    pass(&sock, server.local_addr(), &packets, &mut buf);

    let before = CALLS.load(Relaxed);
    let answered = pass(&sock, server.local_addr(), &packets, &mut buf);
    let allocations = CALLS.load(Relaxed) - before;
    assert_eq!(answered, packets.len());
    assert_eq!(
        allocations,
        0,
        "{allocations} allocations answering {} packets",
        packets.len()
    );
}
