//! A loopback wire client: sends real packets, follows TC to TCP, and
//! reduces responses to a [`ServedAnswer`] comparable against the
//! in-process [`anycast_dns::DnsAnswer`].

use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpStream, UdpSocket};
use std::time::Duration;

use anycast_dns::ecs::EcsOption;
use anycast_dns::DnsName;

use crate::message::{decode_response, encode_query, Edns, WireEcs, WireQuery};
use crate::wire::{WireError, CLASS_IN, TYPE_A};

/// What the server actually put on the wire for one query, reduced to the
/// fields the simulator's [`anycast_dns::DnsAnswer`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServedAnswer {
    /// Answer address.
    pub addr: Ipv4Addr,
    /// Answer TTL.
    pub ttl_s: u32,
    /// Scope prefix length from the echoed ECS option (0 when the
    /// response carried none).
    pub ecs_scope: u8,
    /// Response code.
    pub rcode: u8,
    /// Whether the answer was fetched over the TCP fallback path.
    pub over_tcp: bool,
}

/// Errors a client query can hit.
#[derive(Debug)]
pub enum QueryError {
    /// Socket-level failure or timeout.
    Io(std::io::Error),
    /// The response failed to decode.
    Wire(WireError),
    /// The response id did not match the query (after retries).
    IdMismatch,
    /// The response carried no A answer and a zero rcode was expected.
    Empty,
}

impl From<std::io::Error> for QueryError {
    fn from(e: std::io::Error) -> QueryError {
        QueryError::Io(e)
    }
}

impl From<WireError> for QueryError {
    fn from(e: WireError) -> QueryError {
        QueryError::Wire(e)
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Io(e) => write!(f, "io: {e}"),
            QueryError::Wire(e) => write!(f, "wire: {e}"),
            QueryError::IdMismatch => f.write_str("response id mismatch"),
            QueryError::Empty => f.write_str("response carried no answer"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A resolver-in-miniature bound to one loopback source address.
///
/// The source address is how the server identifies the LDNS (see
/// [`crate::server::LdnsDirectory`]), so one client per simulated
/// resolver.
#[derive(Debug)]
pub struct WireClient {
    sock: UdpSocket,
    server: SocketAddr,
    src: Ipv4Addr,
    next_id: u16,
    /// UDP payload advertised in queries; `None` sends plain (non-EDNS)
    /// queries when no ECS is attached.
    pub udp_payload: u16,
    /// Always attach an OPT record, even without ECS.
    pub force_edns: bool,
}

impl WireClient {
    /// Binds an ephemeral UDP port on `src` (a 127/8 address) and aims at
    /// `server`.
    pub fn bind(src: Ipv4Addr, server: SocketAddr) -> std::io::Result<WireClient> {
        let sock = UdpSocket::bind((src, 0))?;
        sock.set_read_timeout(Some(Duration::from_millis(2000)))?;
        Ok(WireClient {
            sock,
            server,
            src,
            next_id: 1,
            udp_payload: 1232,
            force_edns: true,
        })
    }

    /// The loopback source address this client queries from.
    pub fn source(&self) -> Ipv4Addr {
        self.src
    }

    /// Builds the wire query for `qname` with optional ECS.
    fn build(&mut self, qname: &DnsName, ecs: Option<&EcsOption>) -> WireQuery {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        let edns = if ecs.is_some() || self.force_edns {
            Some(Edns {
                udp_payload: self.udp_payload,
                ecs: ecs.map(WireEcs::from_option),
            })
        } else {
            None
        };
        WireQuery {
            id,
            rd: false,
            qname: qname.clone(),
            qtype: TYPE_A,
            qclass: CLASS_IN,
            edns,
        }
    }

    /// Sends one A query and returns the served answer, retrying over TCP
    /// if the UDP response came back truncated.
    pub fn query(
        &mut self,
        qname: &DnsName,
        ecs: Option<&EcsOption>,
    ) -> Result<ServedAnswer, QueryError> {
        let q = self.build(qname, ecs);
        let wire = encode_query(&q);
        self.sock.send_to(&wire, self.server)?;
        let mut buf = [0u8; 4096];
        // Only a datagram from the server we queried, carrying our txid,
        // is the answer. Anything else — a rogue sender spoofing into our
        // ephemeral port, a late response to a prior id — is discarded
        // and the read retried, so an off-path datagram can neither
        // poison the answer nor error the query.
        for _ in 0..8 {
            let (n, from) = self.sock.recv_from(&mut buf)?;
            if from != self.server {
                continue;
            }
            let r = decode_response(&buf[..n])?;
            if r.id != q.id {
                continue;
            }
            if r.tc {
                return self.query_tcp(&wire, q.id);
            }
            return reduce(&r, false);
        }
        Err(QueryError::IdMismatch)
    }

    /// Scrapes the server's in-band metrics endpoint: a CHAOS-class
    /// `TXT metrics.bind` query over the ordinary wire path. Snapshots
    /// rarely fit a UDP payload, so the usual flow is UDP → TC=1 → TCP
    /// fallback, returning the full Prometheus text.
    pub fn scrape_metrics(&mut self) -> Result<String, QueryError> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        let q = crate::message::WireQuery {
            id,
            rd: false,
            qname: DnsName::new(crate::message::CHAOS_METRICS_QNAME).expect("static qname"),
            qtype: crate::wire::TYPE_TXT,
            qclass: crate::wire::CLASS_CHAOS,
            edns: Some(crate::message::Edns::plain(self.udp_payload)),
        };
        let wire = encode_query(&q);
        self.sock.send_to(&wire, self.server)?;
        let mut buf = [0u8; 4096];
        for _ in 0..8 {
            let (n, from) = self.sock.recv_from(&mut buf)?;
            if from != self.server {
                continue;
            }
            let r = crate::message::decode_chaos_txt(&buf[..n])?;
            if r.id != q.id {
                continue;
            }
            let r = if r.tc {
                crate::message::decode_chaos_txt(&self.exchange_tcp(&wire)?)?
            } else {
                r
            };
            if r.id != q.id {
                return Err(QueryError::IdMismatch);
            }
            return Ok(r.text);
        }
        Err(QueryError::IdMismatch)
    }

    /// One length-prefixed TCP round trip of `wire`, returning the raw
    /// response frame.
    fn exchange_tcp(&self, wire: &[u8]) -> Result<Vec<u8>, QueryError> {
        let mut stream = TcpStream::connect(self.server)?;
        stream.set_read_timeout(Some(Duration::from_millis(2000)))?;
        stream.write_all(&(wire.len() as u16).to_be_bytes())?;
        stream.write_all(wire)?;
        let mut len_buf = [0u8; 2];
        stream.read_exact(&mut len_buf)?;
        let len = usize::from(u16::from_be_bytes(len_buf));
        let mut data = vec![0u8; len];
        stream.read_exact(&mut data)?;
        Ok(data)
    }

    /// The RFC 1035 fallback: resend the same query over TCP.
    fn query_tcp(&self, wire: &[u8], id: u16) -> Result<ServedAnswer, QueryError> {
        let r = decode_response(&self.exchange_tcp(wire)?)?;
        if r.id != id {
            return Err(QueryError::IdMismatch);
        }
        reduce(&r, true)
    }
}

fn reduce(r: &crate::message::WireResponse, over_tcp: bool) -> Result<ServedAnswer, QueryError> {
    let (addr, ttl_s) = match r.answer {
        Some(a) => a,
        None if r.rcode == 0 => return Err(QueryError::Empty),
        None => (Ipv4Addr::UNSPECIFIED, 0),
    };
    Ok(ServedAnswer {
        addr,
        ttl_s,
        ecs_scope: r.ecs.map(|e| e.scope_prefix_len).unwrap_or(0),
        rcode: r.rcode,
        over_tcp,
    })
}
