//! Zero-alloc templated answers: patch a pre-encoded A response into a
//! caller-provided buffer instead of running the full encoder.
//!
//! The steady-state query mix at an authoritative CDN front end is almost
//! entirely well-formed `A`/`IN` questions with at most one OPT record.
//! For exactly that shape, [`crate::message::encode_reply`] with an answer
//! body is deterministic boilerplate: the question echoes the query's raw
//! bytes, the answer RR is a fixed 16-byte pattern per `(addr, ttl)` pair
//! baked at table-compile time ([`AnswerRr`]), and the OPT/ECS scaffolding
//! depends only on fields a cheap scan extracts. So the hot path:
//!
//! 1. [`QueryView::parse`] scans the packet without allocating. It
//!    succeeds only for a standard query (opcode 0) whose raw question is
//!    pointer-free, canonical lowercase and `A`/`IN`, with at most one
//!    additional record, a well-formed OPT — otherwise it returns `None`
//!    and the caller falls back to decode → [`crate::message::encode_reply`],
//!    which decides FORMERR, NOTIMP, REFUSED, truncation and the 0x20
//!    mixed-case echo.
//! 2. [`write_response`] patches txid, flags, question echo, the baked
//!    answer RR, and the ECS scope straight into the caller's send slot.
//!
//! That the patched bytes equal `encode_reply`'s is pinned by the unit
//! tests here, a property across ECS source lengths and txids
//! (`tests/props.rs`), and the wire conformance property over every
//! reply (`tests/reply_conformance.rs`).

use std::net::Ipv4Addr;

use crate::message::{opt_record_len, parse_opt_rdata, reply_opt, write_opt, Edns};
use crate::wire::{CLASS_IN, HEADER_LEN, TYPE_A, TYPE_OPT};

/// Maximum text length of a DNS name (dot-joined), per RFC 1035.
const MAX_NAME_TEXT: usize = 253;

/// A pre-encoded A-record answer: owner pointer to the question, TYPE_A,
/// CLASS_IN, TTL, RDLENGTH 4, and the address — 16 bytes patched into the
/// response verbatim. Baked once per distinct `(addr, ttl)` at
/// table-compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnswerRr {
    addr: Ipv4Addr,
    bytes: [u8; 16],
}

impl AnswerRr {
    /// Bakes the wire form of `addr` with `ttl_s`. The owner name is a
    /// compression pointer to the question at offset 12; these are the
    /// bytes [`crate::message::encode_reply`] writes for an answer body.
    pub fn new(addr: Ipv4Addr, ttl_s: u32) -> AnswerRr {
        let mut bytes = [0u8; 16];
        bytes[0] = 0xC0;
        bytes[1] = HEADER_LEN as u8; // pointer target: the question name
        bytes[2..4].copy_from_slice(&TYPE_A.to_be_bytes());
        bytes[4..6].copy_from_slice(&CLASS_IN.to_be_bytes());
        bytes[6..10].copy_from_slice(&ttl_s.to_be_bytes());
        bytes[10..12].copy_from_slice(&4u16.to_be_bytes());
        bytes[12..16].copy_from_slice(&addr.octets());
        AnswerRr { addr, bytes }
    }

    /// The answer address (for per-address tallies).
    pub fn addr(&self) -> Ipv4Addr {
        self.addr
    }

    /// The baked TTL, seconds (what the full encoder is handed when a
    /// query cannot take the template).
    pub fn ttl_s(&self) -> u32 {
        u32::from_be_bytes([self.bytes[6], self.bytes[7], self.bytes[8], self.bytes[9]])
    }

    /// The 16 baked wire octets.
    pub fn bytes(&self) -> &[u8; 16] {
        &self.bytes
    }
}

/// A borrowed, validated view of a templatable query. Produced only by
/// [`QueryView::parse`]; existence of a view is the proof that the
/// template patch reproduces the full encoder's bytes.
#[derive(Debug, Clone, Copy)]
pub struct QueryView<'a> {
    /// Transaction id to echo.
    pub id: u16,
    /// Recursion-desired bit to echo.
    pub rd: bool,
    /// Raw QNAME wire bytes (labels + terminal zero), echoed verbatim.
    pub qname_wire: &'a [u8],
    /// EDNS parameters, when the query carried a well-formed OPT.
    pub edns: Option<Edns>,
}

impl<'a> QueryView<'a> {
    /// Scans `buf` for the templatable-query shape, allocating nothing.
    ///
    /// Returns `Some` only when every byte of the response is determined
    /// by this view plus an [`AnswerRr`] and scope — i.e. the full
    /// encoder, fed the decoded form of `buf`, would emit exactly what
    /// [`write_response`] patches. Gate, in order:
    ///
    /// * header: QR=0, opcode 0, QDCOUNT=1, ANCOUNT=0, NSCOUNT=0,
    ///   ARCOUNT≤1 (any other opcode draws NOTIMP on the slow path);
    /// * QNAME: pointer-free and already in canonical `DnsName` form —
    ///   labels 1..=63 of `[a-z0-9-]` with no leading/trailing hyphen,
    ///   dot-joined text ≤ 253 — so the raw bytes equal the encoder's
    ///   re-encoding (uppercase or odd bytes → `None` → slow path);
    /// * QTYPE=A, QCLASS=IN (anything else takes the REFUSED/empty
    ///   branches of the slow path);
    /// * the single additional record, when present, is a root-owned OPT
    ///   whose RDATA parses cleanly (a malformed OPT must reach the slow
    ///   path to produce its FORMERR).
    ///
    /// Trailing bytes beyond the counted records are ignored, matching
    /// the full decoder.
    pub fn parse(buf: &'a [u8]) -> Option<QueryView<'a>> {
        if buf.len() < HEADER_LEN {
            return None;
        }
        let id = u16::from_be_bytes([buf[0], buf[1]]);
        let flags = u16::from_be_bytes([buf[2], buf[3]]);
        if flags & 0xF800 != 0 {
            return None; // QR=1 (not a query) or an opcode other than QUERY
        }
        let rd = flags & 0x0100 != 0;
        let qd = u16::from_be_bytes([buf[4], buf[5]]);
        let an = u16::from_be_bytes([buf[6], buf[7]]);
        let ns = u16::from_be_bytes([buf[8], buf[9]]);
        let ar = u16::from_be_bytes([buf[10], buf[11]]);
        if qd != 1 || an != 0 || ns != 0 || ar > 1 {
            return None;
        }

        // QNAME: raw labels, already canonical.
        let mut pos = HEADER_LEN;
        let mut text_len = 0usize;
        let mut labels = 0usize;
        loop {
            let len = usize::from(*buf.get(pos)?);
            pos += 1;
            if len == 0 {
                break;
            }
            if len > 63 {
                return None; // compression pointer or reserved label type
            }
            let label = buf.get(pos..pos + len)?;
            if label[0] == b'-' || label[len - 1] == b'-' {
                return None;
            }
            if !label
                .iter()
                .all(|&b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
            {
                return None;
            }
            text_len += len + usize::from(labels > 0);
            if text_len > MAX_NAME_TEXT {
                return None;
            }
            labels += 1;
            pos += len;
        }
        if labels == 0 {
            return None; // root QNAME fails DnsName validation → FORMERR
        }
        let qname_wire = &buf[HEADER_LEN..pos];

        let fixed = buf.get(pos..pos + 4)?;
        if fixed[..2] != TYPE_A.to_be_bytes() || fixed[2..] != CLASS_IN.to_be_bytes() {
            return None;
        }
        pos += 4;

        let mut edns = None;
        if ar == 1 {
            // Root-owned OPT record, nothing else.
            if *buf.get(pos)? != 0 {
                return None;
            }
            pos += 1;
            let rr = buf.get(pos..pos + 10)?;
            if rr[..2] != TYPE_OPT.to_be_bytes() {
                return None;
            }
            let udp_payload = u16::from_be_bytes([rr[2], rr[3]]);
            // rr[4..8] is ext-rcode/version/flags — ignored by the full
            // decoder, so ignored here.
            let rdlen = usize::from(u16::from_be_bytes([rr[8], rr[9]]));
            pos += 10;
            let rdata = buf.get(pos..pos + rdlen)?;
            let ecs = parse_opt_rdata(rdata).ok()?;
            edns = Some(Edns { udp_payload, ecs });
        }

        Some(QueryView {
            id,
            rd,
            qname_wire,
            edns,
        })
    }

    /// The client's effective payload advertisement (CLASS of the OPT),
    /// `None` without EDNS.
    pub fn udp_payload(&self) -> Option<u16> {
        self.edns.map(|e| e.udp_payload)
    }
}

/// Exact wire length [`write_response`] will produce for `view`.
pub fn response_len(view: &QueryView<'_>) -> usize {
    let opt = view.edns.map_or(0, |edns| opt_record_len(edns.ecs));
    HEADER_LEN + view.qname_wire.len() + 4 + 16 + opt
}

/// Patches the complete response for `view` into `out`: header, question
/// echo, the baked answer RR, and the OPT/ECS echo with `scope` as the
/// SCOPE PREFIX-LENGTH. Returns the response length. `out` must hold at
/// least [`response_len`] bytes; no allocation, no encoder.
pub fn write_response(out: &mut [u8], view: &QueryView<'_>, rr: &AnswerRr, scope: u8) -> usize {
    out[0..2].copy_from_slice(&view.id.to_be_bytes());
    out[2] = 0x84 | u8::from(view.rd); // QR | AA | RD, opcode 0
    out[3] = 0; // RA=0, Z=0, RCODE=0
    out[4..6].copy_from_slice(&1u16.to_be_bytes()); // QDCOUNT
    out[6..8].copy_from_slice(&1u16.to_be_bytes()); // ANCOUNT
    out[8..10].copy_from_slice(&0u16.to_be_bytes()); // NSCOUNT
    out[10..12].copy_from_slice(&u16::from(view.edns.is_some()).to_be_bytes());
    let mut p = HEADER_LEN;
    out[p..p + view.qname_wire.len()].copy_from_slice(view.qname_wire);
    p += view.qname_wire.len();
    out[p..p + 2].copy_from_slice(&TYPE_A.to_be_bytes());
    out[p + 2..p + 4].copy_from_slice(&CLASS_IN.to_be_bytes());
    p += 4;
    out[p..p + 16].copy_from_slice(rr.bytes());
    p += 16;
    if let Some(edns) = view.edns {
        p += write_opt(&mut out[p..], &reply_opt(edns, scope));
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{
        decode_echo, decode_query, encode_query, encode_reply, mask_addr, Body, WireEcs, WireQuery,
    };
    use anycast_dns::DnsName;

    fn query(id: u16, rd: bool, name: &str, edns: Option<Edns>) -> WireQuery {
        WireQuery {
            id,
            rd,
            qname: DnsName::new(name).unwrap(),
            qtype: TYPE_A,
            qclass: CLASS_IN,
            edns,
        }
    }

    fn assert_template_matches_encoder(q: &WireQuery, addr: Ipv4Addr, ttl: u32, scope: u8) {
        let wire = encode_query(q);
        let view = QueryView::parse(&wire).expect("templatable query");
        assert_eq!(view.id, q.id);
        assert_eq!(view.rd, q.rd);
        let rr = AnswerRr::new(addr, ttl);
        let mut out = vec![0u8; 4096];
        let n = write_response(&mut out, &view, &rr, scope);
        assert_eq!(n, response_len(&view), "advertised length is exact");
        let (_, echo) = decode_echo(&wire).unwrap();
        let mut want = Vec::new();
        encode_reply(&mut want, &echo, Body::Answer(&rr, scope), 4096);
        assert_eq!(&out[..n], &want[..], "template == full encoder");
    }

    #[test]
    fn plain_query_without_edns_matches_encoder() {
        let q = query(0x0001, true, "www.cdn.example", None);
        assert_template_matches_encoder(&q, Ipv4Addr::new(192, 0, 2, 9), 60, 0);
    }

    #[test]
    fn edns_without_ecs_matches_encoder() {
        let q = query(0xBEEF, false, "a.b.c.d", Some(Edns::plain(4096)));
        assert_template_matches_encoder(&q, Ipv4Addr::new(203, 0, 113, 1), 300, 0);
    }

    #[test]
    fn ecs_matches_encoder_at_every_source_len() {
        let client = Ipv4Addr::new(198, 51, 100, 129);
        for spl in [0u8, 8, 16, 20, 24, 32] {
            for scope in [0u8, spl.min(24)] {
                let q = query(
                    u16::from(spl) << 8 | 7,
                    true,
                    "img.cdn.example",
                    Some(Edns {
                        udp_payload: 1232,
                        ecs: Some(WireEcs {
                            addr: mask_addr(client, spl),
                            source_prefix_len: spl,
                            scope_prefix_len: 0,
                        }),
                    }),
                );
                assert_template_matches_encoder(&q, Ipv4Addr::new(192, 0, 2, 44), 120, scope);
            }
        }
    }

    #[test]
    fn single_label_and_max_depth_names_match_encoder() {
        for name in ["x", "a1.b2-c.d3.e4"] {
            let q = query(7, true, name, Some(Edns::plain(512)));
            assert_template_matches_encoder(&q, Ipv4Addr::new(10, 0, 0, 1), 1, 0);
        }
    }

    #[test]
    fn non_templatable_shapes_fall_back() {
        let base = encode_query(&query(9, true, "www.cdn.example", Some(Edns::plain(1232))));
        assert!(QueryView::parse(&base).is_some(), "baseline is templatable");

        // QR set: a response, not a query.
        let mut b = base.clone();
        b[2] |= 0x80;
        assert!(QueryView::parse(&b).is_none());

        // Any opcode but QUERY draws NOTIMP, not an answer.
        for opcode in [1u8, 2, 4, 5, 15] {
            let mut b = base.clone();
            b[2] |= opcode << 3;
            assert!(QueryView::parse(&b).is_none(), "opcode {opcode}");
        }

        // Uppercase label byte: the slow path echoes it as received.
        let mut b = base.clone();
        b[HEADER_LEN + 1] = b'W';
        assert!(QueryView::parse(&b).is_none());

        // Hyphen at a label edge fails DnsName validation.
        let mut b = base.clone();
        b[HEADER_LEN + 1] = b'-';
        assert!(QueryView::parse(&b).is_none());

        // Compression pointer in the QNAME.
        let mut b = base.clone();
        b[HEADER_LEN] = 0xC0;
        assert!(QueryView::parse(&b).is_none());

        // Wrong QTYPE (AAAA).
        let mut b = base.clone();
        let name_end = HEADER_LEN + 1 + 3 + 1 + 3 + 1 + 7 + 1; // www cdn example + zero
        b[name_end + 1] = 28;
        assert!(QueryView::parse(&b).is_none());

        // Two additional records.
        let mut b = base.clone();
        b[11] = 2;
        assert!(QueryView::parse(&b).is_none());

        // ANCOUNT nonzero.
        let mut b = base.clone();
        b[7] = 1;
        assert!(QueryView::parse(&b).is_none());

        // Truncated mid-name.
        let b = &base[..HEADER_LEN + 2];
        assert!(QueryView::parse(b).is_none());

        // Root QNAME.
        let mut b = base.clone();
        b[HEADER_LEN] = 0;
        assert!(QueryView::parse(&b).is_none());
    }

    #[test]
    fn malformed_opt_falls_back_for_formerr() {
        // Duplicate ECS options inside one OPT must reach the slow path,
        // which turns them into FORMERR.
        let q = query(
            3,
            true,
            "www.cdn.example",
            Some(Edns {
                udp_payload: 1232,
                ecs: Some(WireEcs {
                    addr: Ipv4Addr::new(198, 51, 100, 0),
                    source_prefix_len: 24,
                    scope_prefix_len: 0,
                }),
            }),
        );
        let mut wire = encode_query(&q);
        // Append a second copy of the ECS option bytes to the OPT RDATA
        // and fix up RDLEN.
        let ecs_bytes = [
            0u8, 8, 0, 7, 0, 1, 24, 0, 198, 51, 100, // code, len, family, spl, scope, addr
        ];
        wire.extend_from_slice(&ecs_bytes);
        let rdlen_at = wire.len() - ecs_bytes.len() - ecs_bytes.len() - 2;
        let old = u16::from_be_bytes([wire[rdlen_at], wire[rdlen_at + 1]]);
        let new = (old + ecs_bytes.len() as u16).to_be_bytes();
        wire[rdlen_at..rdlen_at + 2].copy_from_slice(&new);
        assert!(QueryView::parse(&wire).is_none());
        assert!(decode_query(&wire).is_err(), "slow path sees FORMERR");
    }

    #[test]
    fn trailing_bytes_are_tolerated_like_the_full_decoder() {
        let mut wire = encode_query(&query(5, false, "cdn", None));
        wire.extend_from_slice(&[0xAA; 7]);
        let view = QueryView::parse(&wire).expect("trailing bytes ignored");
        assert!(decode_query(&wire).is_ok());
        assert_eq!(view.qname_wire, &[3, b'c', b'd', b'n', 0]);
    }

    #[test]
    fn answer_rr_bakes_the_wire_pattern() {
        let rr = AnswerRr::new(Ipv4Addr::new(192, 0, 2, 7), 0x01020304);
        assert_eq!(rr.addr(), Ipv4Addr::new(192, 0, 2, 7));
        assert_eq!(rr.ttl_s(), 0x01020304);
        assert_eq!(
            rr.bytes(),
            &[0xC0, 0x0C, 0, 1, 0, 1, 1, 2, 3, 4, 0, 4, 192, 0, 2, 7]
        );
    }
}
