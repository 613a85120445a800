//! The one parsed query, and the answer record baked at compile time.
//!
//! Every packet the server receives is read by one parser,
//! [`QueryView::decode`], into a borrowed view that allocates nothing: the
//! header's id, opcode and RD, the question's bytes as received (0x20
//! mixed case included), its type and class, and the query's EDNS. Every
//! reply is written by one encoder, [`crate::message::encode_reply`],
//! from a view and a body straight into the caller's buffer — a UDP
//! worker's send slot or a TCP connection's frame. An answer body is an
//! [`AnswerRr`]: the 16 wire bytes of an A record, baked once per
//! distinct `(addr, ttl)` when a table is compiled.
//!
//! [`QueryView::parse`] and [`write_response`] are one-line wrappers over
//! the parser and over the encoder with an answer body, kept for
//! `benchmark/src/adapter.rs`'s parse and patch probes (ROADMAP item 1a).

use std::net::Ipv4Addr;

use crate::message::{encode_reply, parse_opt_rdata, record_body, Body, Edns};
use crate::wire::{Cursor, WireError, CLASS_IN, HEADER_LEN, TYPE_A, TYPE_OPT};

/// A pre-encoded A-record answer: owner pointer to the question, TYPE_A,
/// CLASS_IN, TTL, RDLENGTH 4, and the address — 16 bytes copied into the
/// reply verbatim. Baked once per distinct `(addr, ttl)` at
/// table-compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnswerRr {
    addr: Ipv4Addr,
    bytes: [u8; 16],
}

impl AnswerRr {
    /// Bakes the wire form of `addr` with `ttl_s`. The owner name is a
    /// compression pointer to the question at offset 12.
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

    /// The 16 baked wire octets.
    pub fn bytes(&self) -> &[u8; 16] {
        &self.bytes
    }
}

/// A received query, parsed in place: what its reply copies of it and
/// what decides the reply's body. Borrowed from the packet; produced by
/// [`QueryView::decode`], or by [`QueryView::header`] for the FORMERR
/// reply to a packet that does not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryView<'a> {
    /// Transaction id to echo.
    pub id: u16,
    /// Opcode (0 = standard query), echoed.
    pub opcode: u8,
    /// Recursion-desired bit to echo.
    pub rd: bool,
    /// Raw QNAME wire bytes (labels + terminal zero), as received.
    pub qname_wire: &'a [u8],
    /// Query type.
    pub qtype: u16,
    /// Query class.
    pub qclass: u16,
    /// QNAME, QTYPE and QCLASS byte for byte as received, or empty for a
    /// header-only view.
    pub question: &'a [u8],
    /// EDNS parameters, when the query carried an OPT record.
    pub edns: Option<Edns>,
}

impl<'a> QueryView<'a> {
    /// Parses a query packet, allocating nothing. The accept set:
    ///
    /// * header: QR=0 and QDCOUNT=1 (any opcode; the reply decides);
    /// * QNAME: pointer-free — a reply copies the question as received,
    ///   so it must stand alone — and its labels, joined with dots, a name
    ///   [`anycast_dns::DnsName::new`] accepts in any case, with no
    ///   trailing dot (one `DnsName` would drop, so the name read would
    ///   not be the name received);
    /// * QTYPE and QCLASS present;
    /// * answer and authority records tolerated and skipped, their owner
    ///   names held to the same rules (pointers allowed);
    /// * additional records skipped, except OPT: a second OPT, or an ECS
    ///   option that does not parse, is an error (FORMERR).
    ///
    /// Trailing bytes beyond the counted records are ignored.
    pub fn decode(buf: &'a [u8]) -> Result<QueryView<'a>, WireError> {
        let mut view = QueryView::header(buf)?;
        // QDCOUNT, ANCOUNT, NSCOUNT and ARCOUNT: the header words at 4..12.
        let count = |at: usize| u16::from_be_bytes([buf[at], buf[at + 1]]);
        if count(4) != 1 {
            return Err(WireError::BadQuestionCount);
        }
        let mut c = Cursor::new(buf);
        c.skip(HEADER_LEN)?;
        match c.check_name()? {
            (true, _) => return Err(WireError::CompressedQuestion),
            (_, true) => return Err(WireError::BadName),
            _ => {}
        }
        view.qname_wire = &buf[HEADER_LEN..c.pos()];
        view.qtype = c.u16()?;
        view.qclass = c.u16()?;
        view.question = &buf[HEADER_LEN..c.pos()];
        for _ in 0..u32::from(count(6)) + u32::from(count(8)) {
            c.check_name()?;
            record_body(&mut c)?;
        }
        for _ in 0..count(10) {
            // OPT records are owned by the root name — a bare 0 octet,
            // which `DnsName` cannot represent — so detect it before
            // checking a name.
            if c.remaining() > 0 && buf[c.pos()] == 0 {
                c.skip(1)?;
            } else {
                c.check_name()?;
            }
            let (rtype, rclass, _ttl, rdata) = record_body(&mut c)?;
            if rtype == TYPE_OPT {
                if view.edns.is_some() {
                    return Err(WireError::BadOpt); // duplicate OPT is FORMERR
                }
                view.edns = Some(Edns {
                    udp_payload: rclass,
                    ecs: parse_opt_rdata(rdata)?,
                });
            }
        }
        Ok(view)
    }

    /// [`QueryView::decode`], or `None` for a packet it refuses.
    pub fn parse(buf: &'a [u8]) -> Option<QueryView<'a>> {
        QueryView::decode(buf).ok()
    }

    /// The view of a packet's header alone — id, opcode and RD, no
    /// question — which a packet that does not decode is answered FORMERR
    /// from. An error for a packet shorter than a header or one with QR=1:
    /// neither draws a reply, because answering responses would let two
    /// servers answer each other forever.
    pub fn header(buf: &'a [u8]) -> Result<QueryView<'a>, WireError> {
        let &[id0, id1, flags, ..] = buf
            .first_chunk::<HEADER_LEN>()
            .ok_or(WireError::Truncated)?;
        if flags & 0x80 != 0 {
            return Err(WireError::WrongDirection); // QR=1
        }
        Ok(QueryView {
            id: u16::from_be_bytes([id0, id1]),
            opcode: (flags >> 3) & 0x0F,
            rd: flags & 1 != 0,
            qname_wire: &[],
            qtype: 0,
            qclass: 0,
            question: &[],
            edns: None,
        })
    }

    /// Whether the question names `name` (dotted, lower case) in any case:
    /// whether its labels, joined with dots, spell it.
    pub fn qname_is(&self, name: &str) -> bool {
        let (wire, mut text, mut at) = (self.qname_wire, name.as_bytes(), 0);
        while let Some(&len) = wire.get(at).filter(|&&len| len > 0) {
            if at > 0 {
                match text.split_first() {
                    Some((b'.', rest)) => text = rest,
                    _ => return false,
                }
            }
            let Some(label) = wire.get(at + 1..at + 1 + usize::from(len)) else {
                return false;
            };
            match text.split_at_checked(label.len()) {
                Some((spelled, rest)) if spelled.eq_ignore_ascii_case(label) => text = rest,
                _ => return false,
            }
            at += 1 + label.len();
        }
        text.is_empty()
    }
}

/// Writes the reply to `view` answering `rr` at ECS `scope` into `out` and
/// returns its length: [`encode_reply`] with an answer body, `out`'s
/// length the size limit.
pub fn write_response(out: &mut [u8], view: &QueryView<'_>, rr: &AnswerRr, scope: u8) -> usize {
    let max_payload = out.len();
    encode_reply(out, view, Body::Answer(rr, scope), max_payload).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{
        decode_query, encode_query, encode_response, mask_addr, WireEcs, WireQuery,
    };
    use anycast_dns::{DnsAnswer, DnsName};

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

    /// `write_response` over the parsed view writes what `encode_response`
    /// writes for the decoded query.
    fn assert_template_matches_encoder(q: &WireQuery, addr: Ipv4Addr, ttl: u32, scope: u8) {
        let wire = encode_query(q);
        let view = QueryView::parse(&wire).expect("a query that parses");
        assert_eq!((view.id, view.rd, view.opcode), (q.id, q.rd, 0));
        let mut out = vec![0u8; 4096];
        let n = write_response(&mut out, &view, &AnswerRr::new(addr, ttl), scope);
        let want = encode_response(q, Some(&DnsAnswer::scoped(addr, ttl, scope)), 0, 4096);
        assert_eq!(&out[..n], &want[..], "write_response == encode_response");
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
    fn one_parser_takes_every_decodable_shape_and_refuses_the_rest() {
        let base = encode_query(&query(9, true, "www.cdn.example", Some(Edns::plain(1232))));
        let name_end = HEADER_LEN + 1 + 3 + 1 + 3 + 1 + 7 + 1; // www cdn example + zero
        let edit = |f: &dyn Fn(&mut Vec<u8>)| {
            let mut b = base.clone();
            f(&mut b);
            b
        };

        // Shapes the reply decides: other opcodes (NOTIMP), 0x20 mixed
        // case (echoed as received), another type (no answer).
        for opcode in [1u8, 2, 4, 5, 15] {
            let wire = edit(&|b| b[2] |= opcode << 3);
            assert_eq!(QueryView::parse(&wire).map(|v| v.opcode), Some(opcode));
        }
        let mixed = edit(&|b| b[HEADER_LEN + 1] = b'W');
        let view = QueryView::parse(&mixed).expect("mixed case parses");
        assert_eq!(&view.qname_wire[..4], b"\x03Www");
        assert!(view.qname_is("www.cdn.example") && !view.qname_is("www.cdn"));
        let aaaa = edit(&|b| b[name_end + 1] = 28);
        assert_eq!(QueryView::parse(&aaaa).map(|v| v.qtype), Some(28));
        // A second additional record that is not OPT is skipped.
        let mut two = edit(&|b| b[11] = 2);
        two.extend_from_slice(&[0, 0, 16, 0, 1, 0, 0, 0, 0, 0, 0]);
        let edns = QueryView::parse(&two).and_then(|v| v.edns);
        assert_eq!(edns.map(|e| e.udp_payload), Some(1232));

        // Shapes that draw FORMERR (or, for a response, nothing).
        let refused: [(&str, Vec<u8>); 7] = [
            ("QR set", edit(&|b| b[2] |= 0x80)),
            (
                "hyphen at a label edge",
                edit(&|b| b[HEADER_LEN + 1] = b'-'),
            ),
            ("pointer in the QNAME", edit(&|b| b[HEADER_LEN] = 0xC0)),
            ("ANCOUNT with no record", edit(&|b| b[7] = 1)),
            ("two OPT records", {
                let mut b = edit(&|b| b[11] = 2);
                b.extend_from_slice(&base[name_end + 4..]);
                b
            }),
            ("truncated mid-name", base[..HEADER_LEN + 2].to_vec()),
            ("root QNAME", edit(&|b| b[HEADER_LEN] = 0)),
        ];
        for (shape, b) in &refused {
            assert!(QueryView::parse(b).is_none(), "{shape}");
            assert!(decode_query(b).is_err(), "{shape}");
        }
        let header = QueryView::header(&refused[1].1).expect("a header");
        assert_eq!((header.id, header.question), (9, &[][..]));
        assert!(
            QueryView::header(&refused[0].1).is_err(),
            "a response draws nothing"
        );
    }

    #[test]
    fn malformed_opt_is_refused_for_formerr() {
        // Duplicate ECS options inside one OPT are FORMERR.
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
        assert_eq!(QueryView::decode(&wire), Err(WireError::BadOpt));
    }

    #[test]
    fn trailing_bytes_are_tolerated_like_the_full_decoder() {
        let mut wire = encode_query(&query(5, false, "cdn", None));
        wire.extend_from_slice(&[0xAA; 7]);
        let view = QueryView::parse(&wire).expect("trailing bytes ignored");
        assert!(decode_query(&wire).is_ok());
        assert_eq!(view.qname_wire, &[3, b'c', b'd', b'n', 0]);
        assert_eq!(view.question, &wire[HEADER_LEN..HEADER_LEN + 9]);
    }

    #[test]
    fn answer_rr_bakes_the_wire_pattern() {
        let rr = AnswerRr::new(Ipv4Addr::new(192, 0, 2, 7), 0x01020304);
        assert_eq!(rr.addr(), Ipv4Addr::new(192, 0, 2, 7));
        assert_eq!(
            rr.bytes(),
            &[0xC0, 0x0C, 0, 1, 0, 1, 1, 2, 3, 4, 0, 4, 192, 0, 2, 7]
        );
    }
}
