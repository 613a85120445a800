//! Whole-message codec: queries and authoritative responses, including
//! EDNS0 OPT records and the RFC 7871 client-subnet option.
//!
//! The types here bridge the simulator's in-process vocabulary
//! ([`DnsAnswer`], [`EcsOption`]) and real RFC 1035 packets. A
//! [`WireQuery`] keeps the *raw* ECS address from the wire (not just the
//! derived /24) because RFC 7871 §7.1.4 requires the response to echo the
//! source address and prefix length bit-for-bit.
//!
//! Every reply is written by one encoder, [`encode_reply`]: the header,
//! the question as received, one [`Body`], then OPT, straight into the
//! caller's buffer, from a query parsed by [`QueryView::decode`].

use std::net::Ipv4Addr;

use anycast_dns::ecs::EcsOption;
use anycast_dns::{DnsAnswer, DnsName};
use anycast_netsim::Prefix;

use crate::server::SERVER_UDP_PAYLOAD;
use crate::template::{AnswerRr, QueryView};
use crate::wire::{
    Cursor, Flags, Header, WireError, CLASS_CHAOS, CLASS_IN, HEADER_LEN, OPTION_ECS, TYPE_A,
    TYPE_OPT, TYPE_TXT,
};

/// ECS option as carried on the wire (RFC 7871 §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireEcs {
    /// Raw source address from the option (bits beyond
    /// `source_prefix_len` zeroed, as the RFC requires).
    pub addr: Ipv4Addr,
    /// SOURCE PREFIX-LENGTH.
    pub source_prefix_len: u8,
    /// SCOPE PREFIX-LENGTH (0 in queries; the answer's scope in responses).
    pub scope_prefix_len: u8,
}

impl WireEcs {
    /// Builds the query-side option for a simulator [`EcsOption`].
    pub fn from_option(opt: &EcsOption) -> WireEcs {
        WireEcs {
            addr: opt.prefix.network(),
            source_prefix_len: opt.prefix.len(),
            scope_prefix_len: 0,
        }
    }

    /// Maps to the simulator's option, at the *true* source prefix length.
    /// The old mapping forced every wire subnet to its covering /24 — a
    /// /16 query would be answered (and scoped!) as if the resolver had
    /// disclosed a /24, claiming 8 bits the query never carried. A zero
    /// source prefix ("give me the generic answer", RFC 7871 §7.1.2) maps
    /// to `None`.
    pub fn to_option(self) -> Option<EcsOption> {
        if self.source_prefix_len == 0 {
            return None;
        }
        Some(EcsOption {
            prefix: Prefix::new(self.addr, self.source_prefix_len),
        })
    }
}

/// EDNS0 parameters extracted from (or destined for) an OPT record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edns {
    /// Requestor's advertised UDP payload size (the OPT CLASS field).
    pub udp_payload: u16,
    /// Client-subnet option, if present.
    pub ecs: Option<WireEcs>,
}

impl Edns {
    /// EDNS with a payload advertisement and no options.
    pub fn plain(udp_payload: u16) -> Edns {
        Edns {
            udp_payload,
            ecs: None,
        }
    }
}

/// A decoded query: exactly one question plus optional EDNS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireQuery {
    /// Transaction id.
    pub id: u16,
    /// Recursion-desired bit (echoed in the response).
    pub rd: bool,
    /// Queried name.
    pub qname: DnsName,
    /// Query type.
    pub qtype: u16,
    /// Query class.
    pub qclass: u16,
    /// EDNS parameters, if the query carried an OPT record.
    pub edns: Option<Edns>,
}

/// A decoded response, as seen by the load-generator client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireResponse {
    /// Transaction id (must match the query).
    pub id: u16,
    /// Response code.
    pub rcode: u8,
    /// Truncation bit — the client should retry over TCP.
    pub tc: bool,
    /// Authoritative-answer bit.
    pub aa: bool,
    /// Question echoed from the query.
    pub qname: DnsName,
    /// Question type echoed from the query.
    pub qtype: u16,
    /// First A record, if any: `(address, ttl)`.
    pub answer: Option<(Ipv4Addr, u32)>,
    /// Echoed ECS option, if any.
    pub ecs: Option<WireEcs>,
}

/// Zeroes address bits beyond `prefix_len`, per RFC 7871 §6.
pub(crate) fn mask_addr(addr: Ipv4Addr, prefix_len: u8) -> Ipv4Addr {
    if prefix_len >= 32 {
        return addr;
    }
    let mask = if prefix_len == 0 {
        0
    } else {
        u32::MAX << (32 - u32::from(prefix_len))
    };
    Ipv4Addr::from(u32::from(addr) & mask)
}

/// Wire length of the OPT record for an ECS option (or none): root
/// owner, type, class, TTL and RDLENGTH, plus the option.
#[inline]
pub(crate) fn opt_record_len(ecs: Option<WireEcs>) -> usize {
    11 + ecs.map_or(0, |e| 8 + usize::from(e.source_prefix_len.div_ceil(8)))
}

/// Writes the OPT record for `edns` at the start of `out` and returns its
/// length: the root owner, the payload size as CLASS, a zero TTL
/// (ext-rcode, version, flags), and the ECS option with its address
/// masked to the source length (RFC 7871 §6).
#[inline]
pub(crate) fn write_opt(out: &mut [u8], edns: &Edns) -> usize {
    let len = opt_record_len(edns.ecs);
    let out = &mut out[..len];
    let [t0, t1] = TYPE_OPT.to_be_bytes();
    let [p0, p1] = edns.udp_payload.to_be_bytes();
    let [r0, r1] = ((len - 11) as u16).to_be_bytes();
    out[..11].copy_from_slice(&[0, t0, t1, p0, p1, 0, 0, 0, 0, r0, r1]);
    if let Some(ecs) = edns.ecs {
        let [c0, c1] = OPTION_ECS.to_be_bytes();
        let [l0, l1] = ((len - 15) as u16).to_be_bytes();
        let (source, scope) = (ecs.source_prefix_len, ecs.scope_prefix_len);
        // Code, length, FAMILY 1 (IPv4), source and scope lengths.
        out[11..19].copy_from_slice(&[c0, c1, l0, l1, 0, 1, source, scope]);
        out[19..].copy_from_slice(&mask_addr(ecs.addr, source).octets()[..len - 19]);
    }
    len
}

/// The OPT a reply carries for a query's `edns`: the server's payload size,
/// and the query's ECS option echoed at `scope`.
#[inline]
pub(crate) fn reply_opt(edns: Edns, scope: u8) -> Edns {
    Edns {
        udp_payload: SERVER_UDP_PAYLOAD,
        ecs: edns.ecs.map(|ecs| WireEcs {
            scope_prefix_len: scope,
            ..ecs
        }),
    }
}

/// Parses the RDATA of an OPT record into its ECS option (if present).
pub(crate) fn parse_opt_rdata(rdata: &[u8]) -> Result<Option<WireEcs>, WireError> {
    let mut c = Cursor::new(rdata);
    let mut ecs = None;
    while c.remaining() > 0 {
        let code = c.u16()?;
        let len = usize::from(c.u16()?);
        let body = c.take(len)?;
        if code != OPTION_ECS {
            continue; // unknown options are skipped, per RFC 6891
        }
        let mut o = Cursor::new(body);
        let family = o.u16()?;
        let source_prefix_len = o.u8()?;
        let scope_prefix_len = o.u8()?;
        if family != 1 {
            // Non-IPv4 families are out of scope for the simulator; treat
            // the option as absent rather than rejecting the query.
            continue;
        }
        if source_prefix_len > 32 || scope_prefix_len > 32 {
            return Err(WireError::BadOpt);
        }
        let addr_len = usize::from(source_prefix_len.div_ceil(8));
        if o.remaining() != addr_len {
            return Err(WireError::BadOpt);
        }
        let mut octets = [0u8; 4];
        octets[..addr_len].copy_from_slice(o.take(addr_len)?);
        if ecs.is_some() {
            return Err(WireError::BadOpt); // duplicate ECS options
        }
        ecs = Some(WireEcs {
            addr: mask_addr(Ipv4Addr::from(octets), source_prefix_len),
            source_prefix_len,
            scope_prefix_len,
        });
    }
    Ok(ecs)
}

/// Encodes a query packet.
pub fn encode_query(q: &WireQuery) -> Vec<u8> {
    let header = Header {
        id: q.id,
        flags: Flags {
            rd: q.rd,
            ..Flags::default()
        },
        qdcount: 1,
        arcount: u16::from(q.edns.is_some()),
        ..Header::default()
    };
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&header.to_bytes());
    crate::wire::write_name_uncompressed(&mut out, &q.qname);
    out.extend_from_slice(&q.qtype.to_be_bytes());
    out.extend_from_slice(&q.qclass.to_be_bytes());
    if let Some(edns) = &q.edns {
        let at = out.len();
        out.resize(at + opt_record_len(edns.ecs), 0);
        write_opt(&mut out[at..], edns);
    }
    out
}

/// Skips a resource record's fixed fields and RDATA, returning
/// `(type, class, ttl, rdata)`. The record's owner name must already have
/// been consumed.
pub(crate) fn record_body<'a>(c: &mut Cursor<'a>) -> Result<(u16, u16, u32, &'a [u8]), WireError> {
    let rtype = c.u16()?;
    let rclass = c.u16()?;
    let ttl = c.u32()?;
    let rdlen = usize::from(c.u16()?);
    let rdata = c.take(rdlen)?;
    Ok((rtype, rclass, ttl, rdata))
}

/// Decodes a query packet: [`QueryView::decode`], its name read into a
/// [`DnsName`] (lower case). Kept for `benchmark/src/adapter.rs`'s decode
/// and encode probes (ROADMAP item 1a); the server keeps the view.
pub fn decode_query(buf: &[u8]) -> Result<WireQuery, WireError> {
    let view = QueryView::decode(buf)?;
    Ok(WireQuery {
        id: view.id,
        rd: view.rd,
        qname: Cursor::new(view.qname_wire).name()?,
        qtype: view.qtype,
        qclass: view.qclass,
        edns: view.edns,
    })
}

/// What a reply carries between its question and its OPT record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Body<'a> {
    /// One A record, its owner a pointer to the question (the 16 baked
    /// bytes of the [`AnswerRr`]), and the ECS scope the OPT echoes.
    Answer(&'a AnswerRr, u8),
    /// No record; the RCODE says why (NOERROR for a type this zone has no
    /// data of, FORMERR, NOTIMP, REFUSED).
    Rcode(u8),
    /// No record and TC=1: retry over TCP.
    Truncated,
    /// One CHAOS TXT record (TTL 0) carrying the text in ≤255-byte
    /// character-strings, trimmed at a line boundary to fit.
    Text(&'a str),
}

/// Writes the reply to `query` at the start of `out` and returns its
/// length and whether it went out truncated, in order:
/// 1. the header: id, opcode and RD copied, QR and AA set;
/// 2. the question, as received;
/// 3. the body;
/// 4. an OPT record advertising [`SERVER_UDP_PAYLOAD`] and echoing the
///    query's ECS option at the body's scope (RFC 7871), if and only
///    if the query carried OPT and it fits (RFC 6891 §7).
///
/// The size rule is applied here and nowhere else: an answer or
/// rcode-only reply longer than `max_payload` is cut to the truncated
/// body (TC=1, RCODE kept), and a text body is trimmed to the last whole
/// line that fits. Nothing is written past the whole reply, nor past
/// `max_payload` bytes or the header and question, whichever ends later:
/// `out` must hold that much.
pub fn encode_reply(
    out: &mut [u8],
    query: &QueryView<'_>,
    body: Body<'_>,
    max_payload: usize,
) -> (usize, bool) {
    let (rcode, scope) = match body {
        Body::Answer(_, scope) => (0, scope),
        Body::Rcode(rcode) => (rcode, 0),
        Body::Truncated | Body::Text(_) => (0, 0),
    };
    let opt = query.edns.map(|edns| reply_opt(edns, scope));
    let opt_len = opt.map_or(0, |o| opt_record_len(o.ecs));
    let question_end = HEADER_LEN + query.question.len();
    out[HEADER_LEN..question_end].copy_from_slice(query.question);
    let room = max_payload
        .saturating_sub(opt_len)
        .saturating_sub(question_end);
    let text = match body {
        Body::Text(text) => trim_txt(text.as_bytes(), room),
        _ => &[],
    };
    let mut len = question_end
        + match body {
            Body::Answer(rr, _) => rr.bytes().len(),
            Body::Text(_) => TXT_FIXED_LEN + txt_rdata_len(text.len()),
            Body::Rcode(_) | Body::Truncated => 0,
        };
    let cut = len + opt_len > max_payload;
    if cut {
        len = question_end;
    }
    match body {
        _ if cut => {}
        Body::Answer(rr, _) => out[question_end..len].copy_from_slice(rr.bytes()),
        Body::Text(_) => write_txt(&mut out[question_end..len], text),
        Body::Rcode(_) | Body::Truncated => {}
    }
    let tc = cut || body == Body::Truncated;
    let answered = len > question_end;
    let opt = opt.filter(|_| len + opt_len <= max_payload);
    if let Some(opt) = &opt {
        len += write_opt(&mut out[len..], opt);
    }
    let header = Header {
        id: query.id,
        flags: Flags {
            qr: true,
            opcode: query.opcode,
            aa: true,
            tc,
            rd: query.rd,
            rcode,
            ..Flags::default()
        },
        qdcount: u16::from(!query.question.is_empty()),
        ancount: u16::from(answered),
        nscount: 0,
        arcount: u16::from(opt.is_some()),
    };
    out[..HEADER_LEN].copy_from_slice(&header.to_bytes());
    (len, tc)
}

/// A TXT record's bytes ahead of its RDATA: owner pointer, type, class,
/// TTL and RDLENGTH.
const TXT_FIXED_LEN: usize = 12;

/// Wire size of a TXT RDATA carrying `len` payload bytes: one length
/// octet per ≤255-byte character-string chunk.
fn txt_rdata_len(len: usize) -> usize {
    len + len.div_ceil(255).max(1)
}

/// `text`, or its longest prefix ending at a line boundary whose TXT
/// record fits in `room` bytes, so the scrape output stays parseable. If
/// not even an empty record fits, the caller's size rule cuts the record.
fn trim_txt(text: &[u8], room: usize) -> &[u8] {
    if TXT_FIXED_LEN + txt_rdata_len(text.len()) <= room {
        return text;
    }
    // The largest byte budget whose chunked form fits, backed off to a
    // line boundary.
    let budget = room.saturating_sub(TXT_FIXED_LEN);
    let mut keep = budget.saturating_sub(budget / 255 + 1);
    while keep > 0 && (TXT_FIXED_LEN + txt_rdata_len(keep) > room || text[keep - 1] != b'\n') {
        keep -= 1;
    }
    &text[..keep]
}

/// Writes the CHAOS TXT record (TTL 0) carrying `payload` in ≤255-byte
/// character-strings, owned by the question, filling `out`.
fn write_txt(out: &mut [u8], payload: &[u8]) {
    let [t0, t1] = TYPE_TXT.to_be_bytes();
    let [c0, c1] = CLASS_CHAOS.to_be_bytes();
    let [r0, r1] = (txt_rdata_len(payload.len()) as u16).to_be_bytes();
    let fixed = [0xC0, HEADER_LEN as u8, t0, t1, c0, c1, 0, 0, 0, 0, r0, r1];
    out[..TXT_FIXED_LEN].copy_from_slice(&fixed);
    let mut at = TXT_FIXED_LEN;
    if payload.is_empty() {
        out[at] = 0;
    }
    for chunk in payload.chunks(255) {
        out[at] = chunk.len() as u8;
        out[at + 1..at + 1 + chunk.len()].copy_from_slice(chunk);
        at += 1 + chunk.len();
    }
}

/// [`encode_reply`] for a decoded query: an answer body when `answer` is
/// `Some`, else an rcode-only body with `rcode`. A [`WireQuery`] holds no
/// raw bytes, so the question is written from `q.qname` (lower case)
/// and the opcode is 0. Kept only for `benchmark/src/adapter.rs`
/// (ROADMAP item 1a); the server calls [`encode_reply`].
pub fn encode_response(
    q: &WireQuery,
    answer: Option<&DnsAnswer>,
    rcode: u8,
    max_payload: usize,
) -> Vec<u8> {
    let mut question = Vec::with_capacity(q.qname.as_str().len() + 6);
    crate::wire::write_name_uncompressed(&mut question, &q.qname);
    let qname_len = question.len();
    question.extend_from_slice(&q.qtype.to_be_bytes());
    question.extend_from_slice(&q.qclass.to_be_bytes());
    let view = QueryView {
        id: q.id,
        opcode: 0,
        rd: q.rd,
        qname_wire: &question[..qname_len],
        qtype: q.qtype,
        qclass: q.qclass,
        question: &question,
        edns: q.edns,
    };
    let rr = answer.map(|a| (AnswerRr::new(a.addr, a.ttl_s), a.ecs_scope));
    let body = match &rr {
        Some((rr, scope)) => Body::Answer(rr, *scope),
        None => Body::Rcode(rcode),
    };
    // The whole answer reply: no body or size rule makes one longer.
    let ecs = q.edns.and_then(|e| e.ecs);
    let mut out = vec![0u8; HEADER_LEN + question.len() + 16 + opt_record_len(ecs)];
    let (len, _) = encode_reply(&mut out, &view, body, max_payload);
    out.truncate(len);
    out
}

/// Owner name of the in-band metrics endpoint: `TXT metrics.bind CH`,
/// in the tradition of `version.bind`.
pub const CHAOS_METRICS_QNAME: &str = "metrics.bind";

/// A decoded CHAOS-class TXT response (the in-band metrics scrape).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosText {
    /// Transaction id echoed from the query.
    pub id: u16,
    /// Truncation bit: the payload did not fit, retry over TCP.
    pub tc: bool,
    /// Response code (0 = the scrape succeeded).
    pub rcode: u8,
    /// The concatenated TXT character-strings — Prometheus text.
    pub text: String,
}

/// Decodes a CHAOS TXT response, concatenating every character-string in
/// every TXT answer record back into the scrape text.
pub fn decode_chaos_txt(buf: &[u8]) -> Result<ChaosText, WireError> {
    let mut c = Cursor::new(buf);
    let h = Header::decode(&mut c)?;
    if !h.flags.qr {
        return Err(WireError::WrongDirection);
    }
    if h.qdcount != 1 {
        return Err(WireError::BadQuestionCount);
    }
    c.name()?;
    c.skip(4)?;
    let mut text = Vec::new();
    for _ in 0..h.ancount {
        c.name()?;
        let (rtype, rclass, _ttl, rdata) = record_body(&mut c)?;
        if rtype != TYPE_TXT || rclass != CLASS_CHAOS {
            continue;
        }
        let mut r = Cursor::new(rdata);
        while r.remaining() > 0 {
            let len = r.u8()? as usize;
            text.extend_from_slice(r.take(len)?);
        }
    }
    Ok(ChaosText {
        id: h.id,
        tc: h.flags.tc,
        rcode: h.flags.rcode,
        text: String::from_utf8_lossy(&text).into_owned(),
    })
}

/// Decodes a response packet (QR must be 1).
pub fn decode_response(buf: &[u8]) -> Result<WireResponse, WireError> {
    let mut c = Cursor::new(buf);
    let h = Header::decode(&mut c)?;
    if !h.flags.qr {
        return Err(WireError::WrongDirection);
    }
    if h.qdcount != 1 {
        return Err(WireError::BadQuestionCount);
    }
    let qname = c.name()?;
    let qtype = c.u16()?;
    let _qclass = c.u16()?;
    let mut answer = None;
    for _ in 0..h.ancount {
        c.name()?;
        let (rtype, rclass, ttl, rdata) = record_body(&mut c)?;
        if rtype == TYPE_A && rclass == CLASS_IN && answer.is_none() {
            if rdata.len() != 4 {
                return Err(WireError::BadRdata);
            }
            let octets: [u8; 4] = rdata.try_into().unwrap();
            answer = Some((Ipv4Addr::from(octets), ttl));
        }
    }
    for _ in 0..h.nscount {
        c.name()?;
        record_body(&mut c)?;
    }
    let mut ecs = None;
    for _ in 0..h.arcount {
        let owner_root = c.remaining() > 0 && buf[c.pos()] == 0;
        if owner_root {
            c.skip(1)?;
        } else {
            c.name()?;
        }
        let (rtype, _rclass, _ttl, rdata) = record_body(&mut c)?;
        if rtype == TYPE_OPT {
            ecs = parse_opt_rdata(rdata)?;
        }
    }
    Ok(WireResponse {
        id: h.id,
        rcode: h.flags.rcode,
        tc: h.flags.tc,
        aa: h.flags.aa,
        qname,
        qtype,
        answer,
        ecs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_query(ecs: Option<WireEcs>) -> WireQuery {
        WireQuery {
            id: 0x1234,
            rd: true,
            qname: DnsName::new("www.cdn.example").unwrap(),
            qtype: TYPE_A,
            qclass: CLASS_IN,
            edns: Some(Edns {
                udp_payload: 1232,
                ecs,
            }),
        }
    }

    #[test]
    fn query_round_trips_without_edns() {
        let q = WireQuery {
            edns: None,
            ..sample_query(None)
        };
        assert_eq!(decode_query(&encode_query(&q)).unwrap(), q);
    }

    #[test]
    fn query_round_trips_with_ecs() {
        let q = sample_query(Some(WireEcs {
            addr: Ipv4Addr::new(198, 51, 100, 0),
            source_prefix_len: 24,
            scope_prefix_len: 0,
        }));
        assert_eq!(decode_query(&encode_query(&q)).unwrap(), q);
    }

    #[test]
    fn ecs_address_bits_beyond_prefix_are_masked() {
        let q = sample_query(Some(WireEcs {
            addr: Ipv4Addr::new(198, 51, 100, 0),
            source_prefix_len: 16,
            scope_prefix_len: 0,
        }));
        let got = decode_query(&encode_query(&q)).unwrap();
        let ecs = got.edns.unwrap().ecs.unwrap();
        assert_eq!(ecs.addr, Ipv4Addr::new(198, 51, 0, 0));
        assert_eq!(ecs.source_prefix_len, 16);
    }

    #[test]
    fn ecs_round_trips_at_every_source_prefix_len() {
        let client = Ipv4Addr::new(198, 51, 100, 129);
        for spl in [0u8, 8, 16, 20, 24, 32] {
            let q = sample_query(Some(WireEcs {
                addr: mask_addr(client, spl),
                source_prefix_len: spl,
                scope_prefix_len: 0,
            }));
            let got = decode_query(&encode_query(&q)).unwrap();
            assert_eq!(got, q, "spl {spl}");
            // The simulator option must preserve the disclosed length
            // bit-for-bit (0 means "no subnet").
            let opt = got.edns.unwrap().ecs.unwrap().to_option();
            if spl == 0 {
                assert!(opt.is_none());
                continue;
            }
            let opt = opt.unwrap();
            assert_eq!(opt.prefix.len(), spl, "length survives decode");
            assert_eq!(opt.prefix.network(), mask_addr(client, spl));
            let back = WireEcs::from_option(&opt);
            assert_eq!(
                (back.addr, back.source_prefix_len),
                (mask_addr(client, spl), spl)
            );
        }
    }

    #[test]
    fn zero_source_prefix_maps_to_no_option() {
        let e = WireEcs {
            addr: Ipv4Addr::UNSPECIFIED,
            source_prefix_len: 0,
            scope_prefix_len: 0,
        };
        assert_eq!(e.to_option(), None);
    }

    #[test]
    fn response_carries_answer_and_scoped_ecs() {
        let q = sample_query(Some(WireEcs {
            addr: Ipv4Addr::new(198, 51, 100, 0),
            source_prefix_len: 24,
            scope_prefix_len: 0,
        }));
        let a = DnsAnswer::scoped(Ipv4Addr::new(192, 0, 2, 7), 300, 24);
        let wire = encode_response(&q, Some(&a), 0, 1232);
        let r = decode_response(&wire).unwrap();
        assert_eq!(r.id, q.id);
        assert!(r.aa && !r.tc);
        assert_eq!(r.rcode, 0);
        assert_eq!(r.answer, Some((a.addr, a.ttl_s)));
        let ecs = r.ecs.unwrap();
        assert_eq!(ecs.addr, Ipv4Addr::new(198, 51, 100, 0));
        assert_eq!(ecs.source_prefix_len, 24);
        assert_eq!(ecs.scope_prefix_len, 24);
    }

    #[test]
    fn response_without_query_ecs_carries_no_ecs() {
        let q = sample_query(None);
        let a = DnsAnswer::global(Ipv4Addr::new(192, 0, 2, 7), 300);
        let r = decode_response(&encode_response(&q, Some(&a), 0, 1232)).unwrap();
        assert_eq!(r.answer, Some((a.addr, a.ttl_s)));
        assert_eq!(r.ecs, None);
    }

    #[test]
    fn oversized_response_is_truncated_with_tc() {
        let q = sample_query(Some(WireEcs {
            addr: Ipv4Addr::new(198, 51, 100, 0),
            source_prefix_len: 24,
            scope_prefix_len: 0,
        }));
        let a = DnsAnswer::global(Ipv4Addr::new(192, 0, 2, 7), 300);
        // Far too small for the answer, but big enough for question + OPT.
        let wire = encode_response(&q, Some(&a), 0, 60);
        assert!(wire.len() <= 60);
        let r = decode_response(&wire).unwrap();
        assert!(r.tc);
        assert_eq!(r.answer, None);
        assert!(
            r.ecs.is_some(),
            "OPT should survive truncation when it fits"
        );
    }

    #[test]
    fn empty_answer_response_round_trips() {
        let q = sample_query(None);
        let r = decode_response(&encode_response(&q, None, 3, 1232)).unwrap();
        assert_eq!(r.rcode, 3);
        assert_eq!(r.answer, None);
    }

    #[test]
    fn duplicate_opt_records_are_rejected() {
        let q = sample_query(None);
        let mut wire = encode_query(&q);
        // Append a second OPT record and bump ARCOUNT to 2.
        let at = wire.len();
        wire.resize(at + opt_record_len(None), 0);
        write_opt(&mut wire[at..], &Edns::plain(512));
        wire[11] = 2;
        assert_eq!(decode_query(&wire), Err(WireError::BadOpt));
    }

    #[test]
    fn unknown_edns_options_are_skipped() {
        let q = sample_query(None);
        let mut wire = encode_query(&q);
        // Rewrite the OPT RDATA to carry an unknown option (code 0xFFFE).
        let rdlen_at = wire.len() - 2;
        wire[rdlen_at..].copy_from_slice(&8u16.to_be_bytes());
        wire.extend_from_slice(&0xFFFEu16.to_be_bytes());
        wire.extend_from_slice(&4u16.to_be_bytes());
        wire.extend_from_slice(&[1, 2, 3, 4]);
        let got = decode_query(&wire).unwrap();
        assert_eq!(got.edns.unwrap().ecs, None);
    }

    /// The scrape question, echoed as a server would: `metrics.bind`
    /// TXT CH, its reply written by `encode_reply` with `body`.
    fn chaos_reply(body: Body<'_>, max_payload: usize) -> Vec<u8> {
        let q = WireQuery {
            id: 0x77AA,
            rd: false,
            qname: DnsName::new(CHAOS_METRICS_QNAME).unwrap(),
            qtype: TYPE_TXT,
            qclass: CLASS_CHAOS,
            edns: None,
        };
        let wire = encode_query(&q);
        let query = QueryView::decode(&wire).unwrap();
        let mut out = vec![0; max_payload];
        let (len, _) = encode_reply(&mut out, &query, body, max_payload);
        out.truncate(len);
        out
    }

    #[test]
    fn chaos_txt_round_trips_multi_chunk_payload() {
        // Over 255 bytes forces multiple character-string chunks.
        let text: String = (0..40).map(|i| format!("metric_{i}_total {i}\n")).collect();
        assert!(text.len() > 255);
        let got = decode_chaos_txt(&chaos_reply(Body::Text(&text), 65535)).unwrap();
        assert_eq!(got.id, 0x77AA);
        assert!(!got.tc);
        assert_eq!(got.rcode, 0);
        assert_eq!(got.text, text);
    }

    #[test]
    fn chaos_txt_over_udp_truncates_instead_of_trimming() {
        // What the server sends a UDP scrape, whatever the text's size.
        let wire = chaos_reply(Body::Truncated, 512);
        assert!(wire.len() <= 512);
        let got = decode_chaos_txt(&wire).unwrap();
        assert!(got.tc, "a UDP scrape must set TC");
        assert_eq!(got.text, "");
    }

    #[test]
    fn chaos_txt_over_tcp_trims_at_a_line_boundary() {
        let text = "some_metric_total 123\n".repeat(5000);
        let cap = 4096;
        let wire = chaos_reply(Body::Text(&text), cap);
        assert!(wire.len() <= cap);
        let got = decode_chaos_txt(&wire).unwrap();
        assert!(!got.tc);
        assert!(!got.text.is_empty());
        assert!(got.text.ends_with('\n'), "trim must land on a line end");
        assert!(text.starts_with(&got.text));
    }

    #[test]
    fn chaos_txt_empty_payload_is_one_empty_string() {
        let got = decode_chaos_txt(&chaos_reply(Body::Text(""), 512)).unwrap();
        assert!(!got.tc);
        assert_eq!(got.text, "");
    }
}
