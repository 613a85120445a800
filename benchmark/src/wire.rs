//! What the load generator reads out of a response packet.
//!
//! The generator verifies every answer it counts, so it needs the answer's
//! `(addr, ttl, scope)` at a few tens of nanoseconds per packet. This
//! module is a bounds-checked reader for exactly the three response shapes
//! the pinned traffic can produce; `check` proves it agrees with the
//! library's full decoder on every pool query.

/// The verifiable content of one response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// NOERROR with one A record; `scope` is the echoed ECS SCOPE
    /// PREFIX-LENGTH, `None` when the response carries no ECS option.
    Answer {
        /// Answered address.
        addr: u32,
        /// Answer TTL, seconds.
        ttl: u32,
        /// Echoed ECS scope.
        scope: Option<u8>,
    },
    /// NOERROR with no answer record (a question the zone has no data for).
    Empty,
    /// RCODE 1: the server could not parse the query.
    FormErr,
}

const HEADER_LEN: usize = 12;
const TYPE_A: u16 = 1;
const TYPE_OPT: u16 = 41;
const OPTION_ECS: u16 = 8;

fn u16_at(b: &[u8], at: usize) -> Option<u16> {
    Some(u16::from_be_bytes([*b.get(at)?, *b.get(at + 1)?]))
}

fn u32_at(b: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_be_bytes(b.get(at..at + 4)?.try_into().ok()?))
}

/// Skips one name (labels or a compression pointer) starting at `at`.
fn skip_name(b: &[u8], mut at: usize) -> Option<usize> {
    loop {
        let len = *b.get(at)?;
        if len & 0xC0 == 0xC0 {
            return Some(at + 2);
        }
        if len == 0 {
            return Some(at + 1);
        }
        at += 1 + usize::from(len);
    }
}

/// The transaction id and QR bit of a packet, if it has a header.
pub fn response_id(b: &[u8]) -> Option<u16> {
    (b.len() >= HEADER_LEN && b[2] & 0x80 != 0).then(|| u16::from_be_bytes([b[0], b[1]]))
}

/// Reads a response. `None` for anything the pinned traffic cannot
/// produce: a truncated packet, another RCODE, a non-A answer.
pub fn read_reply(b: &[u8]) -> Option<Reply> {
    response_id(b)?;
    let rcode = b[3] & 0x0F;
    let qd = u16_at(b, 4)?;
    let an = u16_at(b, 6)?;
    let ns = u16_at(b, 8)?;
    let ar = u16_at(b, 10)?;
    if rcode == 1 {
        return (an == 0).then_some(Reply::FormErr);
    }
    if rcode != 0 || qd != 1 || ns != 0 || an > 1 {
        return None;
    }
    let mut at = skip_name(b, HEADER_LEN)? + 4;
    let mut answer = None;
    if an == 1 {
        at = skip_name(b, at)?;
        let rtype = u16_at(b, at)?;
        let ttl = u32_at(b, at + 4)?;
        let rdlen = usize::from(u16_at(b, at + 8)?);
        if rtype != TYPE_A || rdlen != 4 {
            return None;
        }
        answer = Some((u32_at(b, at + 10)?, ttl));
        at += 10 + rdlen;
    }
    let mut scope = None;
    for _ in 0..ar {
        at = skip_name(b, at)?;
        let rtype = u16_at(b, at)?;
        let rdlen = usize::from(u16_at(b, at + 8)?);
        let rdata = b.get(at + 10..at + 10 + rdlen)?;
        at += 10 + rdlen;
        if rtype != TYPE_OPT {
            continue;
        }
        let mut o = 0;
        while o + 4 <= rdata.len() {
            let code = u16_at(rdata, o)?;
            let len = usize::from(u16_at(rdata, o + 2)?);
            if code == OPTION_ECS {
                // family(2) source-len(1) scope-len(1) address…
                scope = Some(*rdata.get(o + 7)?);
            }
            o += 4 + len;
        }
    }
    Some(match answer {
        Some((addr, ttl)) => Reply::Answer { addr, ttl, scope },
        None => Reply::Empty,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A templated response: header, `www.cdn.example A IN`, one A record
    /// through a name pointer, an OPT with an ECS /24 echo of scope 21.
    fn answer_packet() -> Vec<u8> {
        let mut p = vec![0xBE, 0xEF, 0x84, 0x00, 0, 1, 0, 1, 0, 0, 0, 1];
        p.extend_from_slice(b"\x03www\x03cdn\x07example\x00");
        p.extend_from_slice(&[0, 1, 0, 1]);
        p.extend_from_slice(&[0xC0, 0x0C, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 198, 51, 100, 7]);
        p.extend_from_slice(&[0, 0, 41, 0x04, 0xD0, 0, 0, 0, 0, 0, 11]);
        p.extend_from_slice(&[0, 8, 0, 7, 0, 1, 24, 21, 1, 2, 3]);
        p
    }

    #[test]
    fn reads_address_ttl_and_scope() {
        let p = answer_packet();
        assert_eq!(response_id(&p), Some(0xBEEF));
        assert_eq!(
            read_reply(&p),
            Some(Reply::Answer {
                addr: u32::from_be_bytes([198, 51, 100, 7]),
                ttl: 60,
                scope: Some(21),
            })
        );
    }

    #[test]
    fn a_response_without_opt_has_no_scope() {
        let mut p = answer_packet();
        p.truncate(p.len() - 22);
        p[11] = 0; // ARCOUNT
        assert_eq!(
            read_reply(&p),
            Some(Reply::Answer {
                addr: u32::from_be_bytes([198, 51, 100, 7]),
                ttl: 60,
                scope: None,
            })
        );
    }

    #[test]
    fn empty_and_formerr_are_told_apart() {
        let mut empty = vec![0, 7, 0x84, 0x00, 0, 1, 0, 0, 0, 0, 0, 0];
        empty.extend_from_slice(b"\x03www\x03cdn\x07example\x00\x00\x1c\x00\x01");
        assert_eq!(read_reply(&empty), Some(Reply::Empty));
        let formerr = [0, 9, 0x80, 0x01, 0, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(read_reply(&formerr), Some(Reply::FormErr));
    }

    #[test]
    fn queries_and_cut_packets_are_rejected() {
        let p = answer_packet();
        let mut query = p.clone();
        query[2] &= 0x7F;
        assert_eq!(response_id(&query), None);
        assert_eq!(read_reply(&query), None);
        for cut in 0..p.len() {
            assert_eq!(read_reply(&p[..cut]), None, "cut at {cut}");
        }
        let mut refused = p;
        refused[3] = 5;
        assert_eq!(read_reply(&refused), None);
    }
}
