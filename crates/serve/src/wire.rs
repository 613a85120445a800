//! RFC 1035 wire primitives: bounds-checked reads, header bits, and name
//! encode/decode with compression.
//!
//! The decode side is written for hostile input — every read is
//! bounds-checked, compression pointers must point strictly backwards (the
//! classic anti-loop rule), the number of pointer jumps is capped, and the
//! reassembled name is revalidated through [`DnsName`]'s RFC 1035 shape
//! rules before anything downstream sees it. The encode side writes names
//! without pointers: a reply's only repeated name is its answer's owner,
//! a fixed pointer to the question.

use anycast_dns::DnsName;

/// Fixed DNS header length in octets.
pub const HEADER_LEN: usize = 12;
/// `A` record type.
pub const TYPE_A: u16 = 1;
/// `TXT` record type (RFC 1035 §3.3.14) — carries the in-band metrics
/// scrape payload.
pub const TYPE_TXT: u16 = 16;
/// `OPT` pseudo-record type (EDNS0, RFC 6891).
pub const TYPE_OPT: u16 = 41;
/// `IN` class.
pub const CLASS_IN: u16 = 1;
/// `CH` (CHAOS) class — the classic side channel for server self-report
/// queries (`version.bind`, `metrics.bind` here).
pub const CLASS_CHAOS: u16 = 3;
/// EDNS option code for client subnet (RFC 7871).
pub const OPTION_ECS: u16 = 8;
/// Maximum UDP payload for plain (non-EDNS) DNS, per RFC 1035.
pub const CLASSIC_UDP_LIMIT: usize = 512;
/// Maximum wire length of an encoded name (RFC 1035 §3.1).
pub const MAX_NAME_WIRE_LEN: usize = 255;
/// Maximum label length.
pub const MAX_LABEL_LEN: usize = 63;
/// Cap on compression-pointer jumps while decoding one name. Pointers
/// must also strictly decrease, so this is belt *and* suspenders.
pub const MAX_POINTER_JUMPS: usize = 32;

/// Why a packet failed to decode. Every variant is a controlled error —
/// arbitrary input can produce any of these but never a panic (pinned by
/// the `decode_arbitrary_bytes_never_panics` proptest).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// A read ran past the end of the buffer.
    Truncated,
    /// A label length octet used the reserved 0x40/0x80 prefixes.
    BadLabelType,
    /// A compression pointer did not point strictly backwards.
    ForwardPointer,
    /// More than [`MAX_POINTER_JUMPS`] pointer hops in one name.
    PointerLoop,
    /// The reassembled name exceeded [`MAX_NAME_WIRE_LEN`] octets.
    NameTooLong,
    /// The reassembled name failed [`DnsName`] validation.
    BadName,
    /// The message did not carry exactly one question.
    BadQuestionCount,
    /// The message direction bit did not match what the caller expected.
    WrongDirection,
    /// The question's name held a compression pointer; a reply copies the
    /// question as received, so it must stand alone.
    CompressedQuestion,
    /// A structurally malformed OPT record or ECS option payload.
    BadOpt,
    /// A resource record's RDLENGTH disagreed with its payload.
    BadRdata,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WireError::Truncated => "message truncated",
            WireError::BadLabelType => "reserved label type",
            WireError::ForwardPointer => "compression pointer does not point backwards",
            WireError::PointerLoop => "too many compression pointer jumps",
            WireError::NameTooLong => "name exceeds 255 octets",
            WireError::BadName => "name fails RFC 1035 validation",
            WireError::BadQuestionCount => "message must carry exactly one question",
            WireError::WrongDirection => "QR bit does not match expected direction",
            WireError::CompressedQuestion => "compression pointer in the question",
            WireError::BadOpt => "malformed EDNS OPT / ECS option",
            WireError::BadRdata => "RDLENGTH disagrees with record payload",
        };
        f.write_str(s)
    }
}

impl std::error::Error for WireError {}

/// A bounds-checked read cursor over a received packet.
#[derive(Debug, Clone, Copy)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Current offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Reads one octet.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a big-endian u16.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes([self.u8()?, self.u8()?]))
    }

    /// Reads a big-endian u32.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes([
            self.u8()?,
            self.u8()?,
            self.u8()?,
            self.u8()?,
        ]))
    }

    /// Reads `n` raw octets.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Skips `n` octets.
    pub fn skip(&mut self, n: usize) -> Result<(), WireError> {
        self.take(n).map(|_| ())
    }

    /// Decodes a (possibly compressed) domain name starting at the current
    /// position, leaving the cursor just past the name's in-stream bytes.
    ///
    /// Safety rules enforced on the wire form:
    /// * label length octets `0x40..=0xBF` are rejected (reserved types);
    /// * every compression pointer must target an offset **strictly below**
    ///   the offset of the earliest pointer followed so far — loops and
    ///   forward references are structurally impossible;
    /// * at most [`MAX_POINTER_JUMPS`] hops;
    /// * the reassembled name is capped at [`MAX_NAME_WIRE_LEN`] octets and
    ///   must pass [`DnsName`] validation (so downstream code only ever
    ///   sees well-formed, lowercase names).
    pub fn name(&mut self) -> Result<DnsName, WireError> {
        // The dotted text, on the stack: it is one octet shorter than the
        // wire form the cap below bounds.
        let mut text = [0u8; MAX_NAME_WIRE_LEN];
        let mut text_len = 0usize;
        let mut wire_len = 0usize; // reassembled wire octets (labels + len octets)
        let mut jumps = 0usize;
        // Highest offset the next pointer is allowed to target; tightened
        // on every jump so pointer chains strictly descend.
        let mut pointer_bound = self.pos;
        let mut read = *self; // local cursor; may jump around the buffer
        let mut after: Option<usize> = None; // resume position in the stream

        loop {
            let len = read.u8()?;
            match len {
                0 => break,
                l if l & 0xC0 == 0xC0 => {
                    let lo = read.u8()?;
                    if after.is_none() {
                        after = Some(read.pos);
                    }
                    let target = usize::from(u16::from_be_bytes([l & 0x3F, lo]));
                    // Strictly-descending rule: the first pointer must land
                    // before the start of this name, and every later pointer
                    // before the previous target.
                    if target >= pointer_bound {
                        return Err(WireError::ForwardPointer);
                    }
                    jumps += 1;
                    if jumps > MAX_POINTER_JUMPS {
                        return Err(WireError::PointerLoop);
                    }
                    pointer_bound = target;
                    read = Cursor {
                        buf: self.buf,
                        pos: target,
                    };
                }
                l if l & 0xC0 != 0 => return Err(WireError::BadLabelType),
                l => {
                    let l = usize::from(l);
                    wire_len += 1 + l;
                    if wire_len + 1 > MAX_NAME_WIRE_LEN {
                        return Err(WireError::NameTooLong);
                    }
                    let bytes = read.take(l)?;
                    if !bytes.is_ascii() {
                        return Err(WireError::BadName);
                    }
                    if text_len > 0 {
                        text[text_len] = b'.';
                        text_len += 1;
                    }
                    text[text_len..text_len + l].copy_from_slice(bytes);
                    text_len += l;
                }
            }
        }
        self.pos = after.unwrap_or(read.pos);
        std::str::from_utf8(&text[..text_len])
            .ok()
            .and_then(|text| DnsName::new(text).ok())
            .ok_or(WireError::BadName)
    }
}

/// Parsed header flags (the second 16-bit word).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// QR: false = query, true = response.
    pub qr: bool,
    /// Opcode (0 = standard query).
    pub opcode: u8,
    /// Authoritative answer.
    pub aa: bool,
    /// Truncated.
    pub tc: bool,
    /// Recursion desired.
    pub rd: bool,
    /// Recursion available.
    pub ra: bool,
    /// Response code.
    pub rcode: u8,
}

impl Flags {
    /// Packs into the wire word. The Z bits are always zero.
    pub fn encode(&self) -> u16 {
        (u16::from(self.qr) << 15)
            | (u16::from(self.opcode & 0x0F) << 11)
            | (u16::from(self.aa) << 10)
            | (u16::from(self.tc) << 9)
            | (u16::from(self.rd) << 8)
            | (u16::from(self.ra) << 7)
            | u16::from(self.rcode & 0x0F)
    }

    /// Unpacks from the wire word, ignoring the Z bits.
    pub fn decode(w: u16) -> Flags {
        Flags {
            qr: w & 0x8000 != 0,
            opcode: ((w >> 11) & 0x0F) as u8,
            aa: w & 0x0400 != 0,
            tc: w & 0x0200 != 0,
            rd: w & 0x0100 != 0,
            ra: w & 0x0080 != 0,
            rcode: (w & 0x000F) as u8,
        }
    }
}

/// The fixed 12-octet message header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Header {
    /// Query id, echoed in the response.
    pub id: u16,
    /// Flag bits.
    pub flags: Flags,
    /// Question count.
    pub qdcount: u16,
    /// Answer count.
    pub ancount: u16,
    /// Authority count.
    pub nscount: u16,
    /// Additional count.
    pub arcount: u16,
}

impl Header {
    /// Appends the 12 header octets.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes());
    }

    /// The 12 header octets.
    pub fn to_bytes(&self) -> [u8; HEADER_LEN] {
        let words = [
            self.id,
            self.flags.encode(),
            self.qdcount,
            self.ancount,
            self.nscount,
            self.arcount,
        ];
        let mut out = [0u8; HEADER_LEN];
        for (at, word) in out.chunks_exact_mut(2).zip(words) {
            at.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Reads the header from a cursor.
    pub fn decode(c: &mut Cursor<'_>) -> Result<Header, WireError> {
        Ok(Header {
            id: c.u16()?,
            flags: Flags::decode(c.u16()?),
            qdcount: c.u16()?,
            ancount: c.u16()?,
            nscount: c.u16()?,
            arcount: c.u16()?,
        })
    }
}

/// Appends a name without compression pointers.
pub fn write_name_uncompressed(out: &mut Vec<u8>, name: &DnsName) {
    for label in name.labels() {
        out.push(label.len() as u8);
        out.extend_from_slice(label.as_bytes());
    }
    out.push(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let h = Header {
            id: 0xBEEF,
            flags: Flags {
                qr: true,
                opcode: 0,
                aa: true,
                tc: false,
                rd: true,
                ra: false,
                rcode: 3,
            },
            qdcount: 1,
            ancount: 1,
            nscount: 0,
            arcount: 1,
        };
        let mut buf = Vec::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), HEADER_LEN);
        let d = Header::decode(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(d, h);
    }

    #[test]
    fn name_round_trips_uncompressed() {
        let n = DnsName::new("www.cdn.example").unwrap();
        let mut buf = Vec::new();
        write_name_uncompressed(&mut buf, &n);
        assert_eq!(buf[0], 3); // "www"
        let mut c = Cursor::new(&buf);
        assert_eq!(c.name().unwrap(), n);
        assert_eq!(c.pos(), buf.len());
    }

    #[test]
    fn self_pointer_is_rejected() {
        // A pointer at offset 0 pointing at itself.
        let buf = [0xC0, 0x00];
        assert_eq!(Cursor::new(&buf).name(), Err(WireError::ForwardPointer));
    }

    #[test]
    fn two_step_pointer_loop_is_rejected() {
        // offset 0: pointer -> 2; offset 2: pointer -> 0. The second hop
        // violates the strictly-descending rule.
        let buf = [0xC0, 0x02, 0xC0, 0x00];
        let mut c = Cursor::new(&buf);
        assert!(c.name().is_err());
    }

    #[test]
    fn forward_pointer_is_rejected() {
        // Pointer at offset 0 pointing forward to offset 2.
        let buf = [0xC0, 0x02, 0x01, b'a', 0x00];
        assert_eq!(Cursor::new(&buf).name(), Err(WireError::ForwardPointer));
    }

    #[test]
    fn reserved_label_types_are_rejected() {
        for len in [0x40u8, 0x80] {
            let buf = [len, 0x00];
            assert_eq!(Cursor::new(&buf).name(), Err(WireError::BadLabelType));
        }
    }

    #[test]
    fn truncated_label_is_an_error() {
        let buf = [5u8, b'a', b'b'];
        assert_eq!(Cursor::new(&buf).name(), Err(WireError::Truncated));
    }

    #[test]
    fn overlong_reassembled_name_is_rejected() {
        // 30 labels of 9 octets = 300 wire octets > 255.
        let mut buf = Vec::new();
        for _ in 0..30 {
            buf.push(9);
            buf.extend_from_slice(b"aaaaaaaaa");
        }
        buf.push(0);
        assert_eq!(Cursor::new(&buf).name(), Err(WireError::NameTooLong));
    }

    #[test]
    fn invalid_label_bytes_are_rejected() {
        let buf = [3u8, b'a', b' ', b'b', 0x00];
        assert_eq!(Cursor::new(&buf).name(), Err(WireError::BadName));
        let buf = [2u8, 0xFF, b'b', 0x00];
        assert_eq!(Cursor::new(&buf).name(), Err(WireError::BadName));
    }

    #[test]
    fn decode_normalizes_case() {
        let buf = [3u8, b'W', b'W', b'W', 3, b'C', b'D', b'N', 0x00];
        assert_eq!(
            Cursor::new(&buf).name().unwrap(),
            DnsName::new("www.cdn").unwrap()
        );
    }
}
