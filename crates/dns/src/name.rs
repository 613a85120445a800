//! DNS names.
//!
//! Names are stored lowercase (DNS is case-insensitive) and validated
//! against the classic RFC 1035 shape constraints: non-empty labels of at
//! most 63 octets, total length at most 253, and label characters limited to
//! letters, digits and hyphens. The beacon's unique measurement hostnames
//! (`m-<id>.probe.<zone>`) satisfy these by construction.

/// A validated, lowercase DNS name.
///
/// A name of at most 46 bytes — every measurement hostname of
/// the campaign zone — lives in the value itself, so building, cloning and
/// logging one allocates nothing; a longer one is boxed. The representation
/// is a function of the length alone, and every comparison reads the bytes.
///
/// ```
/// use anycast_dns::DnsName;
///
/// let zone = DnsName::new("cdn.example").unwrap();
/// let probe = DnsName::measurement(0xbeef, &zone);
/// assert!(probe.is_in_zone(&zone));
/// assert_eq!(probe.measurement_id(), Some(0xbeef));
/// ```
#[derive(Clone)]
pub struct DnsName(Repr);

/// Bytes a name can hold in the value itself: what is left of 48 once the
/// variant tag and the length have taken a byte each.
const INLINE_CAP: usize = 46;

#[derive(Clone)]
enum Repr {
    /// `bytes[..len]` is the name.
    Inline {
        len: u8,
        bytes: [u8; INLINE_CAP],
    },
    Heap(Box<str>),
}

const _: () = assert!(std::mem::size_of::<DnsName>() == 48);

/// Why a string failed to parse as a DNS name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// Empty input or a name consisting only of the root dot.
    Empty,
    /// Total length exceeded 253 characters.
    TooLong,
    /// A label was empty (consecutive dots) or longer than 63 characters.
    BadLabel(String),
    /// A label contained a character outside `[a-z0-9-]` or started/ended
    /// with a hyphen.
    BadChar(String),
}

impl std::fmt::Display for NameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NameError::Empty => write!(f, "empty name"),
            NameError::TooLong => write!(f, "name exceeds 253 characters"),
            NameError::BadLabel(l) => write!(f, "bad label {l:?}"),
            NameError::BadChar(l) => write!(f, "bad character in label {l:?}"),
        }
    }
}

impl std::error::Error for NameError {}

/// What a measurement hostname starts with, ahead of its id.
const ID_PREFIX: &str = "m-";
/// Hex digits of a measurement id: a `u64`, zero-padded.
const ID_DIGITS: usize = 16;
/// The digits [`DnsName::measurement`] writes.
const HEX: &[u8; 16] = b"0123456789abcdef";
/// Where a measurement hostname's first label ends.
const ID_END: usize = ID_PREFIX.len() + ID_DIGITS;
/// What follows the first label of a measurement hostname, ahead of the zone.
const PROBE: &str = ".probe.";

impl DnsName {
    /// The name of `len` bytes that `write` fills in, which must leave
    /// lowercase ASCII in every one of them.
    fn build<E>(len: usize, write: impl FnOnce(&mut [u8]) -> Result<(), E>) -> Result<DnsName, E> {
        if len <= INLINE_CAP {
            let mut bytes = [0; INLINE_CAP];
            write(&mut bytes[..len])?;
            let len = len as u8;
            Ok(DnsName(Repr::Inline { len, bytes }))
        } else {
            let mut bytes = vec![0; len];
            write(&mut bytes)?;
            let text = String::from_utf8(bytes).expect("a name is ASCII");
            Ok(DnsName(Repr::Heap(text.into_boxed_str())))
        }
    }

    /// Parses and normalizes a name. A single trailing dot is accepted and
    /// dropped.
    pub fn new(s: &str) -> Result<DnsName, NameError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Err(NameError::Empty);
        }
        if s.len() > 253 {
            return Err(NameError::TooLong);
        }
        // One pass: each label is checked and lowercased straight into the
        // value; only a rejected label is ever copied out.
        DnsName::build(s.len(), |out| {
            let mut at = 0;
            for label in s.split('.') {
                let bad = |why: fn(String) -> NameError| Err(why(label.to_ascii_lowercase()));
                if label.is_empty() || label.len() > 63 {
                    return bad(NameError::BadLabel);
                }
                if label.starts_with('-') || label.ends_with('-') {
                    return bad(NameError::BadChar);
                }
                if at > 0 {
                    out[at] = b'.';
                    at += 1;
                }
                for b in label.bytes() {
                    if !(b.is_ascii_alphanumeric() || b == b'-') {
                        return bad(NameError::BadChar);
                    }
                    out[at] = b.to_ascii_lowercase();
                    at += 1;
                }
            }
            Ok(())
        })
    }

    /// The bytes of the normalized name.
    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Heap(text) => text.as_bytes(),
        }
    }

    /// The normalized name as a string slice.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => {
                std::str::from_utf8(&bytes[..usize::from(*len)]).expect("a name is ASCII")
            }
            Repr::Heap(text) => text,
        }
    }

    /// The labels, leftmost first.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.as_str().split('.')
    }

    /// Whether this name is underneath `zone` (or equal to it).
    pub fn is_in_zone(&self, zone: &DnsName) -> bool {
        let (name, zone) = (self.as_bytes(), zone.as_bytes());
        match name.len().checked_sub(zone.len()) {
            Some(0) => name == zone,
            Some(above) => name[above - 1] == b'.' && &name[above..] == zone,
            None => false,
        }
    }

    /// Builds the beacon's unique measurement hostname for measurement id
    /// `id` in `zone`: `m-<id>.probe.<zone>`. The uniqueness of `id` is what
    /// lets the backend join client-side HTTP timings with server-side DNS
    /// logs (§3.2.2).
    pub fn measurement(id: u64, zone: &DnsName) -> DnsName {
        let zone = zone.as_bytes();
        let zone_at = ID_END + PROBE.len();
        let Ok(name) = DnsName::build(zone_at + zone.len(), |out| {
            out[..ID_PREFIX.len()].copy_from_slice(ID_PREFIX.as_bytes());
            for (digit, nibble) in out[ID_PREFIX.len()..ID_END]
                .iter_mut()
                .zip((0..ID_DIGITS).rev())
            {
                *digit = HEX[(id >> (4 * nibble)) as usize & 0xf];
            }
            out[ID_END..zone_at].copy_from_slice(PROBE.as_bytes());
            out[zone_at..].copy_from_slice(zone);
            Ok::<(), std::convert::Infallible>(())
        });
        name
    }

    /// Extracts the measurement id from a name built by
    /// [`DnsName::measurement`], if it is one: a first label of exactly
    /// `m-` and sixteen hex digits.
    pub fn measurement_id(&self) -> Option<u64> {
        let bytes = self.as_bytes();
        if !bytes.starts_with(ID_PREFIX.as_bytes()) || bytes.len() < ID_END {
            return None;
        }
        // The digits must be the rest of the first label.
        if bytes.get(ID_END).is_some_and(|&b| b != b'.') {
            return None;
        }
        bytes[ID_PREFIX.len()..ID_END]
            .iter()
            .try_fold(0u64, |id, &b| {
                Some((id << 4) | u64::from(char::from(b).to_digit(16)?))
            })
    }
}

impl PartialEq for DnsName {
    fn eq(&self, other: &DnsName) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for DnsName {}

impl Ord for DnsName {
    fn cmp(&self, other: &DnsName) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl PartialOrd for DnsName {
    fn partial_cmp(&self, other: &DnsName) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Hashes as the text does (`str`'s bytes and its `0xff` terminator).
impl std::hash::Hash for DnsName {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl std::fmt::Debug for DnsName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("DnsName").field(&self.as_str()).finish()
    }
}

impl std::fmt::Display for DnsName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for DnsName {
    type Err = NameError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DnsName::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_normalizes() {
        let n = DnsName::new("WWW.Example.COM.").unwrap();
        assert_eq!(n.as_str(), "www.example.com");
        assert_eq!(
            n.labels().collect::<Vec<_>>(),
            vec!["www", "example", "com"]
        );
    }

    #[test]
    fn rejects_bad_names() {
        assert_eq!(DnsName::new(""), Err(NameError::Empty));
        assert_eq!(DnsName::new("."), Err(NameError::Empty));
        assert!(matches!(DnsName::new("a..b"), Err(NameError::BadLabel(_))));
        assert!(matches!(
            DnsName::new("-bad.com"),
            Err(NameError::BadChar(_))
        ));
        assert!(matches!(
            DnsName::new("bad-.com"),
            Err(NameError::BadChar(_))
        ));
        assert!(matches!(
            DnsName::new("spa ce.com"),
            Err(NameError::BadChar(_))
        ));
        let long_label = "a".repeat(64);
        assert!(matches!(
            DnsName::new(&long_label),
            Err(NameError::BadLabel(_))
        ));
        let long_name = format!("{}.{}", "a".repeat(63), "b".repeat(63)).repeat(3);
        assert!(matches!(DnsName::new(&long_name), Err(NameError::TooLong)));
        // The error carries the offending label, lowercased as the name
        // would have been, whichever representation was being filled.
        for tail in ["com", &"x".repeat(60)] {
            assert_eq!(
                DnsName::new(&format!("Ok.-Bad.{tail}")),
                Err(NameError::BadChar("-bad".to_string()))
            );
            assert_eq!(
                DnsName::new(&format!("ok.Sp ace.{tail}")),
                Err(NameError::BadChar("sp ace".to_string()))
            );
            assert_eq!(
                DnsName::new(&format!("A..{tail}")),
                Err(NameError::BadLabel(String::new()))
            );
        }
    }

    #[test]
    fn zone_membership() {
        let zone = DnsName::new("cdn.example").unwrap();
        assert!(DnsName::new("a.cdn.example").unwrap().is_in_zone(&zone));
        assert!(DnsName::new("cdn.example").unwrap().is_in_zone(&zone));
        assert!(!DnsName::new("cdn.example.org").unwrap().is_in_zone(&zone));
        assert!(!DnsName::new("badcdn.example").unwrap().is_in_zone(&zone));
    }

    #[test]
    fn measurement_names_round_trip() {
        let zone = DnsName::new("cdn.example").unwrap();
        for id in [0u64, 1, 0xdead_beef, u64::MAX] {
            let n = DnsName::measurement(id, &zone);
            assert!(n.is_in_zone(&zone));
            assert_eq!(n.measurement_id(), Some(id), "{n}");
        }
    }

    #[test]
    fn non_measurement_names_have_no_id() {
        assert_eq!(
            DnsName::new("www.cdn.example").unwrap().measurement_id(),
            None
        );
        assert_eq!(
            DnsName::new("m-xyz.probe.cdn.example")
                .unwrap()
                .measurement_id(),
            None
        );
        assert_eq!(
            DnsName::new("m-0.probe.cdn.example")
                .unwrap()
                .measurement_id(),
            None
        );
    }

    /// The hostname as it was built before the digits were written by
    /// hand. Kept verbatim as the reference.
    fn parent_measurement(id: u64, zone: &DnsName) -> String {
        format!("m-{id:016x}.probe.{zone}")
    }

    /// `measurement_id` as it stood before it read fixed offsets: split
    /// off the first label and hand its tail to `from_str_radix`. Kept
    /// verbatim as the reference.
    fn parent_measurement_id(name: &DnsName) -> Option<u64> {
        let first = name.labels().next()?;
        let hex = first.strip_prefix("m-")?;
        if hex.len() != 16 {
            return None;
        }
        u64::from_str_radix(hex, 16).ok()
    }

    #[test]
    fn measurement_names_equal_the_formatted_ones() {
        let mut ids = vec![0u64, 1, u64::MAX, 0xdead_beef];
        // The low bits a beacon's four slots put under an execution id.
        for execution in [0u64, 1, 0xabc, (7 << 28) | 12_345, u64::MAX >> 2] {
            ids.extend((0..4).map(|slot| (execution << 2) | slot));
        }
        // Every digit in every position.
        for nibble in 0..16 {
            ids.extend((0..16u64).map(|digit| digit << (4 * nibble)));
        }
        // SplitMix64 from a fixed seed.
        let mut state = 2015u64;
        ids.extend((0..10_000).map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }));
        for zone in ["cdn.example", "probe.cdn.example", "x"] {
            let zone = DnsName::new(zone).unwrap();
            for &id in &ids {
                let name = DnsName::measurement(id, &zone);
                assert_eq!(name.as_str(), parent_measurement(id, &zone));
                assert_eq!(name, DnsName::new(name.as_str()).unwrap());
                assert_eq!(name.measurement_id(), Some(id), "{name}");
                assert_eq!(parent_measurement_id(&name), Some(id), "{name}");
            }
        }
    }

    #[test]
    fn measurement_id_accepts_what_the_label_split_parse_accepted() {
        let good = "0123456789abcdef";
        let mut corpus: Vec<String> = vec![
            // A bare first label, with and without a zone under it.
            format!("m-{good}"),
            format!("m-{good}.probe.cdn.example"),
            format!("m-{good}.cdn.example"),
            // One digit short, one digit long.
            format!("m-{}.probe.cdn.example", &good[1..]),
            format!("m-{good}0.probe.cdn.example"),
            format!("m-{}", &good[1..]),
            format!("m-{good}0"),
            // No dot after the digits.
            format!("m-{good}probe.cdn.example"),
            format!("m-{good}-x.cdn.example"),
            // The prefix missing, mangled, or a label further down.
            format!("{good}.probe.cdn.example"),
            format!("m{good}.probe.cdn.example"),
            format!("n-{good}.probe.cdn.example"),
            format!("mm-{good}.probe.cdn.example"),
            format!("x.m-{good}.probe.cdn.example"),
            "m-".to_string(),
            "m".to_string(),
            "m-.probe.cdn.example".to_string(),
            // Capitals are folded before either parser sees them.
            format!("M-{}.PROBE.cdn.example", good.to_ascii_uppercase()),
            "m-ffffffffffffffff.probe.cdn.example".to_string(),
            "m-0000000000000000.probe.cdn.example".to_string(),
        ];
        // A character that is no hex digit in each position, among them
        // the `-` that `from_str_radix` would read as a sign up front.
        for at in 0..16 {
            for bad in ["g", "z", "-"] {
                let mut hex = good.to_string();
                hex.replace_range(at..=at, bad);
                corpus.push(format!("m-{hex}.probe.cdn.example"));
                corpus.push(format!("m-{hex}"));
            }
        }
        let mut accepted = 0;
        for text in &corpus {
            // `m-0123…-` ends its label with a hyphen: not a name at all.
            let Ok(name) = DnsName::new(text) else {
                continue;
            };
            let id = name.measurement_id();
            assert_eq!(id, parent_measurement_id(&name), "{text}");
            accepted += usize::from(id.is_some());
        }
        assert_eq!(accepted, 6, "the corpus lost its positive cases");
        // The one sign `from_str_radix` does take can never reach a parser:
        // a name cannot hold it.
        assert!(DnsName::new(&format!("m-+{}.probe.cdn.example", &good[1..])).is_err());
    }

    #[test]
    fn from_str_works() {
        let n: DnsName = "bing.cdn.example".parse().unwrap();
        assert_eq!(n.as_str(), "bing.cdn.example");
    }
}
