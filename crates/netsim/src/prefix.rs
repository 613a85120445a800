//! Client prefixes.
//!
//! The paper aggregates clients into /24 prefixes throughout ("we aggregated
//! client IP addresses from measurements into /24 prefixes because they tend
//! to be localized", §3.2), and the ECS prediction scheme operates at /24
//! granularity. [`Prefix24`] is that identity: the top 24 bits of an IPv4
//! address. [`Prefix`] generalizes it to any length 0–32 — what RFC 7871
//! ECS actually carries on the wire (resolvers may truncate below /24 for
//! privacy), and what the routing-aware aggregation pass produces when it
//! merges /24s that share a best front-end.

use std::hash::{Hash, Hasher};
use std::net::Ipv4Addr;
use std::num::NonZeroU8;

/// An IPv4 prefix of any length 0–32, stored as the network address with
/// all bits beyond the length zeroed.
///
/// Ordering is `(network, length)` lexicographic, so a covering prefix
/// sorts immediately before the subnets it contains — the order compiled
/// tables and aggregation passes iterate in.
///
/// The length is stored plus one, so zero is a niche: `Option<Prefix>`
/// (a joined row's ECS subnet) costs no tag. `Hash` and `Debug` are
/// written out to see `(net, len)`, exactly as derives on the plain
/// length would; the derived order on `(net, len + 1)` is the same order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Prefix {
    net: u32,
    len_plus_one: NonZeroU8,
}

const _: () = assert!(size_of::<Option<Prefix>>() == size_of::<Prefix>());

impl Prefix {
    /// The `/len` prefix containing `addr`. Lengths above 32 are clamped;
    /// host bits are masked off.
    pub fn new(addr: Ipv4Addr, len: u8) -> Prefix {
        Prefix::from_raw(u32::from(addr), len)
    }

    /// Constructs from a raw 32-bit network value; host bits are masked.
    pub fn from_raw(raw: u32, len: u8) -> Prefix {
        let len = len.min(32);
        Prefix {
            net: raw & mask(len),
            len_plus_one: NonZeroU8::MIN.saturating_add(len),
        }
    }

    /// The network address (host bits zero).
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.net)
    }

    /// The raw 32-bit network value.
    pub fn raw(&self) -> u32 {
        self.net
    }

    /// The prefix length in bits.
    pub fn len(&self) -> u8 {
        self.len_plus_one.get() - 1
    }

    /// Whether this is the zero-length prefix (all of IPv4).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// This prefix truncated to `len` bits (no-op when `len` is not
    /// shorter).
    pub fn truncate(&self, len: u8) -> Prefix {
        if len >= self.len() {
            *self
        } else {
            Prefix::from_raw(self.net, len)
        }
    }

    /// Whether `addr` belongs to this prefix.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        (u32::from(addr) & mask(self.len())) == self.net
    }

    /// A stable 64-bit key for hashing into seeded random streams,
    /// distinct across `(network, length)` pairs.
    pub fn key(&self) -> u64 {
        (u64::from(self.net) << 8) | u64::from(self.len())
    }
}

impl Hash for Prefix {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.net.hash(state);
        self.len().hash(state);
    }
}

impl std::fmt::Debug for Prefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prefix")
            .field("net", &self.net)
            .field("len", &self.len())
            .finish()
    }
}

impl From<Prefix24> for Prefix {
    fn from(p: Prefix24) -> Prefix {
        Prefix::from_raw(p.raw(), 24)
    }
}

impl std::fmt::Display for Prefix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.network(), self.len())
    }
}

/// The network mask for a prefix length (0 → all-zero mask).
fn mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else if len >= 32 {
        u32::MAX
    } else {
        u32::MAX << (32 - u32::from(len))
    }
}

/// An IPv4 /24 prefix, stored as the network address with the low octet
/// zeroed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prefix24(u32);

impl Prefix24 {
    /// The prefix containing `addr`.
    pub fn containing(addr: Ipv4Addr) -> Prefix24 {
        Prefix24(u32::from(addr) & 0xFFFF_FF00)
    }

    /// Constructs from a raw network value; the low octet is masked off.
    pub fn from_raw(raw: u32) -> Prefix24 {
        Prefix24(raw & 0xFFFF_FF00)
    }

    /// The network address (low octet zero).
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.0)
    }

    /// The raw 32-bit network value.
    pub fn raw(&self) -> u32 {
        self.0
    }

    /// The host address with the given low octet inside this prefix.
    pub fn host(&self, low: u8) -> Ipv4Addr {
        Ipv4Addr::from(self.0 | u32::from(low))
    }

    /// Whether `addr` belongs to this prefix.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        (u32::from(addr) & 0xFFFF_FF00) == self.0
    }

    /// A stable 64-bit key for hashing into seeded random streams.
    pub fn key(&self) -> u64 {
        u64::from(self.0)
    }
}

impl std::fmt::Display for Prefix24 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/24", self.network())
    }
}

/// Allocates distinct /24 prefixes sequentially from a base, skipping
/// reserved ranges. The workload generator uses one allocator per world so
/// every client /24 is unique.
#[derive(Debug, Clone)]
pub struct PrefixAllocator {
    next: u32,
}

impl Default for PrefixAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl PrefixAllocator {
    /// Starts allocation at 11.0.0.0/24 (clear of 0/8, 10/8 private space,
    /// and loopback).
    pub fn new() -> Self {
        PrefixAllocator {
            next: u32::from(Ipv4Addr::new(11, 0, 0, 0)),
        }
    }

    /// Allocates the next unused /24.
    ///
    /// # Panics
    /// Panics if the allocator runs past 223.255.255.0 (more /24s than any
    /// experiment could use — a loud failure beats silent reuse).
    pub fn alloc(&mut self) -> Prefix24 {
        loop {
            let candidate = self.next;
            assert!(
                candidate < u32::from(Ipv4Addr::new(224, 0, 0, 0)),
                "prefix space exhausted"
            );
            self.next = candidate.wrapping_add(0x100);
            let first_octet = (candidate >> 24) as u8;
            // Skip loopback and multicast-adjacent ranges, and private 172.16/12
            // and 192.168/16 for realism.
            let private_172 = first_octet == 172
                && ((candidate >> 16) & 0xFF) >= 16
                && ((candidate >> 16) & 0xFF) < 32;
            let private_192 = first_octet == 192 && ((candidate >> 16) & 0xFF) == 168;
            if first_octet == 127 || private_172 || private_192 {
                continue;
            }
            return Prefix24::from_raw(candidate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containing_masks_low_octet() {
        let p = Prefix24::containing(Ipv4Addr::new(93, 184, 216, 34));
        assert_eq!(p.network(), Ipv4Addr::new(93, 184, 216, 0));
        assert!(p.contains(Ipv4Addr::new(93, 184, 216, 255)));
        assert!(!p.contains(Ipv4Addr::new(93, 184, 217, 0)));
    }

    #[test]
    fn host_addresses_stay_inside() {
        let p = Prefix24::from_raw(u32::from(Ipv4Addr::new(10, 1, 2, 99)));
        assert_eq!(p.network(), Ipv4Addr::new(10, 1, 2, 0));
        assert_eq!(p.host(7), Ipv4Addr::new(10, 1, 2, 7));
        assert!(p.contains(p.host(200)));
    }

    #[test]
    fn display_format() {
        let p = Prefix24::containing(Ipv4Addr::new(8, 8, 8, 8));
        assert_eq!(p.to_string(), "8.8.8.0/24");
    }

    #[test]
    fn allocator_yields_unique_prefixes() {
        let mut alloc = PrefixAllocator::new();
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..100_000 {
            assert!(seen.insert(alloc.alloc()), "duplicate prefix");
        }
    }

    #[test]
    fn allocator_skips_loopback_and_private() {
        let mut alloc = PrefixAllocator::new();
        for _ in 0..2_000_000 {
            let p = alloc.alloc();
            let first = (p.raw() >> 24) as u8;
            let second = ((p.raw() >> 16) & 0xFF) as u8;
            assert_ne!(first, 127);
            assert!(!(first == 172 && (16..32).contains(&second)));
            assert!(!(first == 192 && second == 168));
        }
    }

    #[test]
    fn keys_are_distinct() {
        let a = Prefix24::containing(Ipv4Addr::new(1, 2, 3, 4));
        let b = Prefix24::containing(Ipv4Addr::new(1, 2, 4, 4));
        assert_ne!(a.key(), b.key());
    }

    #[test]
    fn prefix_masks_host_bits_at_any_length() {
        let p = Prefix::new(Ipv4Addr::new(10, 20, 30, 40), 16);
        assert_eq!(p.network(), Ipv4Addr::new(10, 20, 0, 0));
        assert_eq!(p.len(), 16);
        assert!(p.contains(Ipv4Addr::new(10, 20, 255, 1)));
        assert!(!p.contains(Ipv4Addr::new(10, 21, 0, 0)));
        assert_eq!(p.to_string(), "10.20.0.0/16");
        // Degenerate lengths.
        assert!(Prefix::new(Ipv4Addr::new(1, 2, 3, 4), 0).contains(Ipv4Addr::new(9, 9, 9, 9)));
        let host = Prefix::new(Ipv4Addr::new(1, 2, 3, 4), 32);
        assert!(host.contains(Ipv4Addr::new(1, 2, 3, 4)));
        assert!(!host.contains(Ipv4Addr::new(1, 2, 3, 5)));
        // Over-long lengths clamp to 32.
        assert_eq!(Prefix::new(Ipv4Addr::new(1, 2, 3, 4), 40).len(), 32);
    }

    #[test]
    fn prefix_truncate_and_covers() {
        let p24: Prefix = Prefix24::containing(Ipv4Addr::new(93, 184, 216, 34)).into();
        assert_eq!(p24.len(), 24);
        assert_eq!(p24.network(), Ipv4Addr::new(93, 184, 216, 0));
        let p16 = p24.truncate(16);
        assert_eq!(
            (p16.network(), p16.len()),
            (Ipv4Addr::new(93, 184, 0, 0), 16)
        );
        assert!(p16.contains(p24.network()));
        // Truncating to a longer length is the identity.
        assert_eq!(p24.truncate(32), p24);
        let other = Prefix::new(Ipv4Addr::new(93, 185, 0, 0), 16);
        assert!(!other.contains(p24.network()));
    }

    /// The stored `len + 1` never shows: hashing, `Debug`, order and
    /// `Display` all see the `(net, len)` a prefix was built from.
    /// ([`crate::stream::FastHasher`] is checked the same way in its own
    /// tests.)
    #[test]
    fn prefix_reads_as_its_net_and_length() {
        use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
        let build = BuildHasherDefault::<DefaultHasher>::default();
        let nets = [0u32, u32::from(Ipv4Addr::new(1, 2, 3, 4)), u32::MAX];
        let mut all = Vec::new();
        for raw in nets {
            for len in 0..=32u8 {
                let p = Prefix::from_raw(raw, len);
                let tuple = (p.raw(), len);
                assert_eq!(p.len(), len);
                assert_eq!(build.hash_one(p), build.hash_one(tuple), "{p}");
                assert_eq!(
                    format!("{p:?}"),
                    format!("Prefix {{ net: {}, len: {len} }}", p.raw())
                );
                let addr = Ipv4Addr::from(p.raw());
                assert_eq!(p.to_string(), format!("{addr}/{len}"));
                assert_ne!(Some(p), None);
                all.push((p, tuple));
            }
        }
        for &(a, ta) in &all {
            for &(b, tb) in &all {
                assert_eq!(a.cmp(&b), ta.cmp(&tb), "{a} vs {b}");
                assert_eq!(a == b, ta == tb, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn prefix_keys_separate_lengths() {
        let a = Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 16);
        let b = Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 24);
        assert_ne!(a.key(), b.key());
        assert!(a < b, "shorter prefix of the same network sorts first");
    }
}
