//! Seeded inputs the benchmark builds itself: the synthetic training day
//! behind `retrain_publish` and both serve workloads, and the query pools
//! the load generator replays.
//!
//! Everything here is plain data — no library type appears — so the
//! program under test only ever receives generated inputs, and the same
//! seed gives the same bytes on every commit.

/// SplitMix64: the benchmark's only random source.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for `(seed, salt)`; distinct salts give unrelated streams.
    pub fn new(seed: u64, salt: u64) -> SplitMix {
        SplitMix(mix(seed ^ mix(salt)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The SplitMix64 finalizer; also the benchmark's digest step.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-sensitive digest of a sequence of words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    /// The empty digest.
    pub fn new() -> Digest {
        Digest(0x6a09_e667_f3bc_c908)
    }

    /// Folds one word in.
    pub fn push(&mut self, word: u64) {
        self.0 = mix(self.0.rotate_left(5) ^ word);
    }
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

/// Shape of a synthetic training day.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaySpec {
    /// Client /24 groups, eight per /21 allocation block.
    pub groups: usize,
    /// Fewest samples per (group, target) pair.
    pub min_samples: u32,
    /// Most samples per (group, target) pair.
    pub max_samples: u32,
    /// Front-end sites the unicast targets are drawn from.
    pub n_sites: u16,
    /// Distinct resolvers the /21 blocks are spread over.
    pub n_ldns: u32,
}

impl DaySpec {
    /// The pinned day: 40,000 /24s, anycast plus three unicast targets
    /// each, 16–40 samples per pair — about 4.5M rows and, after
    /// aggregation, a table of several thousand variable-length entries.
    pub const PINNED: DaySpec = DaySpec {
        groups: 40_000,
        min_samples: 16,
        max_samples: 40,
        n_sites: 44,
        n_ldns: 2_000,
    };

    /// A small day with the same structure, for the unit tests.
    #[cfg(test)]
    pub const TINY: DaySpec = DaySpec {
        groups: 256,
        min_samples: 20,
        max_samples: 24,
        n_sites: 12,
        n_ldns: 16,
    };

    fn blocks(&self) -> usize {
        self.groups / 8
    }
}

/// Targets measured per group: anycast plus three unicast front-ends.
pub const TARGETS_PER_GROUP: usize = 4;
/// Share of /24s whose first unicast target beats anycast.
const BETTER_UNICAST_SHARE: f64 = 0.20;
/// First /21 block's network; blocks follow at a four-block stride so the
/// aggregation trie has gaps to reason about.
const FIRST_BLOCK: u32 = 0x0100_0000;
const BLOCK_STRIDE: u32 = 0x2000;
/// Where miss queries point: a range no block or aggregate covers.
const MISS_BASE: u32 = 0xCB00_0000;

/// One joined measurement of the synthetic day, as plain fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthRow {
    /// Measurement id, dense from 0.
    pub id: u64,
    /// Network address of the client /24.
    pub prefix: u32,
    /// Resolver id of the client's block.
    pub ldns: u32,
    /// `None` for the anycast target, else the unicast site.
    pub unicast_site: Option<u16>,
    /// Site that served the fetch.
    pub served_site: u16,
    /// Latency, ms.
    pub rtt_ms: f64,
    /// Second of the day.
    pub time_s: f64,
}

/// Network address of group `g`'s /24 (seed-independent, so a query pool
/// can name covered prefixes without the day).
pub fn group_prefix(g: usize) -> u32 {
    FIRST_BLOCK + (g / 8) as u32 * BLOCK_STRIDE + (g % 8) as u32 * 256
}

/// Resolver id of group `g`'s block.
pub fn group_ldns(spec: &DaySpec, g: usize) -> u32 {
    ((g / 8) as u32) % spec.n_ldns
}

/// Streams the day's rows in block order. The same `(seed, spec)` yields
/// the same rows; a different seed moves latencies, site choices and
/// sample counts.
pub fn day_rows(seed: u64, spec: DaySpec) -> impl Iterator<Item = SynthRow> {
    let mut rng = SplitMix::new(seed, 0x7379_6e74_6864_6179);
    let mut id = 0u64;
    (0..spec.blocks()).flat_map(move |b| {
        let mut rows = Vec::with_capacity(8 * TARGETS_PER_GROUP * spec.max_samples as usize);
        let base_ms = 10.0 + rng.unit() * 150.0;
        let sites: [u16; 3] = std::array::from_fn(|_| rng.below(u64::from(spec.n_sites)) as u16);
        for k in 0..8 {
            let g = b * 8 + k;
            let prefix = group_prefix(g);
            let ldns = group_ldns(&spec, g);
            let better = rng.unit() < BETTER_UNICAST_SHARE;
            for t in 0..TARGETS_PER_GROUP {
                let (unicast_site, served_site, center_ms) = if t == 0 {
                    (None, sites[0], base_ms)
                } else {
                    let center = if t == 1 && better {
                        base_ms - 15.0 - rng.unit() * 20.0
                    } else {
                        base_ms + 5.0 + rng.unit() * 40.0
                    };
                    (Some(sites[t - 1]), sites[t - 1], center.max(2.0))
                };
                let span = u64::from(spec.max_samples - spec.min_samples) + 1;
                let n = u64::from(spec.min_samples) + rng.below(span);
                for _ in 0..n {
                    rows.push(SynthRow {
                        id,
                        prefix,
                        ldns,
                        unicast_site,
                        served_site,
                        rtt_ms: center_ms * (0.9 + 0.4 * rng.unit()),
                        time_s: rng.unit() * 86_400.0,
                    });
                    id += 1;
                }
            }
        }
        rows
    })
}

/// Digest of a day's rows, for the determinism check.
pub fn day_digest(seed: u64, spec: DaySpec) -> u64 {
    let mut d = Digest::new();
    for r in day_rows(seed, spec) {
        d.push(r.id ^ (u64::from(r.prefix) << 32));
        d.push(u64::from(r.ldns) ^ (u64::from(r.served_site) << 32));
        d.push(r.unicast_site.map_or(u64::MAX, u64::from));
        d.push(r.rtt_ms.to_bits());
        d.push(r.time_s.to_bits());
    }
    d.0
}

/// The shape of one pool query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Canonical lower-case name, EDNS with an ECS /24: the template path.
    EcsSlash24,
    /// Canonical name, ECS disclosing only this many bits (/16 or /20).
    EcsCoarse(u8),
    /// Canonical name, EDNS without ECS.
    PlainEdns,
    /// 0x20-style mixed-case name with an ECS /24: answered by the full
    /// decoder and encoder, never by the template.
    MixedCaseEcs,
    /// Mixed-case name, RD set, no OPT record: the full path again.
    MixedCaseBare,
    /// An AAAA question: an empty NOERROR answer.
    Aaaa,
    /// An ECS query cut inside its OPT record: FORMERR.
    TruncatedOpt,
}

/// One query of a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolQuery {
    /// Shape.
    pub kind: QueryKind,
    /// Client address the ECS option is derived from.
    pub client: u32,
    /// Which generator socket (and so which resolver) sends it.
    pub socket: u8,
}

/// Which traffic mix a pool holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Canonical ECS /24 only.
    Steady,
    /// The sixteen-query pattern of [`MIXED_PATTERN`].
    Mixed,
}

/// `serve_mixed_swap`'s repeating pattern: 8 canonical ECS /24, 2 coarse
/// ECS, 2 plain EDNS, 2 non-templatable, 1 AAAA, 1 malformed.
pub const MIXED_PATTERN: [QueryKind; 16] = [
    QueryKind::EcsSlash24,
    QueryKind::EcsCoarse(16),
    QueryKind::EcsSlash24,
    QueryKind::PlainEdns,
    QueryKind::EcsSlash24,
    QueryKind::MixedCaseEcs,
    QueryKind::EcsSlash24,
    QueryKind::Aaaa,
    QueryKind::EcsSlash24,
    QueryKind::EcsCoarse(20),
    QueryKind::EcsSlash24,
    QueryKind::PlainEdns,
    QueryKind::EcsSlash24,
    QueryKind::MixedCaseBare,
    QueryKind::EcsSlash24,
    QueryKind::TruncatedOpt,
];

/// Queries in a pool.
pub const POOL_LEN: usize = 65_536;
/// Share of pool clients inside a trained /24.
const COVERED_SHARE: f64 = 0.90;

/// Builds a pool: 90% of clients sit in a trained /24, 10% miss every
/// table. Whole patterns alternate over `sockets` generator sockets, so
/// every socket carries every query kind.
pub fn query_pool(seed: u64, spec: &DaySpec, mix: Mix, sockets: u8, len: usize) -> Vec<PoolQuery> {
    let mut rng = SplitMix::new(seed, 0x706f_6f6c);
    (0..len)
        .map(|i| {
            let kind = match mix {
                Mix::Steady => QueryKind::EcsSlash24,
                Mix::Mixed => MIXED_PATTERN[i % MIXED_PATTERN.len()],
            };
            let host = rng.below(254) as u32 + 1;
            let client = if rng.unit() < COVERED_SHARE {
                group_prefix(rng.below(spec.groups as u64) as usize) + host
            } else {
                MISS_BASE + ((rng.below(1 << 16) as u32) << 8) + host
            };
            PoolQuery {
                kind,
                client,
                socket: ((i / MIXED_PATTERN.len()) % usize::from(sockets.max(1))) as u8,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_day_and_another_seed_another() {
        let a = day_digest(7, DaySpec::TINY);
        assert_eq!(a, day_digest(7, DaySpec::TINY));
        assert_ne!(a, day_digest(8, DaySpec::TINY));
    }

    #[test]
    fn the_day_has_the_shape_the_spec_names() {
        let spec = DaySpec::TINY;
        let rows: Vec<SynthRow> = day_rows(3, spec).collect();
        let pairs = spec.groups * TARGETS_PER_GROUP;
        assert!(rows.len() >= pairs * spec.min_samples as usize);
        assert!(rows.len() <= pairs * spec.max_samples as usize);
        assert!(rows.iter().enumerate().all(|(i, r)| r.id == i as u64));
        let mut prefixes: Vec<u32> = rows.iter().map(|r| r.prefix).collect();
        prefixes.dedup();
        assert_eq!(prefixes.len(), spec.groups);
        assert!(prefixes.iter().all(|p| p & 0xff == 0));
        assert!(rows.iter().all(|r| r.rtt_ms > 0.0 && r.ldns < spec.n_ldns));
        // The eight /24s of a block share one /21.
        assert_eq!(group_prefix(0) >> 11, group_prefix(7) >> 11);
        assert_ne!(group_prefix(7) >> 11, group_prefix(8) >> 11);
    }

    #[test]
    fn pools_follow_their_mix() {
        let spec = DaySpec::TINY;
        let steady = query_pool(1, &spec, Mix::Steady, 1, 4096);
        assert!(steady
            .iter()
            .all(|q| q.kind == QueryKind::EcsSlash24 && q.socket == 0));
        let covered = steady.iter().filter(|q| q.client < MISS_BASE).count();
        assert!((3500..3900).contains(&covered), "{covered} of 4096 covered");
        let mixed = query_pool(1, &spec, Mix::Mixed, 2, 4096);
        let count = |k: QueryKind| mixed.iter().filter(|q| q.kind == k).count();
        assert_eq!(count(QueryKind::EcsSlash24), 2048);
        assert_eq!(count(QueryKind::PlainEdns), 512);
        assert_eq!(count(QueryKind::TruncatedOpt), 256);
        assert_eq!(count(QueryKind::Aaaa), 256);
        assert!(mixed.iter().any(|q| q.socket == 1));
        assert_eq!(mixed, query_pool(1, &spec, Mix::Mixed, 2, 4096));
        assert_ne!(mixed, query_pool(2, &spec, Mix::Mixed, 2, 4096));
    }
}
