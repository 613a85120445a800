//! The AS-level policy graph: classified nodes, Gao-Rexford edges, and the
//! CDN's peering/transit sessions.
//!
//! Nodes are dense `u32` indexes (the same values as the bridged
//! [`crate::ids::AsId`]s), adjacency is CSR (one `offsets`/`targets` pair
//! per relationship kind), so a 75k-AS world with ~2 edges per AS costs a
//! few megabytes and BFS passes touch memory sequentially.

use anycast_geo::MetroId;

use crate::ids::BorderId;

/// The business class of an AS, following the standard
/// enterprise/transit/hypergiant classification used by AS-graph studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AsClass {
    /// Enterprise customer / access ISP: hosts clients, buys transit,
    /// occasionally peers with the CDN directly.
    Ec,
    /// Small (regional) transit provider: sells transit to ECs, buys from
    /// large transit providers, peers regionally.
    Stp,
    /// Large (tier-1-like) transit provider: global backbone, provider-free,
    /// full peer mesh with the other LTPs.
    Ltp,
    /// Content/access hypergiant: massive peering footprint, no customers.
    Hypergiant,
}

impl AsClass {
    /// Stable one-byte code (used in compact tables and bench output).
    pub fn code(self) -> u8 {
        match self {
            AsClass::Ec => 0,
            AsClass::Stp => 1,
            AsClass::Ltp => 2,
            AsClass::Hypergiant => 3,
        }
    }
}

/// Compressed sparse rows: `targets[offsets[v]..offsets[v+1]]` is row `v`.
/// The graph's adjacency is a `Csr<u32>` per relationship kind, each row a
/// node's neighbors sorted ascending; the topology keeps its per-AS lists
/// (footprints, peerings, transits, ASes by metro) as one table each.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr<T = u32> {
    offsets: Vec<u32>,
    targets: Vec<T>,
}

impl<T: Copy> Csr<T> {
    /// An empty table with room for `rows` rows of `items` items in all.
    pub(crate) fn with_capacity(rows: usize, items: usize) -> Csr<T> {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Csr {
            offsets,
            targets: Vec::with_capacity(items),
        }
    }

    /// Appends `row` as the next row.
    pub(crate) fn push_row(&mut self, row: &[T]) {
        self.targets.extend_from_slice(row);
        self.offsets.push(self.targets.len() as u32);
    }

    /// Gives back the room a table grown row by row has left over.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.offsets.shrink_to_fit();
        self.targets.shrink_to_fit();
    }

    /// Appends each `(row, item)` of `extra` to its row, after the row's
    /// own items and in the order given. One pass in place, from the last
    /// row down: a row only ever moves up, into space already vacated.
    pub(crate) fn append_to_rows(&mut self, mut extra: Vec<(u32, T)>) {
        if extra.is_empty() {
            return;
        }
        extra.sort_by_key(|&(row, _)| row);
        self.targets.extend(extra.iter().map(|&(_, item)| item));
        let mut placed = extra.len();
        for v in (0..self.rows()).rev() {
            if placed == 0 {
                break; // rows `..=v` stay where they are
            }
            // `extra[..placed]` go to rows `..=v`; `extra[first..placed]` to `v`.
            let first = extra[..placed].partition_point(|&(row, _)| (row as usize) < v);
            let (lo, hi) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
            self.targets.copy_within(lo..hi, lo + first);
            for (i, &(_, item)) in extra[first..placed].iter().enumerate() {
                self.targets[hi + first + i] = item;
            }
            self.offsets[v + 1] = (hi + placed) as u32;
            placed = first;
        }
    }

    /// Row `u` lists every `v` of the `(v, u)` pairs `pairs()` yields, in
    /// the order they come — so sorted when they come by ascending `v`.
    /// Walks the pairs twice: once to count each row, once to fill it.
    pub(crate) fn inverted<I: Iterator<Item = (T, u32)>>(
        n: usize,
        pairs: impl Fn() -> I,
    ) -> Csr<T> {
        let mut offsets = vec![0u32; n + 1];
        for (_, u) in pairs() {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut next = offsets.clone();
        // Every slot is written below; the first pair's item only fills
        // them until then.
        let mut targets = match pairs().next() {
            Some((fill, _)) => vec![fill; offsets[n] as usize],
            None => Vec::new(),
        };
        for (v, u) in pairs() {
            targets[next[u as usize] as usize] = v;
            next[u as usize] += 1;
        }
        Csr { offsets, targets }
    }

    /// Row `v`.
    pub fn row(&self, v: u32) -> &[T] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of stored items (edges, for adjacency).
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the table stores no items.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Bytes used by the offsets and items.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.targets.len() * std::mem::size_of::<T>()
    }
}

impl Csr {
    /// Builds the CSR from unsorted `(from, to)` pairs over `n` nodes,
    /// duplicates dropped: the adjacency of the pairs sorted and deduped.
    /// A counting pass on `from`, then each row sorted and deduped in
    /// place — rows are a handful of edges, so O(E) in practice.
    pub fn from_pairs(n: usize, edges: Vec<(u32, u32)>) -> Csr {
        let Csr {
            mut offsets,
            mut targets,
        } = Csr::inverted(n, || edges.iter().map(|&(from, to)| (to, from)));
        // Sort each row and compact it down over the duplicates dropped
        // before it.
        let mut kept = 0;
        for v in 0..n {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            targets[lo..hi].sort_unstable();
            offsets[v] = kept as u32;
            for i in lo..hi {
                if i == lo || targets[i] != targets[kept - 1] {
                    targets[kept] = targets[i];
                    kept += 1;
                }
            }
        }
        offsets[n] = kept as u32;
        targets.truncate(kept);
        Csr { offsets, targets }
    }

    /// Inverts a forest over `n` nodes given as one optional parent per
    /// node: `neighbors(p)` are the nodes whose parent is `p`. A counting
    /// pass, not a sort — O(n).
    pub fn from_parents(n: usize, parent_of: impl Fn(u32) -> Option<u32>) -> Csr {
        Csr::inverted(n, || {
            (0..n as u32).filter_map(|v| parent_of(v).map(|p| (v, p)))
        })
    }

    /// The reverse relation: `u` lists `v` where `v` lists `u`. Every
    /// target must be a node. A counting pass, not a sort — O(E).
    pub fn transposed(&self) -> Csr {
        let n = self.rows();
        Csr::inverted(n, || {
            (0..n as u32).flat_map(|v| self.neighbors(v).iter().map(move |&u| (v, u)))
        })
    }

    /// Neighbors of `v`, sorted ascending.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        self.row(v)
    }
}

/// How an AS interconnects with the CDN on one BGP session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CdnRelation {
    /// The CDN buys transit from this AS: the AS learns the anycast prefix
    /// *from a customer*, so it re-exports it to everyone (providers, peers,
    /// customers) — these sessions are what makes the prefix globally
    /// reachable.
    Transit,
    /// Settlement-free peering: the AS learns the prefix *from a peer* and
    /// re-exports it only to its customers.
    Peer,
}

/// One AS↔CDN BGP session: where (which border routers) the AS can hand
/// traffic to the CDN, and under which business relationship.
#[derive(Debug, Clone, PartialEq)]
pub struct CdnSession {
    /// The adjacent AS (graph node index).
    pub node: u32,
    /// Business relationship of the session.
    pub relation: CdnRelation,
    /// Border routers where the session is established, sorted ascending.
    /// Hot-potato handoff picks among these per downstream neighbor.
    pub borders: Vec<BorderId>,
}

/// Sentinel for "no CDN session" in [`PolicyGraph::session_of`].
pub const NO_SESSION: u32 = u32::MAX;

/// The generated AS-level topology: classes, homes, Gao-Rexford adjacency
/// and CDN sessions. Routing over it lives in [`crate::worldgen::policy`].
#[derive(Debug, Clone)]
pub struct PolicyGraph {
    /// Node count.
    pub n: u32,
    /// Business class per node.
    pub class: Vec<AsClass>,
    /// Home metro per node (footprints and hot-potato distances anchor
    /// here).
    pub home_metro: Vec<MetroId>,
    /// `providers.neighbors(v)` = ASes `v` buys transit from.
    pub providers: Csr,
    /// `customers.neighbors(v)` = ASes that buy transit from `v` (the exact
    /// transpose of `providers`).
    pub customers: Csr,
    /// `peers.neighbors(v)` = settlement-free peers of `v` (symmetric).
    pub peers: Csr,
    /// CDN sessions, indexed by the values in `session_of`.
    pub sessions: Vec<CdnSession>,
    /// Per node: index into `sessions`, or [`NO_SESSION`].
    pub session_of: Vec<u32>,
}

impl PolicyGraph {
    /// The CDN session of `v`, if it has one.
    pub fn session(&self, v: u32) -> Option<&CdnSession> {
        match self.session_of[v as usize] {
            NO_SESSION => None,
            s => Some(&self.sessions[s as usize]),
        }
    }

    /// Bytes used by the adjacency + attribute arrays.
    pub fn memory_bytes(&self) -> usize {
        self.providers.memory_bytes()
            + self.customers.memory_bytes()
            + self.peers.memory_bytes()
            + self.class.len()
            + self.home_metro.len() * std::mem::size_of::<MetroId>()
            + self.session_of.len() * 4
            + self
                .sessions
                .iter()
                .map(|s| std::mem::size_of::<CdnSession>() + s.borders.len() * 2)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_roundtrip_sorted_dedup() {
        let csr = Csr::from_pairs(4, vec![(2, 1), (0, 3), (0, 1), (2, 1), (0, 3)]);
        assert_eq!(csr.neighbors(0), &[1, 3]);
        assert_eq!(csr.neighbors(1), &[] as &[u32]);
        assert_eq!(csr.neighbors(2), &[1]);
        assert_eq!(csr.neighbors(3), &[] as &[u32]);
        assert_eq!(csr.len(), 3);
        assert!(Csr::from_pairs(0, Vec::new()).is_empty());
    }

    #[test]
    fn appended_items_follow_each_rows_own_in_the_order_given() {
        let mut csr: Csr<u16> = Csr::with_capacity(4, 8);
        for row in [&[1, 2][..], &[], &[3], &[4, 5, 6]] {
            csr.push_row(row);
        }
        csr.append_to_rows(vec![(3, 70), (1, 10), (0, 7), (3, 71), (1, 11)]);
        let rows: Vec<&[u16]> = (0..4).map(|v| csr.row(v)).collect();
        assert_eq!(rows, [&[1, 2, 7][..], &[10, 11], &[3], &[4, 5, 6, 70, 71]]);
        assert_eq!(csr.len(), 11);
        csr.append_to_rows(Vec::new());
        assert_eq!(csr.row(3), &[4, 5, 6, 70, 71]);
    }

    #[test]
    fn csr_from_parents_equals_the_sorted_build() {
        let parents = [None, Some(0), Some(0), Some(2), None, Some(2), Some(5)];
        let inverted = Csr::from_parents(parents.len(), |v| parents[v as usize]);
        let pairs = parents
            .iter()
            .enumerate()
            .filter_map(|(v, p)| p.map(|p| (p, v as u32)))
            .collect();
        assert_eq!(inverted, Csr::from_pairs(parents.len(), pairs));
    }

    #[test]
    fn class_codes_are_stable() {
        assert_eq!(AsClass::Ec.code(), 0);
        assert_eq!(AsClass::Stp.code(), 1);
        assert_eq!(AsClass::Ltp.code(), 2);
        assert_eq!(AsClass::Hypergiant.code(), 3);
    }
}
