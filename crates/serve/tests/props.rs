//! Property tests for the wire codec: hostile-input safety and bit-exact
//! round-trips.
//!
//! The decode fuzz tests run 10 000 cases each (the ISSUE acceptance
//! floor): arbitrary bytes must never panic, only return `Ok` or a
//! controlled [`WireError`].

mod common;

use std::net::Ipv4Addr;

use anycast_dns::{DnsAnswer, DnsName};
use anycast_serve::message::{
    decode_query, decode_response, encode_query, encode_response, Edns, WireEcs, WireQuery,
};
use anycast_serve::wire::{Cursor, Flags, Header, CLASS_IN, TYPE_A};
use proptest::prelude::*;

fn arbitrary_name() -> impl Strategy<Value = DnsName> {
    proptest::string::string_regex("[a-z0-9]{1,12}(\\.[a-z0-9]{1,12}){0,3}")
        .expect("pattern parses")
        .prop_map(|s| DnsName::new(&s).expect("generated names are valid"))
}

fn arbitrary_ecs() -> impl Strategy<Value = WireEcs> {
    (any::<u32>(), 0u8..33).prop_map(|(addr, spl)| {
        let mask = if spl == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(spl))
        };
        WireEcs {
            addr: Ipv4Addr::from(addr & mask),
            source_prefix_len: spl,
            scope_prefix_len: 0,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    #[test]
    fn decode_query_of_arbitrary_bytes_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let _ = decode_query(&bytes);
    }

    #[test]
    fn decode_response_of_arbitrary_bytes_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let _ = decode_response(&bytes);
    }

    #[test]
    fn name_decode_of_arbitrary_bytes_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let _ = Cursor::new(&bytes).name();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn header_bits_round_trip(
        id in any::<u16>(),
        qr in any::<bool>(),
        opcode in 0u8..16,
        aa in any::<bool>(),
        tc in any::<bool>(),
        rd in any::<bool>(),
        ra in any::<bool>(),
        rcode in 0u8..16,
        counts in (any::<u16>(), any::<u16>(), any::<u16>(), any::<u16>()),
    ) {
        let h = Header {
            id,
            flags: Flags { qr, opcode, aa, tc, rd, ra, rcode },
            qdcount: counts.0,
            ancount: counts.1,
            nscount: counts.2,
            arcount: counts.3,
        };
        let buf = h.to_bytes();
        prop_assert_eq!(Header::decode(&mut Cursor::new(&buf)).unwrap(), h);
    }

    #[test]
    fn queries_round_trip_bit_exactly(
        id in any::<u16>(),
        rd in any::<bool>(),
        qname in arbitrary_name(),
        payload in 512u16..4096,
        ecs in arbitrary_ecs(),
        with_edns in any::<bool>(),
        with_ecs in any::<bool>(),
    ) {
        let q = WireQuery {
            id,
            rd,
            qname,
            qtype: TYPE_A,
            qclass: CLASS_IN,
            edns: with_edns.then_some(Edns {
                udp_payload: payload,
                ecs: with_ecs.then_some(ecs),
            }),
        };
        prop_assert_eq!(decode_query(&encode_query(&q)).unwrap(), q);
    }

    #[test]
    fn responses_round_trip_addr_ttl_and_scope(
        id in any::<u16>(),
        qname in arbitrary_name(),
        addr in any::<u32>(),
        ttl in any::<u32>(),
        scope in 0u8..33,
        ecs in arbitrary_ecs(),
        with_ecs in any::<bool>(),
    ) {
        let q = WireQuery {
            id,
            rd: true,
            qname,
            qtype: TYPE_A,
            qclass: CLASS_IN,
            edns: Some(Edns {
                udp_payload: 1232,
                ecs: with_ecs.then_some(ecs),
            }),
        };
        let answer = DnsAnswer::scoped(Ipv4Addr::from(addr), ttl, scope);
        let wire = encode_response(&q, Some(&answer), 0, 4096);
        let r = decode_response(&wire).unwrap();
        prop_assert_eq!(r.id, q.id);
        prop_assert_eq!(r.qname, q.qname);
        prop_assert_eq!(r.answer, Some((answer.addr, answer.ttl_s)));
        match (with_ecs, ecs.source_prefix_len) {
            (true, _) => {
                // The option is echoed: same address + source prefix,
                // scope from the answer.
                let echoed = r.ecs.expect("ECS must be echoed");
                prop_assert_eq!(echoed.addr, ecs.addr);
                prop_assert_eq!(echoed.source_prefix_len, ecs.source_prefix_len);
                prop_assert_eq!(echoed.scope_prefix_len, scope);
            }
            (false, _) => prop_assert!(r.ecs.is_none()),
        }
    }

    #[test]
    fn ecs_options_round_trip_through_queries(ecs in arbitrary_ecs()) {
        let q = WireQuery {
            id: 9,
            rd: false,
            qname: DnsName::new("www.cdn.example").unwrap(),
            qtype: TYPE_A,
            qclass: CLASS_IN,
            edns: Some(Edns { udp_payload: 1232, ecs: Some(ecs) }),
        };
        let got = decode_query(&encode_query(&q)).unwrap();
        prop_assert_eq!(got.edns.unwrap().ecs, Some(ecs));
    }

    #[test]
    fn corrupting_one_byte_never_panics(
        qname in arbitrary_name(),
        ecs in arbitrary_ecs(),
        pos_seed in any::<u16>(),
        val in any::<u8>(),
    ) {
        // Structured-then-corrupted packets reach deeper decode paths
        // than pure noise.
        let q = WireQuery {
            id: 7,
            rd: true,
            qname,
            qtype: TYPE_A,
            qclass: CLASS_IN,
            edns: Some(Edns { udp_payload: 1232, ecs: Some(ecs) }),
        };
        let mut wire = encode_query(&q);
        let pos = usize::from(pos_seed) % wire.len();
        wire[pos] = val;
        let _ = decode_query(&wire);
        let _ = decode_response(&wire);
    }
}

/// The group index's match against the obviously-correct model: a linear
/// scan for the longest stored prefix that covers the address and fits
/// the query's SOURCE PREFIX-LENGTH, and the resolver's own entry for an
/// LDNS query.
mod group_index {
    use super::*;
    use anycast_core::prediction::{GroupIndex, GroupKey, Grouping};
    use anycast_dns::LdnsId;
    use anycast_netsim::Prefix;

    fn naive_lookup(
        entries: &[(Prefix, Ipv4Addr)],
        addr: Ipv4Addr,
        max_len: u8,
    ) -> Option<(Ipv4Addr, u8)> {
        entries
            .iter()
            .filter(|(p, _)| p.len() <= max_len.min(32) && p.contains(addr))
            // Ties on length are exact duplicates; `max_by_key` keeps the
            // last, matching the index's later-row-replaces semantics.
            .max_by_key(|(p, _)| p.len())
            .map(|&(p, a)| (a, p.len()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn group_index_matches_naive_linear_scan(
            raw_entries in prop::collection::vec(
                // Nets drawn from 8 top bytes × dense mid bits so random
                // sets actually nest and share subtrees.
                (0u32..8, any::<u16>(), 0u8..33, any::<u32>()),
                0..40,
            ),
            raw_probes in prop::collection::vec((any::<u32>(), 0u8..40), 1..20),
            // Resolver entries beside the subnets, drawn from few ids so
            // that some repeat.
            raw_ldns in prop::collection::vec((0u32..8, any::<u32>()), 0..8),
        ) {
            let entries: Vec<(Prefix, Ipv4Addr)> = raw_entries
                .into_iter()
                .map(|(hi, mid, len, addr)| {
                    let net = (hi << 24) | (u32::from(mid) << 8);
                    (Prefix::from_raw(net, len), Ipv4Addr::from(addr))
                })
                .collect();
            let ldns: Vec<(LdnsId, Ipv4Addr)> = raw_ldns
                .into_iter()
                .map(|(id, addr)| (LdnsId(id), Ipv4Addr::from(addr)))
                .collect();
            let index: GroupIndex<Ipv4Addr> = entries
                .iter()
                .map(|&(p, a)| (GroupKey::Ecs(p), a))
                .chain(ldns.iter().map(|&(l, a)| (GroupKey::Ldns(l), a)))
                .collect();
            let distinct: std::collections::HashSet<GroupKey> = entries
                .iter()
                .map(|&(p, _)| GroupKey::Ecs(p))
                .chain(ldns.iter().map(|&(l, _)| GroupKey::Ldns(l)))
                .collect();
            prop_assert_eq!(index.len(), distinct.len());
            // Random probes plus each entry's own network at several
            // source lengths — the interesting collision points.
            let mut probes: Vec<(Ipv4Addr, u8)> = raw_probes
                .into_iter()
                .map(|(a, l)| (Ipv4Addr::from(a), l))
                .collect();
            probes.extend(entries.iter().flat_map(|&(p, _)| {
                [
                    (p.network(), 32),
                    (p.network(), p.len()),
                    (Ipv4Addr::from(p.raw() | 0xFF), 24),
                ]
            }));
            for (i, (addr, max_len)) in probes.into_iter().enumerate() {
                // Every ECS query comes from a resolver that may hold an
                // entry of its own, which must never answer it.
                let from = LdnsId(i as u32 % 8);
                let query = Some(Prefix::new(addr, max_len));
                let got = index.match_query(Grouping::Ecs, from, query).map(|(key, &a)| {
                    let GroupKey::Ecs(p) = key else {
                        panic!("resolver entry {key:?} answered an ECS query");
                    };
                    (a, p.len())
                });
                prop_assert_eq!(
                    got,
                    naive_lookup(&entries, addr, max_len),
                    "addr {} max_len {}",
                    addr,
                    max_len
                );
                // An LDNS query matches its resolver's last row whatever
                // subnet it carries.
                let own = ldns.iter().rev().find(|(l, _)| *l == from).map(|&(_, a)| a);
                let got = index.match_query(Grouping::Ldns, from, query);
                prop_assert_eq!(got.map(|(_, &a)| a), own);
            }
        }
    }
}

/// The compiled table against the source table's own match at every ECS
/// source length 0–32, at addresses inside and outside the trained
/// blocks, for plain, aggregated and LDNS-keyed tables. The loopback suite
/// replays one day's query mix (/24s and the resolvers' truncation
/// lengths); this covers every other length.
mod compiled {
    use super::*;
    use crate::common::Reference;
    use anycast_beacon::{BeaconDataset, BeaconMeasurement, Slot, Target};
    use anycast_core::prediction::{
        AggregationConfig, Grouping, Predictor, PredictorConfig, TrainSpec,
    };
    use anycast_dns::ecs::EcsOption;
    use anycast_dns::LdnsId;
    use anycast_netsim::{CdnAddressing, Day, Prefix, Prefix24, SiteId};

    /// Resolvers the rows come from; one more is unknown to every table.
    const RESOLVERS: u32 = 6;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn compiled_answers_equal_the_tables_own_match_at_every_source_length(
            // Batches of fetches: a /24 of 10.0.0.0/18, its resolver, the
            // target (0 is anycast, `s + 1` front-end `s`), the RTT, and
            // whether the batch alone is too small to score.
            batches in prop::collection::vec(
                (0u32..64, 0..RESOLVERS, 0u16..5, 20.0..120.0f64, any::<bool>()),
                1..60,
            ),
            hosts in prop::collection::vec(any::<u32>(), 0..8),
        ) {
            let mut ds = BeaconDataset::new();
            for (i, &(net, ldns, code, rtt, sparse)) in batches.iter().enumerate() {
                let target = match code {
                    0 => Target::Anycast,
                    s => Target::Unicast(SiteId(s - 1)),
                };
                ds.extend((0..if sparse { 5 } else { 25 }).map(|j| BeaconMeasurement {
                    measurement_id: Slot::Anycast.id_for((i * 25 + j) as u64),
                    slot: Slot::Anycast,
                    prefix: Prefix24::from_raw(0x0A00_0000 | (net << 8)),
                    ldns: LdnsId(ldns),
                    ecs: None,
                    target,
                    served_site: SiteId(0),
                    rtt_ms: rtt + (j % 5) as f64,
                    failed: false,
                    day: Day(0),
                    time_s: 0.0,
                }));
            }
            let ecs = Predictor::new(PredictorConfig::default());
            let ldns = Predictor::new(PredictorConfig {
                grouping: Grouping::Ldns,
                ..PredictorConfig::default()
            });
            let plan = CdnAddressing::standard(8);
            let aggregated = TrainSpec {
                days: vec![Day(0)],
                agg: Some(AggregationConfig::default()),
            };
            let tables = [
                (ecs.train(&ds, Day(0)), Grouping::Ecs),
                (ecs.train(&ds, aggregated), Grouping::Ecs),
                (ldns.train(&ds, Day(0)), Grouping::Ldns),
            ];
            // A host inside each trained /24, then `hosts` inside the
            // trained 10.0.0.0/16 and anywhere at all.
            let mut addrs: Vec<u32> = batches
                .iter()
                .map(|&(net, ..)| 0x0A00_0000 | (net << 8) | (net * 37 % 256))
                .collect();
            addrs.extend(hosts.iter().map(|&h| 0x0A00_0000 | (h & 0xFFFF)));
            addrs.extend(&hosts);
            let subnets = addrs.iter().flat_map(|&a| (0..=32).map(move |l| Prefix::from_raw(a, l)));
            let mut queries: Vec<_> = subnets.map(|p| Some(EcsOption::for_subnet(p))).collect();
            queries.push(None);
            for (table, grouping) in tables {
                let reference = Reference { table, grouping, plan };
                let compiled = reference.compile();
                for resolver in (0..=RESOLVERS).map(LdnsId) {
                    for ecs in queries.iter().map(Option::as_ref) {
                        let served = compiled.answer(resolver, ecs);
                        prop_assert_eq!(
                            (served.addr, served.ttl_s, served.ecs_scope),
                            reference.answer(resolver, ecs),
                            "{:?} table, {:?}, {:?}", grouping, resolver, ecs
                        );
                    }
                }
            }
        }
    }
}

/// The benchmark's two ways to the one encoder agree: `write_response`
/// over a parsed view writes the bytes `encode_response` writes for the
/// decoded query, for every lowercase A query shape.
mod templates {
    use super::*;
    use anycast_serve::template::write_response;
    use anycast_serve::{AnswerRr, QueryView};

    /// ECS source prefix lengths the acceptance gate names explicitly.
    const SOURCE_LENS: [u8; 6] = [0, 8, 16, 20, 24, 32];

    fn ecs_at(addr: u32, spl: u8) -> WireEcs {
        let mask = if spl == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(spl))
        };
        WireEcs {
            addr: Ipv4Addr::from(addr & mask),
            source_prefix_len: spl,
            scope_prefix_len: 0,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn patched_template_is_byte_identical_to_full_encoder(
            id in any::<u16>(),
            rd in any::<bool>(),
            qname in arbitrary_name(),
            payload in 512u16..4096,
            spl_idx in 0usize..SOURCE_LENS.len(),
            ecs_addr in any::<u32>(),
            with_edns in any::<bool>(),
            with_ecs in any::<bool>(),
            // Two independent answers stand in for a hot table swap: the
            // same parsed view patched with each must match the encoder
            // run with each — templates carry no cross-answer state.
            addr_a in any::<u32>(),
            ttl_a in 0u32..86_400,
            addr_b in any::<u32>(),
            ttl_b in 0u32..86_400,
            scope_raw in 0u8..33,
        ) {
            let spl = SOURCE_LENS[spl_idx];
            let ecs = (with_edns && with_ecs).then(|| ecs_at(ecs_addr, spl));
            let scope = if ecs.is_some() { scope_raw } else { 0 };
            let q = WireQuery {
                id,
                rd,
                qname,
                qtype: TYPE_A,
                qclass: CLASS_IN,
                edns: with_edns.then_some(Edns { udp_payload: payload, ecs }),
            };
            let wire = encode_query(&q);
            let view = QueryView::parse(&wire).expect("encoded queries parse");
            prop_assert_eq!(view.id, id);
            let decoded = decode_query(&wire).unwrap();
            let mut out = vec![0u8; 4096];
            for (addr, ttl) in [
                (Ipv4Addr::from(addr_a), ttl_a),
                (Ipv4Addr::from(addr_b), ttl_b),
            ] {
                let rr = AnswerRr::new(addr, ttl);
                let n = write_response(&mut out, &view, &rr, scope);
                let want = encode_response(
                    &decoded,
                    Some(&DnsAnswer::scoped(addr, ttl, scope)),
                    0,
                    4096,
                );
                prop_assert_eq!(&out[..n], &want[..], "write_response == encode_response");
            }
        }
    }
}

/// The parser's accept set for the question's name, against `DnsName`:
/// a pointer-free question is accepted exactly when its labels, joined
/// with dots, make a name `DnsName::new` accepts — less the two shapes the
/// wire itself rules out. A label of 64 bytes has no length octet (0x40 is
/// a reserved label type), and a text ending in a dot names what
/// `DnsName` reads without it, so its question would not echo the name.
mod accept_set {
    use super::*;
    use anycast_serve::wire::HEADER_LEN;
    use anycast_serve::QueryView;

    /// Bytes a clean label draws from.
    const CLEAN: &[u8] = b"ABCXYZabcxyz0189-";
    /// What a dirty label has at one place: a dot (in a label, or
    /// trailing), and bytes `DnsName` refuses.
    const DIRTY: &[u8] = b"._\x00\x7f\x80-";

    /// One to four labels of 1, 2, 7, 63 or 64 bytes, or four whose text is
    /// 250..=255 bytes; each label clean, or with one dirty byte.
    fn labels() -> impl Strategy<Value = Vec<Vec<u8>>> {
        (
            any::<bool>(),
            prop::collection::vec(prop::sample::select(vec![1usize, 2, 7, 63, 64]), 1..5),
            58usize..64,
            prop::collection::vec(prop::sample::select(CLEAN.to_vec()), 256),
            prop::collection::vec(
                (
                    any::<bool>(),
                    0usize..64,
                    prop::sample::select(DIRTY.to_vec()),
                ),
                4,
            ),
        )
            .prop_map(|(long, short, last, clean, dirt)| {
                let lens = if long { vec![63, 63, 63, last] } else { short };
                let mut at = 0;
                lens.iter()
                    .zip(dirt)
                    .map(|(&len, (dirty, place, byte))| {
                        let mut label = clean[at..at + len].to_vec();
                        at += len;
                        if dirty {
                            label[place % len] = byte;
                        }
                        label
                    })
                    .collect()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        #[test]
        fn the_parser_accepts_exactly_the_names_dns_name_does(labels in labels()) {
            let mut wire = vec![0x12, 0x34, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0];
            for label in &labels {
                wire.push(label.len() as u8);
                wire.extend_from_slice(label);
            }
            wire.extend_from_slice(&[0, 0, 1, 0, 1]);
            let text = labels.join(&b'.');
            let name = std::str::from_utf8(&text).ok().and_then(|t| DnsName::new(t).ok());
            let want = labels.iter().all(|l| l.len() <= 63) && !text.ends_with(b".");
            let view = QueryView::decode(&wire);
            prop_assert_eq!(view.is_ok(), want && name.is_some(), "{:?}", String::from_utf8_lossy(&text));
            if let (Ok(view), Some(name)) = (view, name) {
                prop_assert_eq!(view.question, &wire[HEADER_LEN..]);
                prop_assert!(view.qname_is(name.as_str()));
                prop_assert_eq!(decode_query(&wire).map(|q| q.qname), Ok(name));
            }
        }

        /// Owner names are checked in place by `check_name`, and decoded
        /// by `name`: both take the same names, trailing dot and pointers
        /// included, and end at the same byte. The labels come after `lead`
        /// arbitrary bytes, and one of those may be a pointer back.
        #[test]
        fn checking_a_name_in_place_takes_what_decoding_it_takes(
            labels in labels(),
            lead in prop::collection::vec(any::<u8>(), 0..6),
            pointer in any::<bool>(),
        ) {
            let mut wire = lead.clone();
            let start = wire.len();
            for label in &labels {
                wire.push(label.len() as u8);
                wire.extend_from_slice(label);
            }
            match (pointer, start) {
                (true, 1..) => wire.extend_from_slice(&[0xC0, 0]),
                _ => wire.push(0),
            }
            let (mut checked, mut decoded) = (Cursor::new(&wire), Cursor::new(&wire));
            checked.skip(start).unwrap();
            decoded.skip(start).unwrap();
            let (check, decode) = (checked.check_name(), decoded.name());
            prop_assert_eq!(check.is_ok(), decode.is_ok(), "{:?}", wire);
            if check.is_ok() {
                prop_assert_eq!(checked.pos(), decoded.pos());
            }
        }
    }
}

/// Crafted pointer abuse beyond what random bytes reliably hit.
mod pointers {
    use super::*;
    use anycast_serve::wire::WireError;

    #[test]
    fn pointer_chain_that_descends_is_followed() {
        // A valid two-name layout: "cdn.example" at offset 0, then
        // "www" + pointer at offset 13.
        let mut buf = Vec::new();
        buf.extend_from_slice(&[3, b'c', b'd', b'n', 7]);
        buf.extend_from_slice(b"example");
        buf.push(0);
        let second = buf.len();
        buf.extend_from_slice(&[3, b'w', b'w', b'w', 0xC0, 0x00]);
        let mut c = Cursor::new(&buf);
        assert_eq!(c.name().unwrap(), DnsName::new("cdn.example").unwrap());
        assert_eq!(c.pos(), second);
        assert_eq!(c.name().unwrap(), DnsName::new("www.cdn.example").unwrap());
    }

    #[test]
    fn non_descending_chains_are_rejected() {
        // offset 0: label "a" then pointer to 4; offset 4: pointer to 0 —
        // a cycle through two sites.
        let buf = [1, b'a', 0xC0, 0x04, 0xC0, 0x00];
        let mut c = Cursor::new(&buf);
        assert!(matches!(
            c.name(),
            Err(WireError::ForwardPointer | WireError::PointerLoop)
        ));
    }

    #[test]
    fn deep_but_legal_chains_stay_bounded() {
        // Chain: name_k points at name_{k-1}; all strictly descending.
        // 40 hops exceeds MAX_POINTER_JUMPS and must be rejected, not
        // stack-overflow.
        let mut buf = Vec::new();
        buf.extend_from_slice(&[1, b'a', 0]); // offset 0: "a"
        let mut prev = 0u16;
        let mut offsets = vec![0u16];
        for _ in 0..40 {
            let here = buf.len() as u16;
            buf.extend_from_slice(&[1, b'b']);
            buf.extend_from_slice(&(0xC000 | prev).to_be_bytes());
            prev = here;
            offsets.push(here);
        }
        let mut c = Cursor::new(&buf);
        c.skip(usize::from(prev)).unwrap();
        let r = c.name();
        // Either rejected for exceeding the jump cap (expected: 40 > 32)
        // or for the name growing too long; never a panic or hang.
        assert!(matches!(
            r,
            Err(WireError::PointerLoop | WireError::NameTooLong | WireError::BadName)
        ));
    }
}
