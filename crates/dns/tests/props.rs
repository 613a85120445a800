//! Property tests for the DNS substrate.

use anycast_dns::{AuthoritativeServer, DnsAnswer, DnsName, LdnsId, QueryContext};
use anycast_geo::GeoPoint;
use anycast_netsim::Day;
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9]([a-z0-9-]{0,20}[a-z0-9])?").unwrap()
}

proptest! {
    #[test]
    fn valid_names_round_trip(labels in prop::collection::vec(label(), 1..5)) {
        let name = labels.join(".");
        let parsed = DnsName::new(&name).unwrap();
        prop_assert_eq!(parsed.as_str(), name.to_ascii_lowercase());
        prop_assert_eq!(parsed.labels().count(), labels.len());
    }

    #[test]
    fn names_are_case_insensitive(labels in prop::collection::vec(label(), 1..4)) {
        let lower = labels.join(".");
        let upper = lower.to_ascii_uppercase();
        prop_assert_eq!(DnsName::new(&lower).unwrap(), DnsName::new(&upper).unwrap());
    }

    #[test]
    fn measurement_ids_round_trip(id in any::<u64>()) {
        let zone = DnsName::new("cdn.example").unwrap();
        let name = DnsName::measurement(id, &zone);
        prop_assert_eq!(name.measurement_id(), Some(id));
        prop_assert!(name.is_in_zone(&zone));
    }

    #[test]
    fn authoritative_logs_every_query(n in 1usize..50) {
        let policy = |_q: &QueryContext<'_>| DnsAnswer::global(Ipv4Addr::new(1, 1, 1, 1), 60);
        let mut server = AuthoritativeServer::new(policy, false);
        let zone = DnsName::new("cdn.example").unwrap();
        for i in 0..n {
            let qname = DnsName::measurement(i as u64, &zone);
            server.resolve(&qname, LdnsId(0), GeoPoint::new(0.0, 0.0), None, Day(0), i as f64);
        }
        prop_assert_eq!(server.log().len(), n);
        // Ids in the log match the queries.
        for (i, row) in server.log().iter().enumerate() {
            prop_assert_eq!(row.measurement_id(), Some(i as u64));
        }
    }
}

#[test]
fn malformed_names_are_rejected() {
    for bad in [
        "",
        ".",
        "..",
        "-x.com",
        "x-.com",
        "a b.com",
        "Ü.com",
        &"a".repeat(64),
    ] {
        assert!(DnsName::new(bad).is_err(), "{bad:?} should be rejected");
    }
}

/// A valid name of exactly `len` bytes: labels of forty letters that start
/// at `first`, and — where it fits — a leading measurement label.
fn name_text(len: usize, first: u8, measurement: bool) -> String {
    let head = "m-00c0ffee0000002a.";
    let head = if measurement && len > head.len() {
        head
    } else {
        ""
    };
    let filler = (head.len()..len).map(|i| {
        if i % 41 == 40 && i + 1 < len {
            '.'
        } else {
            char::from(b'a' + (first + (i % 7) as u8) % 26)
        }
    });
    head.chars().chain(filler).collect()
}

fn hash_of(value: &(impl std::hash::Hash + ?Sized)) -> u64 {
    use std::hash::Hasher;
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// `measurement_id` as the label-split parse reads it off the text.
fn text_measurement_id(text: &str) -> Option<u64> {
    let hex = text.split('.').next()?.strip_prefix("m-")?;
    (hex.len() == 16)
        .then(|| u64::from_str_radix(hex, 16).ok())
        .flatten()
}

#[test]
fn names_of_every_length_behave_as_their_text() {
    // Both sides of the 46-byte seam between the two representations, then
    // every length a name can have.
    let mut ids = 0;
    let mut shorter: Option<(String, DnsName)> = None;
    for len in [45, 46, 47].into_iter().chain(1..=253) {
        for (first, measurement) in [(0, false), (1, false), (0, true)] {
            let text = name_text(len, first, measurement);
            let name = DnsName::new(&text.to_ascii_uppercase()).unwrap();
            assert_eq!(name.as_str(), text);
            assert_eq!(name.to_string(), text);
            assert_eq!(format!("{name:?}"), format!("DnsName({text:?})"));
            assert_eq!(format!("{name:#?}"), format!("DnsName(\n    {text:?},\n)"));
            assert!(name.labels().eq(text.split('.')));
            assert_eq!(hash_of(&name), hash_of(text.as_str()), "{text}");
            assert_eq!(name.measurement_id(), text_measurement_id(&text));
            ids += usize::from(name.measurement_id() == Some(0x00c0_ffee_0000_002a));
            // Against a name of another length or another first letter,
            // and against itself.
            let same = DnsName::new(&text).unwrap();
            assert_eq!(name, same);
            assert_eq!(name.cmp(&same), std::cmp::Ordering::Equal);
            if let Some((other_text, other)) = &shorter {
                assert_eq!(name == *other, text == *other_text);
                assert_eq!(name.cmp(other), text.cmp(other_text), "{text} {other_text}");
                assert_eq!(other.partial_cmp(&name), other_text.partial_cmp(&text));
            }
            shorter = Some((text, name));
        }
    }
    assert!(ids > 200, "only {ids} measurement names");
}

#[test]
fn measurement_names_equal_the_parsed_text_in_both_representations() {
    // The campaign's zone gives 42-byte hostnames, held in the value; a
    // 60-byte zone gives 85-byte ones, on the heap.
    let long_zone = format!("{}.{}.example", "a".repeat(26), "b".repeat(25));
    assert_eq!(long_zone.len(), 60);
    for zone in ["probe.cdn.example", &long_zone] {
        let zone = DnsName::new(zone).unwrap();
        for id in [0, 1, 0xdead_beef, (7 << 30) | 0x1234, u64::MAX] {
            let text = format!("m-{id:016x}.probe.{zone}");
            let built = DnsName::measurement(id, &zone);
            let parsed = DnsName::new(&text).unwrap();
            assert_eq!(built, parsed);
            assert_eq!(built.as_str(), text);
            assert_eq!(hash_of(&built), hash_of(&parsed));
            assert_eq!(hash_of(&built), hash_of(text.as_str()));
            assert_eq!(built.measurement_id(), Some(id));
            assert!(built.is_in_zone(&zone));
            assert!(!zone.is_in_zone(&built));
        }
    }
}
