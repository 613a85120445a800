//! A table trained on a real campaign, compiled as the server serves it,
//! and resolved through the real DNS stack (resolver → authoritative
//! server → compiled table), not called directly.

mod common;

use std::net::Ipv4Addr;

use anycast_beacon::Target;
use anycast_core::prediction::{GroupKey, Grouping, Metric, Predictor, PredictorConfig};
use anycast_core::{Study, StudyConfig};
use anycast_dns::ResolverKind;
use anycast_dns::{AuthoritativeServer, DnsName, EcsOption, Ldns, LdnsId, QueryContext};
use anycast_netsim::Day;
use anycast_serve::CompiledTable;
use anycast_workload::Scenario;
use common::Reference;

/// The small world `seed` after one campaign day, and the ECS table
/// trained on that day.
fn trained(seed: u64) -> (Study, Reference) {
    let mut study = Study::new(Scenario::small(seed), StudyConfig::default());
    study.run_day(Day(0));
    let cfg = PredictorConfig {
        grouping: Grouping::Ecs,
        metric: Metric::P25,
        min_samples: 10,
    };
    let table = Predictor::new(cfg).train(study.dataset(), Day(0));
    let plan = study.scenario().addressing;
    let grouping = Grouping::Ecs;
    (
        study,
        Reference {
            table,
            grouping,
            plan,
        },
    )
}

/// The address client `idx` is handed when `compiled` answers behind a
/// resolver that does, or does not, send ECS.
fn resolve(scenario: &Scenario, idx: usize, compiled: &CompiledTable, ecs: bool) -> Ipv4Addr {
    let policy = |q: &QueryContext<'_>| compiled.answer(q.ldns, q.ecs.as_ref());
    let mut auth = AuthoritativeServer::new(policy, true);
    let client = &scenario.clients[idx];
    let kind = if ecs {
        ResolverKind::Public
    } else {
        ResolverKind::IspLocal
    };
    let location = client.attachment.location;
    let ldns = Ldns::new(LdnsId(0), kind, location, ecs);
    let qname = DnsName::new("www.cdn.example").unwrap();
    ldns.resolve(&qname, client.prefix, location, &mut auth, Day(0), 0.0)
}

#[test]
fn prediction_policy_end_to_end_with_ecs() {
    let (study, reference) = trained(3);
    assert!(
        !reference.table.is_empty(),
        "campaign produced no predictions"
    );
    let (scenario, compiled) = (study.scenario(), reference.compile());
    // A client whose /24 got a unicast prediction receives that site's
    // address, as the table's own match says; everyone else gets anycast.
    let mut redirected = 0;
    for (idx, client) in scenario.clients.iter().enumerate().take(200) {
        let addr = resolve(scenario, idx, &compiled, true);
        let ecs = EcsOption::for_prefix(client.prefix);
        assert_eq!(addr, reference.answer(LdnsId(0), Some(&ecs)).0);
        match reference.table.predict(GroupKey::Ecs(client.prefix.into())) {
            Some(Target::Unicast(site)) => {
                assert_eq!(scenario.addressing.site_for_ip(addr), Some(site));
                redirected += 1;
            }
            _ => assert!(scenario.addressing.is_anycast(addr)),
        }
    }
    assert!(redirected > 0, "no client of the first 200 was redirected");
}

#[test]
fn prediction_policy_without_ecs_falls_back_to_anycast() {
    let (study, reference) = trained(4);
    let (scenario, compiled) = (study.scenario(), &reference.compile());
    // ECS-grouped table + resolver that can't send ECS → anycast for all,
    // though the same clients behind an ECS resolver are redirected.
    let via =
        |ecs| (0..scenario.clients.len()).map(move |idx| resolve(scenario, idx, compiled, ecs));
    assert!(via(false).all(|addr| scenario.addressing.is_anycast(addr)));
    assert!(!via(true).all(|addr| scenario.addressing.is_anycast(addr)));
}

#[test]
fn hybrid_redirects_strict_subset() {
    let (study, full) = trained(5);
    let hybrid = Reference {
        table: full.table.hybrid_filter(10.0),
        ..full
    };
    assert!(hybrid.table.len() <= full.table.redirected_groups().count());
    // A client the hybrid redirects goes where the full table sends it,
    // and the full table redirects clients the hybrid leaves on anycast.
    let scenario = study.scenario();
    let (all, some) = (full.compile(), hybrid.compile());
    let (mut kept, mut dropped) = (0, 0);
    for idx in 0..scenario.clients.len() {
        let (full_addr, addr) = (
            resolve(scenario, idx, &all, true),
            resolve(scenario, idx, &some, true),
        );
        if !scenario.addressing.is_anycast(addr) {
            assert_eq!(addr, full_addr);
            kept += 1;
        } else if !scenario.addressing.is_anycast(full_addr) {
            dropped += 1;
        }
    }
    assert!(kept > 0 && dropped > 0, "{kept} kept, {dropped} dropped");
}
