//! Integration: redirection policies driven through the real DNS stack
//! (LDNS cache → authoritative server → policy), not called directly.

use anycast_cdn::core::{
    AnycastPolicy, Deployment, GeoClosestDnsPolicy, Grouping, Metric, PredictionPolicy, Predictor,
    PredictorConfig, Study, StudyConfig,
};
use anycast_cdn::dns::{AuthoritativeServer, DnsName, Ldns, LdnsId, ResolverKind};
use anycast_cdn::netsim::Day;
use anycast_cdn::workload::Scenario;

fn resolve_via_stack<P: anycast_cdn::dns::RedirectionPolicy>(
    scenario: &Scenario,
    client_idx: usize,
    policy: P,
    ecs_enabled: bool,
    supports_ecs: bool,
) -> std::net::Ipv4Addr {
    let client = &scenario.clients[client_idx];
    let mut auth = AuthoritativeServer::new(policy, ecs_enabled);
    let mut ldns = Ldns::new(
        LdnsId(0),
        if supports_ecs {
            ResolverKind::Public
        } else {
            ResolverKind::IspLocal
        },
        client.attachment.location,
        supports_ecs,
    );
    let qname = DnsName::new("www.cdn.example").unwrap();
    ldns.resolve(
        &qname,
        client.prefix,
        client.attachment.location,
        &mut auth,
        Day(0),
        0.0,
    )
    .addr
}

#[test]
fn anycast_policy_serves_the_vip_through_the_stack() {
    let scenario = Scenario::small(1);
    let policy = AnycastPolicy::new(scenario.addressing, 300);
    let addr = resolve_via_stack(&scenario, 0, policy, false, false);
    assert!(scenario.addressing.is_anycast(addr));
}

#[test]
fn geo_policy_returns_a_nearby_front_end() {
    let scenario = Scenario::small(2);
    let deployment = Deployment::of(&scenario.internet);
    let client = &scenario.clients[0];
    let expected = deployment.nearest(&client.attachment.location, 1)[0].0;
    let policy = GeoClosestDnsPolicy::new(deployment, 300);
    let addr = resolve_via_stack(&scenario, 0, policy, false, false);
    assert_eq!(scenario.addressing.site_for_ip(addr), Some(expected));
}

#[test]
fn prediction_policy_end_to_end_with_ecs() {
    // Train a real table from a real campaign, install it on the
    // authoritative server, and resolve through an ECS-capable resolver.
    let mut study = Study::new(Scenario::small(3), StudyConfig::default());
    study.run_day(Day(0));
    let cfg = PredictorConfig {
        grouping: Grouping::Ecs,
        metric: Metric::P25,
        min_samples: 10,
    };
    let table = Predictor::new(cfg).train(study.dataset(), Day(0));
    assert!(!table.is_empty(), "campaign produced no predictions");

    let scenario = study.scenario();
    // A client whose group got a unicast prediction must receive that
    // unicast address; everyone else gets anycast.
    let mut redirected_seen = false;
    for (idx, client) in scenario.clients.iter().enumerate().take(200) {
        let predicted = table.predict(anycast_cdn::core::GroupKey::Ecs(client.prefix.into()));
        let policy = PredictionPolicy::new(table.clone(), Grouping::Ecs, scenario.addressing, 300);
        let addr = resolve_via_stack(scenario, idx, policy, true, true);
        match predicted {
            Some(anycast_cdn::beacon::Target::Unicast(site)) => {
                assert_eq!(scenario.addressing.site_for_ip(addr), Some(site));
                redirected_seen = true;
            }
            _ => assert!(scenario.addressing.is_anycast(addr)),
        }
    }
    // The small world may or may not redirect within the first 200
    // clients; make the assertion meaningful when it does.
    if !redirected_seen {
        assert!(table.redirected_groups().count() < 200);
    }
}

#[test]
fn prediction_policy_without_ecs_falls_back_to_anycast() {
    let mut study = Study::new(Scenario::small(4), StudyConfig::default());
    study.run_day(Day(0));
    let cfg = PredictorConfig {
        grouping: Grouping::Ecs,
        metric: Metric::P25,
        min_samples: 10,
    };
    let table = Predictor::new(cfg).train(study.dataset(), Day(0));
    let scenario = study.scenario();
    // ECS-grouped table + resolver that can't send ECS → anycast for all.
    for idx in 0..50 {
        let policy = PredictionPolicy::new(table.clone(), Grouping::Ecs, scenario.addressing, 300);
        let addr = resolve_via_stack(scenario, idx, policy, true, false);
        assert!(scenario.addressing.is_anycast(addr));
    }
}

#[test]
fn hybrid_redirects_strict_subset() {
    let mut study = Study::new(Scenario::small(5), StudyConfig::default());
    study.run_day(Day(0));
    let cfg = PredictorConfig {
        grouping: Grouping::Ecs,
        metric: Metric::P25,
        min_samples: 10,
    };
    let table = Predictor::new(cfg).train(study.dataset(), Day(0));
    let all = table.redirected_groups().count();
    let scenario = study.scenario();
    let hybrid = PredictionPolicy::new(
        table.hybrid_filter(10.0),
        Grouping::Ecs,
        scenario.addressing,
        300,
    );
    assert!(hybrid.table().len() <= all);
}
