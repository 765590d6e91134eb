//! Conformance of every browser model to its declared catalogue: the
//! native flows a crawl produces must come precisely from the profile's
//! startup/per-visit host sets (plus the DoH resolver), and PII must
//! appear exactly for the browsers that declare it.

use std::collections::BTreeSet;
use std::sync::Arc;

use panoptes_browsers::browser::{Browser, BrowsingMode, Env};
use panoptes_browsers::registry::all_profiles;
use panoptes_browsers::{BrowserProfile, PiiField};
use panoptes_device::Device;
use panoptes_instrument::tap::TaintInjector;
use panoptes_mitm::{FlowStore, TaintAddon, TransparentProxy, TAINT_HEADER};
use panoptes_simnet::clock::SimClock;
use panoptes_simnet::dns::ResolverKind;
use panoptes_simnet::tls::{CaId, CertificateAuthority};
use panoptes_simnet::Network;
use panoptes_web::generator::GeneratorConfig;
use panoptes_web::World;

const TOKEN: &str = "tok";

fn crawl(profile: &BrowserProfile, sites: usize) -> (Arc<FlowStore>, World) {
    let mut device = Device::testbed();
    let net =
        Network::new(CertificateAuthority::new(CaId::public_web_pki()), device.local_ip());
    let world =
        World::build(&GeneratorConfig { popular: sites as u32, sensitive: 2, ..Default::default() });
    world.install(&net);
    let store = Arc::new(FlowStore::new());
    let mut proxy = TransparentProxy::new(store.clone());
    proxy.install_addon(Box::new(TaintAddon::new(TOKEN)));
    net.register_proxy(8080, Arc::new(proxy), TransparentProxy::certificate_authority());

    let uid = device.packages.install(&profile.package);
    net.with_filter(|f| f.install_panoptes_rules(uid, 8080));
    let mut browser = Browser::launch(profile.clone(), uid, 11, BrowsingMode::Normal);
    let mut clock = SimClock::new();
    {
        let mut env = Env {
            net: &net,
            clock: &mut clock,
            props: &device.props,
            data: device.packages.data_mut(&profile.package).unwrap(),
            tap: Some(Arc::new(TaintInjector::new(TAINT_HEADER, TOKEN))),
        };
        browser.startup(&mut env);
        let sites: Vec<_> = world.sites.clone();
        for site in &sites {
            browser.visit(&mut env, site);
        }
    }
    (store, world)
}

/// Every host a profile's crawl-time catalogue (startup + per-visit) can
/// reach, plus the DoH resolver.
fn expected_hosts(profile: &BrowserProfile) -> BTreeSet<String> {
    let mut hosts: BTreeSet<String> = profile
        .startup
        .iter()
        .chain(profile.per_visit.iter())
        .map(|c| c.host.to_string())
        .collect();
    if let ResolverKind::Doh(p) = profile.resolver {
        hosts.insert(p.host().to_string());
    }
    hosts
}

#[test]
fn native_flows_come_only_from_the_declared_catalogue() {
    for profile in all_profiles() {
        let (store, _) = crawl(&profile, 3);
        let expected = expected_hosts(&profile);
        for flow in store.snapshot().native() {
            assert!(
                expected.contains(flow.host.as_str()),
                "{}: undeclared native destination {}",
                profile.name,
                flow.host
            );
        }
    }
}

#[test]
fn per_visit_reporters_fire_on_every_visit() {
    for profile in all_profiles() {
        if profile.per_visit.is_empty() {
            continue;
        }
        let sites = 4;
        let (store, _) = crawl(&profile, sites);
        let snap = store.snapshot();
        let native = snap.native();
        for call in profile.per_visit {
            let hits = native.iter().filter(|f| f.host == call.host).count();
            let expected_min = (sites + 2) * call.count as usize; // popular + sensitive visits
            assert!(
                hits >= expected_min,
                "{}: {} fired {hits} times, expected >= {expected_min}",
                profile.name,
                call.host
            );
        }
    }
}

#[test]
fn pii_values_only_in_declaring_browsers() {
    let local_ip = "192.168.1.50";
    let rooted_value = "rooted=true";
    for profile in all_profiles() {
        let (store, _) = crawl(&profile, 2);
        let snap = store.snapshot();
        let native = snap.native();
        let carries_local_ip = native.iter().any(|f| f.url.contains(local_ip) || f.request_body.contains(local_ip));
        let carries_rooted =
            native.iter().any(|f| f.url.contains(rooted_value) || f.request_body.contains("\"rooted\":true"));
        assert_eq!(
            carries_local_ip,
            profile.leaks(PiiField::LocalIp),
            "{}: local IP presence mismatch",
            profile.name
        );
        assert_eq!(
            carries_rooted,
            profile.leaks(PiiField::RootedStatus),
            "{}: rooted-status presence mismatch",
            profile.name
        );
    }
}

#[test]
fn engine_flows_never_target_vendor_history_endpoints() {
    // The split must be airtight: phone-home endpoints only ever appear
    // in the native database (except UC's deliberate injected-JS case).
    let history_hosts =
        ["sba.yandex.net", "api.browser.yandex.ru", "wup.browser.qq.com", "api.bing.com"];
    for profile in all_profiles() {
        let (store, _) = crawl(&profile, 2);
        for flow in store.snapshot().engine() {
            assert!(
                !history_hosts.contains(&flow.host.as_str()),
                "{}: engine flow to history endpoint {}",
                profile.name,
                flow.host
            );
        }
    }
}

#[test]
fn idle_catalogue_hosts_do_not_leak_history() {
    // Idle chatter never carries visit URLs (there are no visits while
    // idle) — guard against profile-authoring mistakes.
    for profile in all_profiles() {
        for (_, call) in profile.idle.periodic {
            assert!(
                !matches!(
                    call.payload,
                    panoptes_browsers::Payload::FullUrlBase64 { .. }
                        | panoptes_browsers::Payload::FullUrlPlain { .. }
                        | panoptes_browsers::Payload::HostnamePlusId { .. }
                        | panoptes_browsers::Payload::DomainOnly { .. }
                ),
                "{}: idle call to {} declares a visit-dependent payload",
                profile.name,
                call.host
            );
        }
    }
}
