//! The paper's strongest claim, §3.2: "Yandex company can track the user
//! persistently even if they erase cookies, or change their IP address
//! or use Tor/anonymous proxy or VPN!" — because the tracking identifier
//! lives outside the cookie jar.
//!
//! This experiment crawls, wipes the cookie state (what "Clear browsing
//! data" does), crawls again, and shows on the wire that the engine-side
//! identity reset while the native identifier did not.

use std::sync::Arc;

use panoptes_suite::browsers::browser::{Browser, BrowsingMode, Env};
use panoptes_suite::browsers::registry::profile_by_name;
use panoptes_suite::device::Device;
use panoptes_suite::http::Url;
use panoptes_suite::instrument::tap::TaintInjector;
use panoptes_suite::mitm::{FlowStore, TaintAddon, TransparentProxy, TAINT_HEADER};
use panoptes_suite::simnet::clock::SimClock;
use panoptes_suite::simnet::tls::{CaId, CertificateAuthority};
use panoptes_suite::simnet::Network;
use panoptes_suite::web::generator::GeneratorConfig;
use panoptes_suite::web::World;

const TOKEN: &str = "tok";

#[test]
fn yandex_identifier_survives_cookie_wipe_cookies_do_not() {
    let mut device = Device::testbed();
    let net =
        Network::new(CertificateAuthority::new(CaId::public_web_pki()), device.local_ip());
    let world = World::build(&GeneratorConfig { popular: 4, sensitive: 2, ..Default::default() });
    world.install(&net);
    let store = Arc::new(FlowStore::new());
    let mut proxy = TransparentProxy::new(store.clone());
    proxy.install_addon(Box::new(TaintAddon::new(TOKEN)));
    net.register_proxy(8080, Arc::new(proxy), TransparentProxy::certificate_authority());

    let profile = profile_by_name("Yandex").unwrap();
    let uid = device.packages.install(&profile.package);
    net.with_filter(|f| f.install_panoptes_rules(uid, 8080));
    let mut browser = Browser::launch(profile.clone(), uid, 99, BrowsingMode::Normal);
    let mut clock = SimClock::new();
    let site = world.sites[0].clone();

    let uid_param = |store: &FlowStore| -> String {
        store
            .snapshot()
            .native()
            .iter()
            .filter(|f| f.host == "api.browser.yandex.ru")
            .map(|f| {
                Url::parse(&f.url).unwrap().query_param("yandexuid").unwrap().to_string()
            })
            .last()
            .expect("yandexuid flow")
    };

    // Visit once: engine cookies get set, the native ID is minted.
    {
        let mut env = Env {
            net: &net,
            clock: &mut clock,
            props: &device.props,
            data: device.packages.data_mut(&profile.package).unwrap(),
            tap: Some(Arc::new(TaintInjector::new(TAINT_HEADER, TOKEN))),
        };
        browser.visit(&mut env, &site);
    }
    let id_before = uid_param(&store);
    let cookies_before = device
        .packages
        .app(&profile.package)
        .unwrap()
        .data
        .cookies
        .len();
    assert!(cookies_before > 0, "the engine collected cookies");

    // The user "clears browsing data".
    device.packages.data_mut(&profile.package).unwrap().clear_cookies();
    assert!(device.packages.app(&profile.package).unwrap().data.cookies.is_empty());

    // Visit again.
    store.clear();
    {
        let mut env = Env {
            net: &net,
            clock: &mut clock,
            props: &device.props,
            data: device.packages.data_mut(&profile.package).unwrap(),
            tap: Some(Arc::new(TaintInjector::new(TAINT_HEADER, TOKEN))),
        };
        browser.visit(&mut env, &site);
    }
    let id_after = uid_param(&store);

    // The paper's point, verified on the wire: cookies are gone, the
    // tracking identifier is not.
    assert_eq!(id_before, id_after, "the native identifier survived the wipe");

    // Engine requests no longer carry the old cookies on the first
    // post-wipe document fetch.
    let snap = store.snapshot();
    let doc = snap
        .engine()
        .iter()
        .find(|f| f.host == site.host && f.url.ends_with(site.url.path()))
        .expect("document flow");
    assert!(
        doc.header("cookie").is_none(),
        "post-wipe document fetch must be cookieless"
    );
}

#[test]
fn factory_reset_is_the_only_way_to_rotate_the_identifier() {
    let mut device = Device::testbed();
    let net =
        Network::new(CertificateAuthority::new(CaId::public_web_pki()), device.local_ip());
    let world = World::build(&GeneratorConfig { popular: 2, sensitive: 1, ..Default::default() });
    world.install(&net);
    let store = Arc::new(FlowStore::new());
    let mut proxy = TransparentProxy::new(store.clone());
    proxy.install_addon(Box::new(TaintAddon::new(TOKEN)));
    net.register_proxy(8080, Arc::new(proxy), TransparentProxy::certificate_authority());

    let profile = profile_by_name("Yandex").unwrap();
    let uid = device.packages.install(&profile.package);
    net.with_filter(|f| f.install_panoptes_rules(uid, 8080));
    let mut clock = SimClock::new();
    let site = world.sites[0].clone();

    let run = |device: &mut Device, clock: &mut SimClock, seed: u64| -> String {
        let mut browser = Browser::launch(profile.clone(), uid, seed, BrowsingMode::Normal);
        let mut env = Env {
            net: &net,
            clock,
            props: &device.props,
            data: device.packages.data_mut(&profile.package).unwrap(),
            tap: Some(Arc::new(TaintInjector::new(TAINT_HEADER, TOKEN))),
        };
        browser.visit(&mut env, &site);
        store
            .snapshot()
            .native()
            .iter()
            .filter(|f| f.host == "api.browser.yandex.ru")
            .map(|f| Url::parse(&f.url).unwrap().query_param("yandexuid").unwrap().to_string())
            .last()
            .unwrap()
    };

    let first = run(&mut device, &mut clock, 1);
    // Relaunch without reset (same install): the ID persists even with a
    // different campaign seed — it is read from storage, not re-minted.
    let second = run(&mut device, &mut clock, 2);
    assert_eq!(first, second);

    // Factory reset + fresh install state: a new identifier is minted.
    device.packages.factory_reset(&profile.package);
    let third = run(&mut device, &mut clock, 2);
    assert_ne!(first, third, "reset rotates the identifier");
}
