//! Focused engine-session behaviour: DNS caching, cookie handling across
//! modes, h3 memory, and ad-block interaction — exercised through the
//! public `Browser` API against a minimal rig.

use std::sync::Arc;

use panoptes_browsers::browser::{Browser, BrowsingMode, Env};
use panoptes_browsers::registry::profile_by_name;
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

struct Rig {
    net: Network,
    store: Arc<FlowStore>,
    world: World,
    device: Device,
    clock: SimClock,
}

fn rig() -> Rig {
    let device = Device::testbed();
    let net = Network::new(CertificateAuthority::new(CaId::public_web_pki()), device.local_ip());
    let world = World::build(&GeneratorConfig { popular: 5, sensitive: 3, ..Default::default() });
    world.install(&net);
    let store = Arc::new(FlowStore::new());
    let mut proxy = TransparentProxy::new(store.clone());
    proxy.install_addon(Box::new(TaintAddon::new(TOKEN)));
    net.register_proxy(8080, Arc::new(proxy), TransparentProxy::certificate_authority());
    Rig { net, store, world, device, clock: SimClock::new() }
}

fn browser(rig: &mut Rig, name: &str, mode: BrowsingMode) -> Browser {
    let profile = profile_by_name(name).unwrap();
    let uid = rig.device.packages.install(&profile.package);
    rig.net.with_filter(|f| f.install_panoptes_rules(uid, 8080));
    Browser::launch(profile, uid, 7, mode)
}

macro_rules! env {
    ($rig:expr, $pkg:expr) => {
        Env {
            net: &$rig.net,
            clock: &mut $rig.clock,
            props: &$rig.device.props,
            data: $rig.device.packages.data_mut($pkg).unwrap(),
            tap: Some(Arc::new(TaintInjector::new(TAINT_HEADER, TOKEN))),
        }
    };
}

#[test]
fn dns_cache_prevents_repeat_doh_lookups() {
    let mut rig = rig();
    let mut edge = browser(&mut rig, "Edge", BrowsingMode::Normal);
    assert!(edge.profile.resolver.is_doh());
    let site = rig.world.sites[0].clone();

    let first = {
        let mut e = env!(rig, "com.microsoft.emmx");
        edge.visit(&mut e, &site)
    };
    let second = {
        let mut e = env!(rig, "com.microsoft.emmx");
        edge.visit(&mut e, &site)
    };
    assert!(first.engine.doh_lookups > 0, "first visit resolves");
    assert_eq!(second.engine.doh_lookups, 0, "second visit is fully cached");
    assert!(edge.engine().dns_cache_size() > 0);
}

#[test]
fn cookies_persist_across_visits_in_normal_mode() {
    let mut rig = rig();
    let mut chrome = browser(&mut rig, "Chrome", BrowsingMode::Normal);
    let site = rig.world.sites[1].clone();
    {
        let mut e = env!(rig, "com.android.chrome");
        chrome.visit(&mut e, &site);
    }
    // The origin set a session cookie on the document; the second visit
    // must send it back.
    rig.store.clear();
    {
        let mut e = env!(rig, "com.android.chrome");
        chrome.visit(&mut e, &site);
    }
    let doc = rig
        .store
        .engine_flows()
        .into_iter()
        .find(|f| f.host == site.host && f.url.ends_with(site.url.path()))
        .expect("document flow");
    assert!(doc.header("cookie").is_some(), "persistent jar replays cookies");
}

#[test]
fn incognito_cookies_do_not_touch_the_persistent_jar() {
    let mut rig = rig();
    let mut chrome = browser(&mut rig, "Chrome", BrowsingMode::Incognito);
    let site = rig.world.sites[1].clone();
    {
        let mut e = env!(rig, "com.android.chrome");
        chrome.visit(&mut e, &site);
    }
    assert!(
        rig.device.packages.app("com.android.chrome").unwrap().data.cookies.is_empty(),
        "incognito must not write the persistent jar"
    );
}

#[test]
fn h3_is_attempted_once_per_host() {
    let mut rig = rig();
    let mut chrome = browser(&mut rig, "Chrome", BrowsingMode::Normal);
    let site = rig.world.sites[0].clone();
    let first = {
        let mut e = env!(rig, "com.android.chrome");
        chrome.visit(&mut e, &site)
    };
    let dropped_after_first = rig.net.stats().dropped;
    assert!(first.engine.h3_fallbacks > 0);
    let second = {
        let mut e = env!(rig, "com.android.chrome");
        chrome.visit(&mut e, &site)
    };
    assert_eq!(second.engine.h3_fallbacks, 0, "QUIC block is remembered per host");
    assert_eq!(rig.net.stats().dropped, dropped_after_first);
}

#[test]
fn non_h3_browser_never_triggers_drops() {
    let mut rig = rig();
    let mut ddg = browser(&mut rig, "DuckDuckGo", BrowsingMode::Normal);
    let site = rig.world.sites[0].clone();
    {
        let mut e = env!(rig, "com.duckduckgo.mobile.android");
        ddg.visit(&mut e, &site);
    }
    assert_eq!(rig.net.stats().dropped, 0);
}

#[test]
fn stub_browser_logs_queries_for_every_unique_host() {
    let mut rig = rig();
    let mut dolphin = browser(&mut rig, "Dolphin", BrowsingMode::Normal);
    assert_eq!(dolphin.profile.resolver, ResolverKind::LocalStub);
    let site = rig.world.sites[2].clone();
    {
        let mut e = env!(rig, "mobi.mgeek.TunnyBrowser");
        dolphin.startup(&mut e);
        dolphin.visit(&mut e, &site);
    }
    let log = rig.net.dns_log();
    assert!(!log.is_empty());
    // All stub, no DoH.
    assert!(log.iter().all(|e| !e.resolver.is_doh()));
    // And the site's own host was among the lookups.
    assert!(log.iter().any(|e| e.name == site.host));
}

#[test]
fn engine_requests_carry_realistic_headers() {
    let mut rig = rig();
    let mut opera = browser(&mut rig, "Opera", BrowsingMode::Normal);
    let site = rig.world.sites[0].clone();
    {
        let mut e = env!(rig, "com.opera.browser");
        opera.visit(&mut e, &site);
    }
    for f in rig.store.engine_flows() {
        assert!(f.header("user-agent").unwrap().contains("Opera"), "{}", f.host);
        assert!(f.header("accept").is_some());
        assert!(f.header("accept-language").is_some());
        assert!(f.header("referer").is_some());
    }
}
