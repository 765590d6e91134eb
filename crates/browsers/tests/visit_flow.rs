//! End-to-end browser behaviour against a small simulated world and a
//! live MITM proxy: the full §2 pipeline below the campaign layer.

use std::sync::Arc;

use panoptes_browsers::browser::{Browser, BrowsingMode, Env};
use panoptes_browsers::registry::profile_by_name;
use panoptes_device::Device;
use panoptes_http::codec::b64_decode_url;
use panoptes_instrument::tap::TaintInjector;
use panoptes_mitm::{FlowClass, FlowStore, TaintAddon, TransparentProxy, TAINT_HEADER};
use panoptes_simnet::clock::{SimClock, SimDuration};
use panoptes_simnet::tls::{CaId, CertificateAuthority};
use panoptes_simnet::Network;
use panoptes_web::generator::GeneratorConfig;
use panoptes_web::World;

const PROXY_PORT: u16 = 8080;
const TOKEN: &str = "campaign-token-1";

struct Rig {
    net: Network,
    store: Arc<FlowStore>,
    world: World,
    device: Device,
    clock: SimClock,
}

fn rig() -> Rig {
    let device = Device::testbed();
    let net = Network::new(
        CertificateAuthority::new(CaId::public_web_pki()),
        device.local_ip(),
    );
    let world = World::build(&GeneratorConfig { popular: 6, sensitive: 4, ..Default::default() });
    world.install(&net);

    let store = Arc::new(FlowStore::new());
    let mut proxy = TransparentProxy::new(store.clone());
    proxy.install_addon(Box::new(TaintAddon::new(TOKEN)));
    net.register_proxy(PROXY_PORT, Arc::new(proxy), TransparentProxy::certificate_authority());

    Rig { net, store, world, device, clock: SimClock::new() }
}

fn launch(rig: &mut Rig, name: &str, mode: BrowsingMode) -> Browser {
    let profile = profile_by_name(name).unwrap();
    let uid = rig.device.packages.install(&profile.package);
    rig.net.with_filter(|f| f.install_panoptes_rules(uid, PROXY_PORT));
    Browser::launch(profile, uid, 42, mode)
}

fn env<'a>(rig: &'a mut Rig, package: &str) -> Env<'a> {
    let data = rig.device.packages.data_mut(package).unwrap();
    Env {
        net: &rig.net,
        clock: &mut rig.clock,
        props: &rig.device.props,
        data,
        tap: Some(Arc::new(TaintInjector::new(TAINT_HEADER, TOKEN))),
    }
}

#[test]
fn chrome_visit_splits_engine_and_native() {
    let mut rig = rig();
    let mut chrome = launch(&mut rig, "Chrome", BrowsingMode::Normal);
    let site = rig.world.sites[0].clone();
    let outcome = {
        let mut e = env(&mut rig, "com.android.chrome");
        chrome.startup(&mut e);
        chrome.visit(&mut e, &site)
    };

    assert!(outcome.engine.sent as usize >= site.page.request_count() - 2);
    let snap = rig.store.snapshot();
    let (engine, native) = (snap.engine(), snap.native());
    assert!(!engine.is_empty(), "engine flows captured");
    assert!(!native.is_empty(), "native flows captured (startup + safebrowsing)");
    // Engine flows lost their taint before hitting upstream and are
    // recorded without it.
    for f in engine {
        assert!(f.header(TAINT_HEADER).is_none());
    }
    // Chrome's native flows leak nothing about the visit.
    for f in native {
        assert!(!f.url.contains(site.domain.as_str()), "chrome native leaked: {}", f.url);
    }
}

#[test]
fn yandex_leaks_full_url_and_persistent_id() {
    let mut rig = rig();
    let mut yandex = launch(&mut rig, "Yandex", BrowsingMode::Normal);
    let site = rig.world.sites[1].clone();
    {
        let mut e = env(&mut rig, "com.yandex.browser");
        yandex.visit(&mut e, &site);
    }
    let snap = rig.store.snapshot();
    let native = snap.native();
    let sba: Vec<_> = native.iter().filter(|f| f.host == "sba.yandex.net").collect();
    assert_eq!(sba.len(), 1);
    let url = panoptes_http::Url::parse(&sba[0].url).unwrap();
    let encoded = url.query_param("url").unwrap();
    let decoded = String::from_utf8(b64_decode_url(&encoded).unwrap()).unwrap();
    assert_eq!(decoded, site.url.as_str(), "full URL recovered from Base64 param");

    let api: Vec<_> = native.iter().filter(|f| f.host == "api.browser.yandex.ru").collect();
    assert_eq!(api.len(), 1);
    let url = panoptes_http::Url::parse(&api[0].url).unwrap();
    assert_eq!(url.query_param("host").as_deref(), Some(site.host.as_str()));
    assert_eq!(url.query_param("yandexuid").unwrap().len(), 64);
}

#[test]
fn yandex_id_is_stable_across_visits_and_reset_clears_it() {
    let mut rig = rig();
    let mut yandex = launch(&mut rig, "Yandex", BrowsingMode::Normal);
    let (s0, s1) = (rig.world.sites[0].clone(), rig.world.sites[1].clone());
    {
        let mut e = env(&mut rig, "com.yandex.browser");
        yandex.visit(&mut e, &s0);
        yandex.visit(&mut e, &s1);
    }
    let ids: Vec<String> = rig
        .store
        .snapshot()
        .native()
        .iter()
        .filter(|f| f.host == "api.browser.yandex.ru")
        .map(|f| {
            panoptes_http::Url::parse(&f.url).unwrap().query_param("yandexuid").unwrap().to_string()
        })
        .collect();
    assert_eq!(ids.len(), 2);
    assert_eq!(ids[0], ids[1], "persistent across visits (and cookie wipes)");

    rig.device.packages.factory_reset("com.yandex.browser");
    assert!(rig
        .device
        .packages
        .app("com.yandex.browser")
        .unwrap()
        .data
        .is_factory_fresh());
}

#[test]
fn uc_exfiltrates_via_tainted_js_injection() {
    let mut rig = rig();
    let mut uc = launch(&mut rig, "UC International", BrowsingMode::Normal);
    let site = rig.world.sites[2].clone();
    {
        let mut e = env(&mut rig, "com.UCMobile.intl");
        uc.visit(&mut e, &site);
    }
    // The collector flow exists, carries the URL + city + ISP — but is
    // classified ENGINE because the injected JS runs in the page.
    let snap = rig.store.snapshot();
    let collectors: Vec<_> = snap.iter().filter(|f| f.host == "collect.ucweb.com").collect();
    assert_eq!(collectors.len(), 1);
    assert_eq!(collectors[0].class, FlowClass::Engine);
    let url = panoptes_http::Url::parse(&collectors[0].url).unwrap();
    assert!(url.query_param("url").unwrap().contains(&site.domain));
    assert_eq!(url.query_param("city").as_deref(), Some("Heraklion"));
    assert_eq!(url.query_param("isp").as_deref(), Some("FORTHnet"));
    // Its *native* traffic carries no URL.
    for f in snap.native() {
        assert!(!f.url.contains(site.domain.as_str()));
    }
}

#[test]
fn edge_keeps_reporting_domains_in_incognito() {
    let mut rig = rig();
    let mut edge = launch(&mut rig, "Edge", BrowsingMode::Incognito);
    let site = rig.world.sites[3].clone();
    {
        let mut e = env(&mut rig, "com.microsoft.emmx");
        edge.visit(&mut e, &site);
    }
    let snap = rig.store.snapshot();
    let bing: Vec<_> = snap.native().iter().filter(|f| f.host == "api.bing.com").collect();
    assert_eq!(bing.len(), 1, "Edge reports the visited domain even in incognito");
    assert!(bing[0].url.contains(&site.domain));
}

#[test]
fn coccoc_blocks_ads_in_engine_but_phones_home() {
    let mut rig = rig();
    let mut coccoc = launch(&mut rig, "CocCoc", BrowsingMode::Normal);
    // Pick a popular site with ad embeds.
    let site = rig
        .world
        .sites
        .iter()
        .find(|s| s.page.resources.iter().any(|r| r.kind == panoptes_web::ResourceKind::Ad))
        .unwrap()
        .clone();
    let outcome = {
        let mut e = env(&mut rig, "com.coccoc.trinhduyet");
        coccoc.visit(&mut e, &site)
    };
    assert!(outcome.engine.adblocked > 0, "easylist blocked engine-side ads");
    // Engine flows contain no ad-network hosts.
    let list = panoptes_blocklist::data::steven_black_excerpt();
    let snap = rig.store.snapshot();
    for f in snap.engine() {
        assert!(!list.contains(&f.host), "{} slipped through the blocker", f.host);
    }
    // ... while native telemetry still flows to the vendor.
    assert!(snap.native().iter().any(|f| f.host == "log.coccoc.com"));
}

#[test]
fn quic_fallback_happens_once_per_host() {
    let mut rig = rig();
    let mut chrome = launch(&mut rig, "Chrome", BrowsingMode::Normal);
    let site = rig.world.sites[0].clone();
    let outcome = {
        let mut e = env(&mut rig, "com.android.chrome");
        chrome.visit(&mut e, &site)
    };
    assert!(outcome.engine.h3_fallbacks > 0, "h3 attempts were dropped and retried");
    assert!(rig.net.stats().dropped as u32 >= outcome.engine.h3_fallbacks);
}

#[test]
fn samsung_pinned_update_flow_is_opaque() {
    let mut rig = rig();
    let mut samsung = launch(&mut rig, "Samsung", BrowsingMode::Normal);
    {
        let mut e = env(&mut rig, "com.sec.android.app.sbrowser");
        samsung.startup(&mut e);
    }
    let snap = rig.store.snapshot();
    let pinned = snap.by_class(FlowClass::PinnedOpaque);
    assert_eq!(pinned.len(), 1);
    assert_eq!(pinned[0].host, "su.samsungdm.com");
    assert_eq!(pinned[0].status, 0);
}

#[test]
fn doh_browsers_query_over_https_stub_browsers_do_not() {
    let mut rig = rig();
    let mut edge = launch(&mut rig, "Edge", BrowsingMode::Normal);
    let site = rig.world.sites[0].clone();
    {
        let mut e = env(&mut rig, "com.microsoft.emmx");
        edge.visit(&mut e, &site);
    }
    let doh_flows = rig
        .store
        .snapshot()
        .native()
        .iter()
        .filter(|f| f.host == "cloudflare-dns.com")
        .count();
    assert!(doh_flows > 0, "Edge resolves over DoH — visible as native HTTPS");

    let mut rig2 = self::rig();
    let mut chrome = launch(&mut rig2, "Chrome", BrowsingMode::Normal);
    let site2 = rig2.world.sites[0].clone();
    {
        let mut e = env(&mut rig2, "com.android.chrome");
        chrome.visit(&mut e, &site2);
    }
    let doh_flows2 = rig2.store.snapshot().iter().filter(|f| f.host.contains("dns")).count();
    assert_eq!(doh_flows2, 0, "Chrome uses the local stub");
    assert!(!rig2.net.dns_log().is_empty(), "stub queries logged");
}

#[test]
fn idle_run_produces_time_stamped_chatter() {
    let mut rig = rig();
    let mut opera = launch(&mut rig, "Opera", BrowsingMode::Normal);
    let sent = {
        let mut e = env(&mut rig, "com.opera.browser");
        opera.idle(&mut e, SimDuration::from_secs(600))
    };
    assert!(sent > 50, "Opera's news feed makes it chatty, got {sent}");
    let snap = rig.store.snapshot();
    let natives = snap.native();
    let news = natives.iter().filter(|f| f.host == "news.opera-api.com").count();
    assert!(news >= 40, "linear feed refreshes, got {news}");
    // Timestamps span the 10 minutes.
    let max_t = natives.iter().map(|f| f.time_us).max().unwrap();
    assert!(max_t >= 590_000_000, "events reach the end of the window");
}

#[test]
fn incognito_requires_support() {
    let profile = profile_by_name("Yandex").unwrap();
    let result = std::panic::catch_unwind(|| {
        Browser::launch(profile, 10000, 1, BrowsingMode::Incognito)
    });
    assert!(result.is_err(), "Yandex has no incognito mode (footnote 5)");
}
