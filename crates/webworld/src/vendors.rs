//! Vendor and third-party service endpoints browsers talk to natively.
//!
//! Each entry assigns the endpoint its hosting country; `panoptes-web`
//! allocates its address from the matching `panoptes-geo` block so the
//! §3.4 geolocation analysis recovers the paper's result (Yandex → RU,
//! QQ → CN, UC International → CA) from the wire, not from a table.

use std::sync::OnceLock;

use panoptes_http::hash::FastMap;

/// What an endpoint is for (report flavour + analysis grouping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Purpose {
    /// Update checks.
    Update,
    /// Telemetry / analytics owned by the vendor.
    Telemetry,
    /// Safe-browsing / site-check reputation queries.
    SiteCheck,
    /// Explicit browsing-history reporting ("phone home", §3.2).
    History,
    /// Remote configuration / feature flags.
    Config,
    /// Third-party advertising SDK.
    AdSdk,
    /// Start-page content: news feeds, thumbnails, favicons.
    StartPage,
    /// DNS-over-HTTPS resolver.
    Doh,
    /// Social-graph API (Facebook Graph).
    SocialGraph,
}

/// One native-traffic destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VendorEndpoint {
    /// Hostname.
    pub host: &'static str,
    /// ISO country of the receiving server.
    pub country: &'static str,
    /// What the endpoint does.
    pub purpose: Purpose,
}

macro_rules! ep {
    ($host:literal, $country:literal, $purpose:ident) => {
        VendorEndpoint { host: $host, country: $country, purpose: Purpose::$purpose }
    };
}

/// Every native-traffic endpoint in the simulated world.
pub const ENDPOINTS: &[VendorEndpoint] = &[
    // DoH resolvers (§3.2: Cloudflare's or Google's DoH).
    ep!("dns.google", "US", Doh),
    ep!("cloudflare-dns.com", "US", Doh),
    // Google / Chrome.
    ep!("update.googleapis.com", "US", Update),
    ep!("safebrowsing.googleapis.com", "US", SiteCheck),
    // Microsoft / Edge (§3.2: reports every visited domain to Bing API;
    // §3.5: msn, microsoft.com, bing.com plus third-party analytics).
    ep!("api.bing.com", "US", History),
    ep!("www.bing.com", "US", StartPage),
    ep!("edge.microsoft.com", "US", Config),
    ep!("vortex.data.microsoft.com", "US", Telemetry),
    ep!("www.msn.com", "US", StartPage),
    ep!("arc.msn.com", "US", StartPage),
    // Opera (§3.2: every visited domain to Opera Sitecheck; Listing 1:
    // the oleads ad SDK; §3.5: linear News feed growth).
    ep!("sitecheck2.opera.com", "NO", History),
    ep!("autoupdate.geo.opera.com", "NO", Update),
    ep!("news.opera-api.com", "NO", StartPage),
    ep!("s-odx.oleads.com", "US", AdSdk),
    // Vivaldi (Norwegian vendor).
    ep!("update.vivaldi.com", "NO", Update),
    ep!("sync.vivaldi.com", "NO", Telemetry),
    ep!("thumbnails.vivaldi.com", "NO", StartPage),
    // Yandex (§3.2: sba.yandex.net gets the Base64 full URL;
    // api.browser.yandex.ru gets hostname + persistent identifier).
    ep!("sba.yandex.net", "RU", History),
    ep!("api.browser.yandex.ru", "RU", History),
    ep!("mc.yandex.ru", "RU", Telemetry),
    ep!("browser-updates.yandex.net", "RU", Update),
    ep!("zen.yandex.ru", "RU", StartPage),
    // Brave.
    ep!("updates.brave.com", "US", Update),
    ep!("p3a.brave.com", "US", Telemetry),
    // Samsung Internet.
    ep!("browser-api.samsung.com", "KR", Config),
    ep!("su.samsungdm.com", "KR", Update),
    // DuckDuckGo.
    ep!("improving.duckduckgo.com", "US", Telemetry),
    ep!("staticcdn.duckduckgo.com", "US", StartPage),
    // Dolphin (§3.5: 46% of idle natives to Facebook Graph).
    ep!("api.dolphin-browser.com", "US", Config),
    // Whale (Naver, Korea).
    ep!("api-whale.naver.com", "KR", Telemetry),
    ep!("whale-update.naver.com", "KR", Update),
    // Mint (Xiaomi; §3.5: 8% of idle natives to Facebook Graph).
    ep!("api.mintbrowser.mi.com", "CN", Telemetry),
    // Kiwi (no heavyweight vendor cloud; its native traffic is mostly
    // the ad exchanges listed in §3.1).
    ep!("update.kiwibrowser.com", "US", Update),
    // CocCoc (Vietnamese vendor; §3.1/§3.5: adjust.com analytics).
    ep!("log.coccoc.com", "VN", Telemetry),
    ep!("newtab.coccoc.com", "VN", StartPage),
    ep!("spell.coccoc.com", "VN", Config),
    // QQ (Tencent; §3.2: full visited URL phone-home; §3.4: servers in
    // China; §3.3: leaks to ad servers).
    ep!("wup.browser.qq.com", "CN", History),
    ep!("mtt.browser.qq.com", "CN", Telemetry),
    ep!("cloud.browser.qq.com", "CN", Config),
    ep!("gdt-adnet.com", "CN", AdSdk),
    // UC International (§3.2: leaks via injected JS, city geolocation +
    // ISP; §3.4: servers in Canada).
    ep!("api.ucweb.com", "CA", Config),
    ep!("collect.ucweb.com", "CA", History),
    ep!("track.ucweb.com", "CA", Telemetry),
    ep!("puds.ucweb.com", "CA", Update),
    // Cross-vendor third parties seen natively (§3.1, §3.5).
    ep!("graph.facebook.com", "US", SocialGraph),
    ep!("app.adjust.com", "DE", AdSdk),
    ep!("t.appsflyer.com", "US", AdSdk),
    ep!("events.appsflyersdk.com", "US", AdSdk),
    ep!("googleads.g.doubleclick.net", "US", AdSdk),
    ep!("widgets.outbrain.com", "US", AdSdk),
    ep!("b1h.zemanta.com", "US", AdSdk),
    ep!("sb.scorecardresearch.com", "US", AdSdk),
    // The exchanges Kiwi contacts natively (§3.1 names these six).
    ep!("fastlane.rubiconproject.com", "US", AdSdk),
    ep!("ib.adnxs.com", "US", AdSdk),
    ep!("rtb.openx.net", "US", AdSdk),
    ep!("hbopenbid.pubmatic.com", "US", AdSdk),
    ep!("x.bidswitch.net", "US", AdSdk),
    ep!("dpm.demdex.net", "US", AdSdk),
];

/// Auxiliary vendor hosts: the long tail of start-page, suggest, crash,
/// sync and CDN endpoints each browser touches. They matter for Figure 3
/// — the *denominator* of "% of distinct native-contact domains that are
/// ad-related" is exactly this population.
pub const AUX_ENDPOINTS: &[VendorEndpoint] = &[
    // Opera services (Norway).
    ep!("crashstats.opera.com", "NO", Telemetry),
    ep!("download.opera.com", "NO", Update),
    ep!("sync.opera.com", "NO", Telemetry),
    ep!("push.opera.com", "NO", Config),
    ep!("features.opera.com", "NO", Config),
    ep!("abtest.opera.com", "NO", Config),
    ep!("cdn.opera-api.com", "NO", StartPage),
    ep!("thumbs.opera-api.com", "NO", StartPage),
    ep!("favicons.opera-api.com", "NO", StartPage),
    ep!("suggest.opera.com", "NO", StartPage),
    ep!("weather.opera-api.com", "NO", StartPage),
    ep!("metrics.opera.com", "NO", Telemetry),
    ep!("flags.opera.com", "NO", Config),
    // Yandex services (Russia).
    ep!("favicon.yandex.net", "RU", StartPage),
    ep!("suggest.yandex.net", "RU", StartPage),
    ep!("translate.yandex.net", "RU", Config),
    ep!("sync.yandex.net", "RU", Telemetry),
    ep!("push.yandex.ru", "RU", Config),
    ep!("clck.yandex.ru", "RU", Telemetry),
    ep!("alice.yandex.net", "RU", Config),
    ep!("weather.yandex.ru", "RU", StartPage),
    ep!("afisha.yandex.ru", "RU", StartPage),
    ep!("market.yandex.ru", "RU", StartPage),
    ep!("disk.yandex.net", "RU", Config),
    ep!("maps.yandex.ru", "RU", StartPage),
    ep!("news.yandex.ru", "RU", StartPage),
    ep!("music.yandex.ru", "RU", StartPage),
    ep!("taxi.yandex.ru", "RU", StartPage),
    ep!("an.yandex.ru", "RU", AdSdk),
    // Microsoft / Edge services (US).
    ep!("config.edge.skype.com", "US", Config),
    ep!("ntp.msn.com", "US", StartPage),
    ep!("assets.msn.com", "US", StartPage),
    ep!("c.msn.com", "US", StartPage),
    ep!("cdn.msn.com", "US", StartPage),
    ep!("smartscreen.microsoft.com", "US", SiteCheck),
    ep!("nav.smartscreen.microsoft.com", "US", SiteCheck),
    ep!("checkappexec.microsoft.com", "US", SiteCheck),
    ep!("msedge.api.cdp.microsoft.com", "US", Update),
    ep!("browser.events.data.msn.com", "US", Telemetry),
    ep!("fd.api.iris.microsoft.com", "US", StartPage),
    ep!("ris.api.iris.microsoft.com", "US", StartPage),
    ep!("mobile.events.data.microsoft.com", "US", Telemetry),
    ep!("edgeservices.bing.com", "US", StartPage),
    ep!("static.edge.microsoft.com", "US", StartPage),
    // QQ services (China).
    ep!("pms.mb.qq.com", "CN", Config),
    ep!("cdn.browser.qq.com", "CN", StartPage),
    ep!("news.browser.qq.com", "CN", StartPage),
    ep!("push.browser.qq.com", "CN", Config),
    // Dolphin services (US).
    ep!("en.dolphin-browser.com", "US", StartPage),
    ep!("push.dolphin-browser.com", "US", Config),
    ep!("opsen.dolphin-browser.com", "US", Telemetry),
    ep!("tuna.dolphin-browser.com", "US", Telemetry),
    ep!("update.dolphin-browser.com", "US", Update),
    // Mint services (China).
    ep!("news.mintbrowser.mi.com", "CN", StartPage),
    ep!("update.mintbrowser.mi.com", "CN", Update),
    ep!("cdn.mintbrowser.mi.com", "CN", StartPage),
    ep!("suggest.mintbrowser.mi.com", "CN", StartPage),
    ep!("data.mistat.mi.com", "CN", Telemetry),
    ep!("static.mintbrowser.mi.com", "CN", StartPage),
    // CocCoc services (Vietnam).
    ep!("update.coccoc.com", "VN", Update),
    ep!("static.coccoc.com", "VN", StartPage),
    ep!("suggest.coccoc.com", "VN", StartPage),
    // Kiwi services (US).
    ep!("static.kiwibrowser.com", "US", StartPage),
    ep!("crash.kiwibrowser.com", "US", Telemetry),
    ep!("suggest.kiwibrowser.com", "US", StartPage),
    ep!("sync.kiwibrowser.com", "US", Telemetry),
    ep!("translate.kiwibrowser.com", "US", Config),
    // Brave / Vivaldi / Whale extras.
    ep!("static1.brave.com", "US", StartPage),
    ep!("downloads.vivaldi.com", "NO", Update),
    ep!("static.whale.naver.com", "KR", StartPage),
    ep!("favicon.whale.naver.com", "KR", StartPage),
];

/// Iterates the full endpoint population (core + auxiliary).
pub fn all_endpoints() -> impl Iterator<Item = &'static VendorEndpoint> {
    ENDPOINTS.iter().chain(AUX_ENDPOINTS.iter())
}

/// Looks up an endpoint by hostname: one probe of a map built on first
/// use. The origin server asks for every request it serves.
pub fn endpoint(host: &str) -> Option<&'static VendorEndpoint> {
    static BY_HOST: OnceLock<FastMap<&'static str, &'static VendorEndpoint>> = OnceLock::new();
    BY_HOST.get_or_init(|| all_endpoints().map(|e| (e.host, e)).collect()).get(host).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hosts_are_unique() {
        let mut hosts: Vec<&str> = all_endpoints().map(|e| e.host).collect();
        hosts.sort_unstable();
        let before = hosts.len();
        hosts.dedup();
        assert_eq!(hosts.len(), before);
    }

    #[test]
    fn endpoint_agrees_with_a_linear_scan() {
        use crate::generator::GeneratorConfig;
        let scan = |host: &str| all_endpoints().find(|e| e.host == host);
        for e in all_endpoints() {
            assert_eq!(endpoint(e.host), Some(e), "{}", e.host);
        }
        let world = crate::World::build(&GeneratorConfig::default());
        for (host, _) in world.hosts() {
            assert_eq!(endpoint(host), scan(host), "{host}");
        }
        assert!(world.host_count() > all_endpoints().count());
        assert_eq!(endpoint("nowhere.example"), None);
    }

    #[test]
    fn paper_destination_countries() {
        assert_eq!(endpoint("sba.yandex.net").unwrap().country, "RU");
        assert_eq!(endpoint("api.browser.yandex.ru").unwrap().country, "RU");
        assert_eq!(endpoint("wup.browser.qq.com").unwrap().country, "CN");
        assert_eq!(endpoint("collect.ucweb.com").unwrap().country, "CA");
        assert_eq!(endpoint("app.adjust.com").unwrap().country, "DE");
    }

    #[test]
    fn every_country_is_in_the_geo_plan() {
        use panoptes_geo::db::ADDRESS_PLAN;
        for e in all_endpoints() {
            assert!(
                ADDRESS_PLAN.iter().any(|(_, c)| *c == e.country),
                "{} hosted in unplanned country {}",
                e.host,
                e.country
            );
        }
    }

    #[test]
    fn history_endpoints_match_paper() {
        let history: Vec<&str> = ENDPOINTS
            .iter()
            .filter(|e| e.purpose == Purpose::History)
            .map(|e| e.host)
            .collect();
        for h in ["sba.yandex.net", "api.browser.yandex.ru", "api.bing.com",
                  "sitecheck2.opera.com", "wup.browser.qq.com", "collect.ucweb.com"] {
            assert!(history.contains(&h), "{h} should be a history endpoint");
        }
    }
}
