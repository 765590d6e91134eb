//! The crawl campaign: the §2.1 loop.

use std::sync::Arc;

use panoptes_browsers::browser::Env;
use panoptes_browsers::{Browser, BrowserProfile};
use panoptes_instrument::appium::WizardConfig;
use panoptes_instrument::cdp::{CdpEvent, CdpSession};
use panoptes_instrument::frida::FridaSession;
use panoptes_instrument::tap::{Instrumentation, RequestTap, TaintInjector};
use panoptes_instrument::AppiumDriver;
use panoptes_mitm::{Flow, FlowStore, TAINT_HEADER};
use panoptes_simnet::clock::SimDuration;
use panoptes_simnet::dns::DnsLogSnapshot;
use panoptes_web::site::SiteSpec;
use panoptes_web::World;

use crate::config::CampaignConfig;
use crate::testbed::Testbed;

/// One visit's ground truth, recorded by the harness (not from the
/// wire) — the analysis joins captured flows against this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VisitRecord {
    /// The URL the harness navigated to.
    pub url: String,
    /// The site's registrable domain.
    pub domain: String,
    /// Whether the site came from the sensitive (Curlie-like) set.
    pub sensitive: bool,
    /// Whether `DOMContentLoaded` fired within the 60-second budget.
    pub dcl_fired: bool,
    /// Total dwell time (readiness + the 5-second settle).
    pub dwell: SimDuration,
}

/// The output of one browser's crawl campaign.
///
/// Cloning is cheap where it matters: the capture store is shared via
/// `Arc`, never deep-copied.
#[derive(Clone)]
pub struct CampaignResult {
    /// The browser that was crawled.
    pub profile: BrowserProfile,
    /// Kernel UID the browser ran under.
    pub uid: u32,
    /// The capture database (engine + native + pinned flows).
    pub store: Arc<FlowStore>,
    /// Ground-truth visit log.
    pub visits: Vec<VisitRecord>,
    /// DNS queries observed at the device resolver / DoH log (shared,
    /// immutable snapshot — cloning a result never copies the log).
    pub dns_log: DnsLogSnapshot,
    /// Total engine requests reported by the engine itself (sanity
    /// cross-check against the store).
    pub engine_sent: u64,
    /// Total native requests reported by the browser model.
    pub native_sent: u64,
    /// Engine requests suppressed by an engine-side ad blocker.
    pub adblocked: u64,
}

impl CampaignResult {
    /// The visited URLs (the analysis' ground-truth browsing history).
    pub fn visited_urls(&self) -> Vec<&str> {
        self.visits.iter().map(|v| v.url.as_str()).collect()
    }

    /// The visited registrable domains (ground truth, may repeat).
    pub fn visited_domains(&self) -> Vec<&str> {
        self.visits.iter().map(|v| v.domain.as_str()).collect()
    }

    /// The URLs of the visits flagged sensitive in the ground truth.
    pub fn sensitive_urls(&self) -> Vec<&str> {
        self.visits.iter().filter(|v| v.sensitive).map(|v| v.url.as_str()).collect()
    }
}

/// Runs one browser's crawling campaign over `sites` (§2.1):
/// reset → launch under Frida → wizard → per site: navigate via CDP (or
/// Frida hooks), wait for readiness, settle — while the proxy splits and
/// stores every flow.
pub fn run_crawl(
    world: &World,
    profile: &BrowserProfile,
    sites: &[SiteSpec],
    config: &CampaignConfig,
) -> CampaignResult {
    run_crawl_with(world, profile, sites, config, |_| {})
}

/// Like [`run_crawl`], with extra proxy addons installed after the taint
/// splitter (enforcement experiments — see `panoptes-guard`).
pub fn run_crawl_with(
    world: &World,
    profile: &BrowserProfile,
    sites: &[SiteSpec],
    config: &CampaignConfig,
    configure_proxy: impl FnOnce(&mut panoptes_mitm::TransparentProxy),
) -> CampaignResult {
    crawl(world, profile, sites, config, configure_proxy, None)
}

/// Like [`run_crawl`], but hands every recorded flow to `fold`, in
/// capture order, while the crawl runs: the proxy's store is drained
/// after the browser starts and after every visit, so the crawl holds
/// one visit's flows at a time. The result's visits, DNS log and
/// counters are [`run_crawl`]'s; its store is empty.
pub fn run_crawl_folding(
    world: &World,
    profile: &BrowserProfile,
    sites: &[SiteSpec],
    config: &CampaignConfig,
    mut fold: impl FnMut(&Flow),
) -> CampaignResult {
    crawl(world, profile, sites, config, |_| {}, Some(&mut fold))
}

/// The crawl behind [`run_crawl_with`] and [`run_crawl_folding`]: with a
/// `fold`, recorded flows go to it after startup and after each visit;
/// without one, the store keeps the whole capture.
fn crawl(
    world: &World,
    profile: &BrowserProfile,
    sites: &[SiteSpec],
    config: &CampaignConfig,
    configure_proxy: impl FnOnce(&mut panoptes_mitm::TransparentProxy),
    mut fold: Option<&mut dyn FnMut(&Flow)>,
) -> CampaignResult {
    let mut hand_over = |store: &FlowStore| {
        if let Some(fold) = fold.as_mut() {
            for flow in store.drain() {
                fold(&flow);
            }
        }
    };
    let mut bed = Testbed::assemble_with(world, config, configure_proxy);
    let uid = bed.divert_browser(&profile.package, config.proxy_port);

    // §2.1: reset to factory settings with Appium, walk the wizard with
    // the configured choices.
    let mut appium = AppiumDriver::new();
    appium.reset_app(&mut bed.device.packages, &profile.package);
    let wizard = WizardConfig {
        accept_telemetry: !config.decline_telemetry,
        ..WizardConfig::default()
    };
    appium.complete_wizard(&mut bed.device.packages, &profile.package, &wizard);

    // Instrumentation: CDP where supported, Frida hooks otherwise.
    let tap: Arc<dyn RequestTap> = Arc::new(TaintInjector::new(TAINT_HEADER, &bed.token));
    let mut cdp = match profile.instrumentation {
        Instrumentation::Cdp => Some(CdpSession::open(tap.clone())),
        Instrumentation::FridaWebView => {
            let mut frida = FridaSession::attach(&profile.package, tap.clone());
            frida.hook_webview();
            None
        }
        Instrumentation::FridaInternalApi => {
            let mut frida = FridaSession::attach(&profile.package, tap.clone());
            frida.hook_internal_api();
            None
        }
    };

    let mut browser = Browser::launch_with(
        profile.clone(),
        uid,
        config.seed,
        config.mode,
        config.shared_filterlist.clone(),
    );

    let mut visits = Vec::with_capacity(sites.len());
    let mut engine_sent = 0u64;
    let mut native_sent = 0u64;
    let mut adblocked = 0u64;

    // Launch-time native traffic.
    {
        let data = bed.device.packages.data_mut(&profile.package).expect("installed");
        let mut env = Env {
            net: &bed.net,
            clock: &mut bed.clock,
            props: &bed.device.props,
            data,
            tap: Some(tap.clone()),
        };
        native_sent += browser.startup(&mut env) as u64;
    }
    hand_over(&bed.store);

    for site in sites {
        let start = bed.clock.now();
        if let Some(cdp) = cdp.as_mut() {
            cdp.reset_events();
            cdp.navigate(&site.url);
        }

        let outcome = {
            let data = bed.device.packages.data_mut(&profile.package).expect("installed");
            let mut env = Env {
                net: &bed.net,
                clock: &mut bed.clock,
                props: &bed.device.props,
                data,
                tap: Some(tap.clone()),
            };
            browser.visit(&mut env, site)
        };

        if let (Some(cdp), Some(at)) = (cdp.as_mut(), outcome.dom_content_loaded_at) {
            cdp.emit(CdpEvent::DomContentLoaded { time: at });
        }

        // §2.1 readiness rule: DOMContentLoaded, or 60 seconds — then an
        // additional 5 seconds of settle time.
        let readiness = match outcome.dom_content_loaded_at {
            Some(at) => at.since(start),
            None => config.load_timeout,
        };
        let dwell = readiness + config.settle;
        let target = start.plus(dwell);
        if target > bed.clock.now() {
            bed.clock.advance_to(target);
        }

        engine_sent += outcome.engine.sent as u64;
        native_sent += outcome.native_sent as u64;
        adblocked += outcome.engine.adblocked as u64;
        visits.push(VisitRecord {
            url: outcome.url,
            domain: site.domain.clone(),
            sensitive: site.category.is_sensitive(),
            dcl_fired: outcome.dom_content_loaded_at.is_some(),
            dwell,
        });
        hand_over(&bed.store);
    }

    CampaignResult {
        profile: profile.clone(),
        uid,
        store: bed.store,
        visits,
        dns_log: bed.net.dns_log(),
        engine_sent,
        native_sent,
        adblocked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panoptes_browsers::registry::profile_by_name;
    use panoptes_web::generator::GeneratorConfig;

    fn small_world() -> World {
        World::build(&GeneratorConfig { popular: 8, sensitive: 4, ..Default::default() })
    }

    #[test]
    fn crawl_produces_split_capture() {
        let world = small_world();
        let config = CampaignConfig::default();
        let profile = profile_by_name("Yandex").unwrap();
        let result = run_crawl(&world, &profile, &world.sites, &config);

        assert_eq!(result.visits.len(), 12);
        let snap = result.store.snapshot();
        let (engine, native) = (snap.engine(), snap.native());
        assert!(!engine.is_empty() && !native.is_empty());
        // Engine self-count matches the proxy's engine database exactly.
        assert_eq!(result.engine_sent, engine.len() as u64);
        // Every Yandex visit produced the sba phone-home.
        let sba = native.iter().filter(|f| f.host == "sba.yandex.net").count();
        assert_eq!(sba, 12);
    }

    #[test]
    fn folding_crawl_hands_over_the_stored_capture_in_order() {
        let world = small_world();
        let config = CampaignConfig::default();
        let profile = profile_by_name("Yandex").unwrap();
        let stored = run_crawl(&world, &profile, &world.sites, &config);
        let folded = FlowStore::new();
        let live = run_crawl_folding(&world, &profile, &world.sites, &config, |flow| {
            folded.push(flow.clone())
        });
        assert!(live.store.is_empty());
        assert!(!folded.is_empty());
        assert_eq!(folded.export_jsonl(), stored.store.export_jsonl());
        assert_eq!(live.visits, stored.visits);
        assert_eq!(live.dns_log, stored.dns_log);
        assert_eq!(
            (live.engine_sent, live.native_sent, live.adblocked),
            (stored.engine_sent, stored.native_sent, stored.adblocked)
        );
    }

    #[test]
    fn dwell_follows_dcl_or_timeout_rule() {
        let world = small_world();
        let config = CampaignConfig::default();
        let profile = profile_by_name("Chrome").unwrap();
        let result = run_crawl(&world, &profile, &world.sites, &config);
        for v in &result.visits {
            if v.dcl_fired {
                assert!(v.dwell < SimDuration::from_secs(65), "{}: {}", v.url, v.dwell);
            } else {
                assert_eq!(v.dwell, SimDuration::from_secs(65), "{}", v.url);
            }
            assert!(v.dwell >= SimDuration::from_secs(5));
        }
    }

    #[test]
    fn campaigns_are_deterministic() {
        let world = small_world();
        let config = CampaignConfig::default();
        let profile = profile_by_name("Opera").unwrap();
        let a = run_crawl(&world, &profile, &world.sites, &config);
        let b = run_crawl(&world, &profile, &world.sites, &config);
        assert_eq!(a.store.export_jsonl(), b.store.export_jsonl());
        assert_eq!(a.visits, b.visits);
    }

    #[test]
    fn incognito_campaign_runs_for_supporting_browsers() {
        let world = small_world();
        let config = CampaignConfig::default().incognito();
        let profile = profile_by_name("Edge").unwrap();
        let result = run_crawl(&world, &profile, &world.sites, &config);
        // The Bing domain reports persist in incognito (§3.2).
        let bing = result
            .store
            .native_flows()
            .iter()
            .filter(|f| f.host == "api.bing.com")
            .count();
        assert_eq!(bing, 12);
    }

    #[test]
    fn sensitive_visits_are_flagged_in_ground_truth() {
        let world = small_world();
        let config = CampaignConfig::default();
        let profile = profile_by_name("QQ").unwrap();
        let result = run_crawl(&world, &profile, &world.sites, &config);
        assert_eq!(result.visits.iter().filter(|v| v.sensitive).count(), 4);
    }
}
