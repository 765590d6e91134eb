//! The countermeasure evaluation: the measure → derive policy → enforce
//! loop. A Panoptes study identifies the leaks; its findings compile into
//! a [`GuardPolicy`]; the same browsers then crawl clean.

use std::sync::Arc;

use panoptes::campaign::{run_crawl, run_crawl_with, CampaignResult};
use panoptes::config::CampaignConfig;
use panoptes_analysis::engine::{analyze_crawl, AnalysisResources, CampaignAnalysis};
use panoptes_browsers::registry::profile_by_name;
use panoptes_browsers::BrowserProfile;
use panoptes_device::DeviceProperties;
use panoptes_guard::{GuardAddon, GuardPolicy};
use panoptes_mitm::FlowClass;
use panoptes_web::generator::GeneratorConfig;
use panoptes_web::World;

fn world() -> World {
    World::build(&GeneratorConfig { popular: 8, sensitive: 6, ..Default::default() })
}

/// Device PII values the redaction policy scrubs (what a deployment
/// would read from its own device).
fn pii_values() -> Vec<String> {
    GuardPolicy::pii_values(&DeviceProperties::testbed_tablet())
}

fn analyze(result: &CampaignResult) -> CampaignAnalysis {
    analyze_crawl(result, &AnalysisResources::standard())
}

fn crawl_guarded(
    world: &World,
    profile: &BrowserProfile,
    policy: GuardPolicy,
) -> (CampaignResult, Arc<GuardAddon>) {
    let guard = Arc::new(GuardAddon::new(policy));
    let handle = guard.clone();
    let result = run_crawl_with(
        world,
        profile,
        &world.sites,
        &CampaignConfig::default(),
        move |proxy| proxy.install_addon(Box::new(handle)),
    );
    (result, guard)
}

#[test]
fn measure_then_enforce_eliminates_yandex_leaks() {
    let w = world();
    let yandex = profile_by_name("Yandex").unwrap();

    // 1. Measure: the unguarded crawl finds the leaks.
    let unguarded = run_crawl(&w, &yandex, &w.sites, &CampaignConfig::default());
    let leaks = analyze(&unguarded).history_leaks;
    assert!(!leaks.is_empty());

    // 2. Compile the findings into a policy.
    let mut policy = GuardPolicy::strict(&[], &pii_values());
    for leak in &leaks {
        policy.block_endpoint(&leak.destination);
    }

    // 3. Enforce: the guarded crawl leaks nothing.
    let (guarded, guard) = crawl_guarded(&w, &yandex, policy);
    let analysis = analyze(&guarded);
    assert!(
        analysis.history_leaks.is_empty(),
        "leaks survived the guard: {:?}",
        analysis.history_leaks
    );
    // The blocked sba.yandex.net reports carried the sensitive URLs, but
    // they never left the device.
    assert_eq!(analysis.sensitive.sensitive_urls_leaked, 0, "{:?}", analysis.sensitive);
    assert!(guard.stats().blocked as usize >= w.sites.len(), "one sba block per visit at least");
    // Blocked flows are visible in the capture as such.
    assert!(!guarded.store.snapshot().by_class(FlowClass::Blocked).is_empty());
}

#[test]
fn redaction_alone_stops_qq_without_blocking() {
    let w = world();
    let qq = profile_by_name("QQ").unwrap();
    // No blocking: only history redaction. The wup report still reaches
    // its vendor, but the URL parameter is scrubbed.
    let policy = GuardPolicy {
        redact_history: true,
        ..GuardPolicy::none()
    };
    let (guarded, guard) = crawl_guarded(&w, &qq, policy);
    let leaks = analyze(&guarded).history_leaks;
    assert!(leaks.is_empty(), "{leaks:?}");
    assert!(guard.stats().redacted_values as usize >= w.sites.len());
    assert_eq!(guard.stats().blocked, 0);
    // The vendor endpoint still received (sanitized) requests.
    let wup = guarded
        .store
        .snapshot()
        .native()
        .iter()
        .filter(|f| f.host == "wup.browser.qq.com")
        .count();
    assert_eq!(wup, w.sites.len());
}

#[test]
fn hosts_list_blocking_cleans_kiwi_ad_traffic() {
    let w = world();
    let kiwi = profile_by_name("Kiwi").unwrap();
    let unguarded = run_crawl(&w, &kiwi, &w.sites, &CampaignConfig::default());
    assert!(analyze(&unguarded).addomains.ad_percent > 30.0);

    let (guarded, _) = crawl_guarded(&w, &kiwi, GuardPolicy::strict(&[], &[]));
    let row = analyze(&guarded).addomains;
    assert_eq!(row.ad_percent, 0.0, "surviving ad hosts: {:?}", row.ad_hosts);
    // Utility traffic is untouched.
    assert!(guarded
        .store
        .snapshot()
        .native()
        .iter()
        .any(|f| f.host == "update.kiwibrowser.com"));
}

#[test]
fn pii_redaction_clears_the_whale_table2_row() {
    let w = world();
    let whale = profile_by_name("Whale").unwrap();
    let props = DeviceProperties::testbed_tablet();

    let unguarded = run_crawl(&w, &whale, &w.sites, &CampaignConfig::default());
    assert!(!analyze(&unguarded).pii.leaked.is_empty());

    // Scrub every Table 2 value the device knows about itself.
    let policy =
        GuardPolicy { redact_values: GuardPolicy::pii_values(&props), ..GuardPolicy::none() };
    let (guarded, guard) = crawl_guarded(&w, &whale, policy);
    let row = analyze(&guarded).pii;
    assert!(row.leaked.is_empty(), "still leaking: {:?}", row.leaked);
    assert!(guard.stats().redacted_values > 0);
}

#[test]
fn guard_does_not_break_the_web() {
    // Engine traffic must be fully unaffected even under the strictest
    // policy — the guard scopes to native flows.
    let w = world();
    let chrome = profile_by_name("Chrome").unwrap();
    let unguarded = run_crawl(&w, &chrome, &w.sites, &CampaignConfig::default());
    let (guarded, _) = crawl_guarded(&w, &chrome, GuardPolicy::strict(&[], &pii_values()));
    assert_eq!(
        unguarded.store.snapshot().engine().len(),
        guarded.store.snapshot().engine().len(),
        "page loads changed under guard"
    );
    // DoH browsers keep resolving.
    let edge = profile_by_name("Edge").unwrap();
    let (guarded_edge, _) = crawl_guarded(&w, &edge, GuardPolicy::strict(&[], &[]));
    assert!(guarded_edge
        .store
        .snapshot()
        .native()
        .iter()
        .any(|f| f.host == "cloudflare-dns.com"));
}
