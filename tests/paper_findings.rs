//! End-to-end reproduction of the paper's summary findings (§5) at a
//! reduced scale: the six numbered conclusions, each re-derived from the
//! wire through the full pipeline.

use panoptes_suite::analysis::dns::ObservedResolver;
use panoptes_suite::analysis::engine::{analyze_crawl, AnalysisResources, CampaignAnalysis};
use panoptes_suite::analysis::history::LeakGranularity;
use panoptes_suite::analysis::incognito::compare;
use panoptes_suite::browsers::registry::{all_profiles, profile_by_name};
use panoptes_suite::browsers::PiiField;
use panoptes_suite::panoptes::campaign::run_crawl;
use panoptes_suite::panoptes::config::CampaignConfig;
use panoptes_suite::panoptes::fleet::{self, FleetOptions};
use panoptes_suite::web::generator::GeneratorConfig;
use panoptes_suite::web::World;

/// Every paper browser's crawl of a 20-site web, analysed.
fn study() -> Vec<CampaignAnalysis> {
    let world = World::build(&GeneratorConfig { popular: 12, sensitive: 8, ..Default::default() });
    let config = CampaignConfig::default();
    let sequential = FleetOptions::with_jobs(1);
    let res = AnalysisResources::standard();
    fleet::run_crawl_jobs_with(&world, &world.sites, &config, &sequential, &all_profiles())
        .expect("crawl")
        .iter()
        .map(|result| analyze_crawl(result, &res))
        .collect()
}

#[test]
fn finding1_native_traffic_can_reach_a_third_of_total() {
    // §5(1): native requests "can amount to as high as 1/3 of the total
    // generated traffic", with Edge and Yandex at the top.
    let analyses = study();
    let rows: Vec<_> = analyses.iter().map(|a| &a.volume).collect();
    let over_third: Vec<&str> = rows
        .iter()
        .filter(|r| r.request_ratio > 1.0 / 3.0)
        .map(|r| r.browser.as_str())
        .collect();
    for name in ["Edge", "Yandex", "Vivaldi", "Whale", "CocCoc"] {
        assert!(over_third.contains(&name), "{name} should exceed 1/3: {rows:?}");
    }
    // And the quiet ones stay quiet.
    for r in &rows {
        if ["Chrome", "Brave", "DuckDuckGo"].contains(&r.browser.as_str()) {
            assert!(r.request_ratio < 0.10, "{}: {}", r.browser, r.request_ratio);
        }
    }
}

#[test]
fn finding2_three_browsers_report_the_exact_page() {
    // §5(2): Yandex, QQ and UC International report the exact page and
    // content being browsed.
    let full_url_leakers: Vec<String> = study()
        .iter()
        .map(CampaignAnalysis::leak_summary)
        .filter(|s| s.worst == Some(LeakGranularity::FullUrl))
        .map(|s| s.browser)
        .collect();
    assert_eq!(
        full_url_leakers,
        vec!["Yandex".to_string(), "QQ".to_string(), "UC International".to_string()]
    );
}

#[test]
fn finding3_yandex_attaches_a_persistent_identifier() {
    // §5(3): Yandex reports together with a persistent identifier, so
    // users can be tracked across Tor / proxies / VPNs.
    for a in &study() {
        let s = a.leak_summary();
        if a.browser == "Yandex" {
            assert!(s.persistent, "yandex leak must carry the identifier");
        } else {
            assert!(!s.persistent, "{} should not", a.browser);
        }
    }
}

#[test]
fn finding4_incognito_and_sensitive_content_change_nothing() {
    // §5(4): leaking continues in incognito mode and for sensitive
    // categories.
    let world = World::build(&GeneratorConfig { popular: 8, sensitive: 8, ..Default::default() });
    let cfg = CampaignConfig::default();
    let res = AnalysisResources::standard();
    let analyze = |name, cfg: &CampaignConfig| {
        let p = profile_by_name(name).unwrap();
        analyze_crawl(&run_crawl(&world, &p, &world.sites, cfg), &res)
    };
    for name in ["Edge", "Opera", "UC International"] {
        let normal = analyze(name, &cfg);
        let incog = analyze(name, &cfg.clone().incognito());
        assert!(compare(&normal, &incog).still_leaks, "{name}");
    }
    for name in ["Yandex", "QQ", "UC International"] {
        let row = analyze(name, &cfg).sensitive;
        assert_eq!(row.sensitive_urls_leaked, row.sensitive_visits, "{name}");
    }
}

#[test]
fn finding5_leaks_travel_outside_the_eu() {
    // §5(5): the full-detail leaks land in Russia, China and Canada.
    let analyses = study();
    let rows: Vec<_> = analyses.iter().filter_map(|a| a.transfers.as_ref()).collect();
    let expect = [("Yandex", "RU"), ("QQ", "CN"), ("UC International", "CA")];
    for (browser, country) in expect {
        let row = rows
            .iter()
            .find(|r| r.browser == browser && r.granularity == LeakGranularity::FullUrl)
            .unwrap_or_else(|| panic!("{browser} missing from transfers"));
        assert!(row.leaves_eu, "{browser}");
        assert!(
            row.destinations.iter().any(|(_, c)| c.as_str() == country),
            "{browser} → {country}: {:?}",
            row.destinations
        );
    }
}

#[test]
fn finding6_ad_servers_and_pii() {
    // §5(6): Opera/CocCoc/Dolphin/Mint talk to third-party ad and
    // analytics servers while leaking PII and device identifiers.
    let analyses = study();
    let fig3: Vec<_> = analyses.iter().map(|a| &a.addomains).collect();
    for name in ["Opera", "CocCoc", "Dolphin", "Mint", "Kiwi", "Edge", "Yandex", "QQ"] {
        let row = fig3.iter().find(|r| r.browser == name).unwrap();
        assert!(row.ad_percent > 0.0, "{name} must contact ad servers");
    }
    let zero: Vec<&str> = fig3
        .iter()
        .filter(|r| r.ad_percent == 0.0)
        .map(|r| r.browser.as_str())
        .collect();
    assert_eq!(zero.len(), 7, "8 of 15 browsers contact ad servers: {zero:?}");

    let pii = |name| &analyses.iter().find(|a| a.browser == name).unwrap().pii;
    assert!(pii("Opera").leaks(PiiField::Location));
    let whale = pii("Whale");
    assert!(whale.leaks(PiiField::LocalIp) && whale.leaks(PiiField::RootedStatus));
}

#[test]
fn table2_matches_paper_exactly() {
    // The full 15×12 matrix, cell for cell, as printed in the paper.
    let analyses = study();

    use PiiField::*;
    let expected: &[(&str, &[PiiField])] = &[
        ("Chrome", &[]),
        ("Edge", &[DeviceManufacturer, Timezone, Resolution, Locale, ConnectionType, NetworkType]),
        ("Opera", &[DeviceManufacturer, Timezone, Resolution, Locale, Country, Location, NetworkType]),
        ("Vivaldi", &[Resolution]),
        ("Yandex", &[DeviceType, DeviceManufacturer, Resolution, Dpi, Locale, NetworkType]),
        ("Brave", &[]),
        ("Samsung", &[Locale]),
        ("DuckDuckGo", &[]),
        ("Dolphin", &[]),
        ("Whale", &[Resolution, LocalIp, RootedStatus, Locale, Country, NetworkType]),
        ("Mint", &[Timezone, Resolution, Locale, Country]),
        ("Kiwi", &[]),
        ("CocCoc", &[DeviceType, DeviceManufacturer, Resolution, Locale, Country]),
        ("QQ", &[DeviceType, DeviceManufacturer, Resolution]),
        ("UC International", &[Locale, NetworkType]),
    ];
    for (browser, fields) in expected {
        let row = &analyses.iter().find(|a| a.browser == *browser).unwrap().pii;
        for field in PiiField::ALL {
            assert_eq!(
                row.leaks(field),
                fields.contains(&field),
                "{browser} / {field:?}: got {:?}",
                row.leaked
            );
        }
    }
}

#[test]
fn dns_split_matches_paper() {
    let analyses = study();
    let doh = analyses
        .iter()
        .filter(|a| matches!(a.dns.resolver, ObservedResolver::Doh(_)))
        .count();
    let stub = analyses.iter().filter(|a| a.dns.resolver == ObservedResolver::LocalStub).count();
    assert_eq!((doh, stub), (8, 7));
}
