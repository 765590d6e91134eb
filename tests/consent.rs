//! The §2.1 wizard-configuration experiment: what actually changes when
//! the user declines the telemetry prompt? For well-behaved vendors the
//! telemetry stops; for the tracking-heavy ones nothing important does —
//! Listing 1's Opera ad request literally ships `"userConsent":"false"`.

use panoptes_suite::analysis::engine::{analyze_crawl, AnalysisResources};
use panoptes_suite::browsers::registry::profile_by_name;
use panoptes_suite::panoptes::campaign::run_crawl;
use panoptes_suite::panoptes::config::CampaignConfig;
use panoptes_suite::web::generator::GeneratorConfig;
use panoptes_suite::web::World;

fn world() -> World {
    World::build(&GeneratorConfig { popular: 6, sensitive: 4, ..Default::default() })
}

#[test]
fn honoring_vendors_go_quiet_when_consent_is_declined() {
    let w = world();
    for name in ["Samsung", "Vivaldi"] {
        let p = profile_by_name(name).unwrap();
        assert!(p.honors_telemetry_consent);
        let granted = run_crawl(&w, &p, &w.sites, &CampaignConfig::default());
        let declined =
            run_crawl(&w, &p, &w.sites, &CampaignConfig::default().telemetry_declined());
        assert!(
            declined.store.native_flows().len() < granted.store.native_flows().len(),
            "{name}: declining must reduce native traffic"
        );
    }
}

#[test]
fn tracking_browsers_ignore_the_declined_prompt() {
    let w = world();
    for name in ["Yandex", "QQ", "Edge", "Whale"] {
        let p = profile_by_name(name).unwrap();
        assert!(!p.honors_telemetry_consent, "{name}");
        let granted = run_crawl(&w, &p, &w.sites, &CampaignConfig::default());
        let declined =
            run_crawl(&w, &p, &w.sites, &CampaignConfig::default().telemetry_declined());
        assert_eq!(
            granted.store.native_flows().len(),
            declined.store.native_flows().len(),
            "{name}: consent made no difference on the wire"
        );
    }
}

#[test]
fn history_leaks_do_not_care_about_consent() {
    let w = world();
    for name in ["Yandex", "QQ", "Edge", "Opera"] {
        let p = profile_by_name(name).unwrap();
        let declined =
            run_crawl(&w, &p, &w.sites, &CampaignConfig::default().telemetry_declined());
        let analysis = analyze_crawl(&declined, &AnalysisResources::standard());
        assert!(!analysis.history_leaks.is_empty(), "{name}: no leak with consent declined");
    }
}

#[test]
fn opera_records_the_refusal_and_sends_anyway() {
    // Listing 1, reproduced with consent declined: the ad SDK still
    // fires, body says userConsent:"false".
    let w = world();
    let p = profile_by_name("Opera").unwrap();
    let declined = run_crawl(&w, &p, &w.sites, &CampaignConfig::default().telemetry_declined());
    let oleads: Vec<_> = declined
        .store
        .native_flows()
        .into_iter()
        .filter(|f| f.host == "s-odx.oleads.com")
        .collect();
    assert_eq!(oleads.len(), w.sites.len(), "the ad SDK fires on every visit regardless");
    assert!(oleads.iter().all(|f| f.request_body.contains("\"userConsent\":\"false\"")));
}
