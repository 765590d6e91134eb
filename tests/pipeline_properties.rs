//! Cross-crate invariants of the measurement pipeline itself:
//! determinism, conservation (engine count bookkeeping vs the proxy's
//! databases), taint hygiene, and persistence round-trips.

use panoptes_suite::browsers::registry::{all_profiles, profile_by_name};
use panoptes_suite::mitm::{FlowClass, FlowStore, TAINT_HEADER};
use panoptes_suite::panoptes::campaign::run_crawl;
use panoptes_suite::panoptes::config::CampaignConfig;
use panoptes_suite::web::generator::GeneratorConfig;
use panoptes_suite::web::World;

fn world() -> World {
    World::build(&GeneratorConfig { popular: 6, sensitive: 4, ..Default::default() })
}

#[test]
fn same_seed_means_identical_capture() {
    let w = world();
    let p = profile_by_name("Opera").unwrap();
    let a = run_crawl(&w, &p, &w.sites, &CampaignConfig::default());
    let b = run_crawl(&w, &p, &w.sites, &CampaignConfig::default());
    assert_eq!(a.store.export_jsonl(), b.store.export_jsonl());
}

#[test]
fn different_seed_changes_the_taint_token_not_the_split() {
    let w = world();
    let p = profile_by_name("Opera").unwrap();
    let a = run_crawl(&w, &p, &w.sites, &CampaignConfig::default());
    let b = run_crawl(&w, &p, &w.sites, &CampaignConfig { seed: 99, ..Default::default() });
    // Identifiers differ, but the engine/native *counts* are identical:
    // the split is structural, not token-dependent.
    assert_eq!(a.store.engine_flows().len(), b.store.engine_flows().len());
    assert_eq!(a.store.native_flows().len(), b.store.native_flows().len());
}

#[test]
fn engine_bookkeeping_matches_proxy_database_for_every_browser() {
    let w = world();
    let config = CampaignConfig::default();
    for profile in all_profiles() {
        let r = run_crawl(&w, &profile, &w.sites, &config);
        assert_eq!(
            r.engine_sent,
            r.store.engine_flows().len() as u64,
            "{}: engine self-count vs proxy DB",
            profile.name
        );
        // The browser's own native counter may exceed the proxy count
        // only through pinned flows (the proxy saw them but could not
        // read them).
        let native_db = r.store.native_flows().len() as u64;
        let pinned = r.store.by_class(FlowClass::PinnedOpaque).len() as u64;
        assert_eq!(
            r.native_sent,
            native_db + pinned - pinned, // == native_db; pinned requests never complete
            "{}: native self-count vs proxy DB (pinned: {pinned})",
            profile.name
        );
    }
}

#[test]
fn no_taint_header_ever_reaches_a_recorded_flow() {
    let w = world();
    let config = CampaignConfig::default();
    for profile in all_profiles() {
        let r = run_crawl(&w, &profile, &w.sites, &config);
        for f in r.store.all() {
            assert!(
                f.request_headers.iter().all(|(n, _)| !n.eq_ignore_ascii_case(TAINT_HEADER)),
                "{}: taint leaked into recorded flow to {}",
                profile.name,
                f.host
            );
        }
    }
}

#[test]
fn flow_database_roundtrips_through_jsonl() {
    let w = world();
    let p = profile_by_name("Yandex").unwrap();
    let r = run_crawl(&w, &p, &w.sites, &CampaignConfig::default());
    let text = r.store.export_jsonl();
    let restored = FlowStore::import_jsonl(&text).expect("valid jsonl");
    assert_eq!(restored.all(), r.store.all());
    assert_eq!(restored.engine_flows().len(), r.store.engine_flows().len());
}

#[test]
fn flows_are_timestamped_monotonically() {
    let w = world();
    let p = profile_by_name("Edge").unwrap();
    let r = run_crawl(&w, &p, &w.sites, &CampaignConfig::default());
    let flows = r.store.all();
    for pair in flows.windows(2) {
        assert!(pair[1].time_us >= pair[0].time_us, "clock ran backwards");
        assert!(pair[1].id > pair[0].id);
    }
}

#[test]
fn every_flow_attributes_to_the_browser_uid() {
    let w = world();
    let p = profile_by_name("Whale").unwrap();
    let r = run_crawl(&w, &p, &w.sites, &CampaignConfig::default());
    for f in r.store.all() {
        assert_eq!(f.uid, r.uid, "foreign traffic in the capture");
        assert_eq!(f.package, p.package);
    }
}

#[test]
fn visit_ground_truth_covers_all_sites() {
    let w = world();
    let p = profile_by_name("Chrome").unwrap();
    let r = run_crawl(&w, &p, &w.sites, &CampaignConfig::default());
    assert_eq!(r.visits.len(), w.sites.len());
    for (visit, site) in r.visits.iter().zip(&w.sites) {
        assert_eq!(visit.url, site.url.as_str());
        assert_eq!(visit.domain, site.domain);
    }
}
