//! Redirect handling end-to-end: apex entry points 301 to the `www.`
//! host, the engine follows, both hops are captured, and the analyses
//! stay correct.

use panoptes_suite::analysis::engine::{analyze_crawl, AnalysisResources};
use panoptes_suite::browsers::registry::profile_by_name;
use panoptes_suite::panoptes::campaign::run_crawl;
use panoptes_suite::panoptes::config::CampaignConfig;
use panoptes_suite::web::generator::GeneratorConfig;
use panoptes_suite::web::World;

fn world_with_redirects() -> World {
    // Rank 9 and 18 redirect (rank % 9 == 0).
    World::build(&GeneratorConfig { popular: 18, sensitive: 2, ..Default::default() })
}

#[test]
fn generator_marks_every_ninth_popular_site() {
    let world = world_with_redirects();
    let redirecting: Vec<u32> = world
        .sites
        .iter()
        .filter(|s| s.apex_redirect)
        .map(|s| s.rank)
        .collect();
    assert_eq!(redirecting, vec![9, 18]);
    for site in world.sites.iter().filter(|s| s.apex_redirect) {
        assert!(!site.url.as_str().contains("www."));
        assert!(site.host.contains("www."));
        assert!(world.ip_of(&site.domain).is_some(), "apex host allocated");
    }
}

#[test]
fn engine_follows_the_hop_and_both_flows_are_captured() {
    let world = world_with_redirects();
    let chrome = profile_by_name("Chrome").unwrap();
    let result = run_crawl(&world, &chrome, &world.sites, &CampaignConfig::default());
    let site = world.sites.iter().find(|s| s.apex_redirect).unwrap();

    let engine = result.store.engine_flows();
    let apex: Vec<_> = engine.iter().filter(|f| f.host == site.domain).collect();
    let www: Vec<_> = engine.iter().filter(|f| f.host == site.host).collect();
    assert_eq!(apex.len(), 1, "one 301 hop");
    assert_eq!(apex[0].status, 301);
    assert!(!www.is_empty(), "landing document fetched after the hop");
    assert!(www.iter().any(|f| f.status == 200));
}

#[test]
fn leak_detection_is_unaffected_by_redirects() {
    let world = world_with_redirects();
    let yandex = profile_by_name("Yandex").unwrap();
    let result = run_crawl(&world, &yandex, &world.sites, &CampaignConfig::default());
    let leaks = analyze_crawl(&result, &AnalysisResources::standard()).history_leaks;
    let sba = leaks.iter().find(|l| l.destination == "sba.yandex.net").unwrap();
    // Every visit leaks — including the redirecting ones (the browser
    // reports the navigation URL, i.e. the apex).
    assert_eq!(sba.visits_leaked, world.sites.len());
}
