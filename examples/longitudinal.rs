//! Longitudinal auditing: compare two releases of the same browser and
//! catch a privacy regression. Release 1.0 is clean; release 2.0 "adds
//! search suggestions" that quietly report every visited domain. The
//! comparison module flags the regression automatically.
//!
//! ```text
//! cargo run --release --example longitudinal
//! ```

use panoptes_suite::analysis::compare::compare_campaigns;
use panoptes_suite::analysis::engine::{analyze_crawl, AnalysisResources};
use panoptes_suite::analysis::history::LeakGranularity;
use panoptes_suite::browsers::registry::profile_by_name;
use panoptes_suite::browsers::{BrowserProfile, NativeCall, Payload};
use panoptes_suite::panoptes::campaign::run_crawl;
use panoptes_suite::panoptes::config::CampaignConfig;
use panoptes_suite::web::generator::GeneratorConfig;
use panoptes_suite::web::World;

/// Release 2.0's new per-visit calls: the old catalogue plus the
/// "suggestions" endpoint that receives the visited domain.
fn v2_per_visit() -> Vec<NativeCall> {
    vec![
        NativeCall::ping("improving.duckduckgo.com", "/t/page_visit_anon"),
        NativeCall::ping("staticcdn.duckduckgo.com", "/suggest")
            .carrying(Payload::domain_only("q")),
    ]
}

fn main() {
    let world = World::build(&GeneratorConfig { popular: 20, sensitive: 10, ..Default::default() });
    let config = CampaignConfig::default();

    // Release 1.0: the shipped (clean) DuckDuckGo model.
    let v1 = profile_by_name("DuckDuckGo").unwrap();
    // Release 2.0: same app, one new feature with a privacy bug.
    let v2 = BrowserProfile {
        version: "5.159.0".to_string(),
        per_visit: v2_per_visit(),
        ..v1.clone()
    };

    println!("crawling {} {} ...", v1.name, v1.version);
    let run_v1 = run_crawl(&world, &v1, &world.sites, &config);
    println!("crawling {} {} ...", v2.name, v2.version);
    let run_v2 = run_crawl(&world, &v2, &world.sites, &config);

    let res = AnalysisResources::standard();
    let delta = compare_campaigns(&analyze_crawl(&run_v1, &res), &analyze_crawl(&run_v2, &res));
    println!("\n== release comparison ==");
    println!("browser        : {}", delta.browser);
    println!(
        "leak class     : {:?} -> {:?}",
        delta.leak_a.map(LeakGranularity::as_str),
        delta.leak_b.map(LeakGranularity::as_str)
    );
    println!("native ratio   : {:.3} -> {:.3}", delta.ratio_a, delta.ratio_b);
    println!("native requests: {:+}", delta.native_delta);

    assert!(delta.regressed(), "the audit must flag the new domain reporting");
    println!(
        "\nVERDICT: {} {} introduces a browsing-history leak ({} -> {}); block the release.",
        v2.name,
        v2.version,
        delta.leak_a.map(LeakGranularity::as_str).unwrap_or("none"),
        delta.leak_b.map(LeakGranularity::as_str).unwrap_or("none"),
    );
}
