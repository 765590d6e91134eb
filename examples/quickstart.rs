//! Quickstart: crawl one browser through Panoptes and see the split
//! capture plus the headline finding.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use panoptes_suite::analysis::engine::{analyze_crawl, AnalysisResources};
use panoptes_suite::browsers::registry::profile_by_name;
use panoptes_suite::panoptes::campaign::run_crawl;
use panoptes_suite::panoptes::config::CampaignConfig;
use panoptes_suite::web::generator::GeneratorConfig;
use panoptes_suite::web::World;

fn main() {
    // 1. Build a (small) simulated Web: 25 popular + 15 sensitive sites.
    let world = World::build(&GeneratorConfig { popular: 25, sensitive: 15, ..Default::default() });
    println!("world: {} sites, {} hosts", world.sites.len(), world.host_count());

    // 2. Crawl Yandex through the full Panoptes pipeline: factory reset,
    //    launch, per-UID traffic diversion, taint splitting at the MITM
    //    proxy, the 60s+5s visit rule.
    let profile = profile_by_name("Yandex").expect("in Table 1");
    let result = run_crawl(&world, &profile, &world.sites, &CampaignConfig::default());
    let analysis = analyze_crawl(&result, &AnalysisResources::standard());

    // 3. The split capture (Figure 2's raw material).
    let row = &analysis.volume;
    println!(
        "\n{} {}: {} engine requests, {} native requests (ratio {:.2})",
        profile.name, profile.version, row.engine_requests, row.native_requests, row.request_ratio
    );

    // 4. The headline finding: the browser reports every page you visit.
    println!("\nhistory leaks detected:");
    for leak in &analysis.history_leaks {
        println!(
            "  {} -> {}  [{} | {:?} | {} visits{}]",
            leak.browser,
            leak.destination,
            leak.granularity.as_str(),
            leak.encoding,
            leak.visits_leaked,
            leak.persistent_id
                .as_deref()
                .map(|id| format!(" | persistent id {}…", &id[..8]))
                .unwrap_or_default(),
        );
    }

    // 5. Show one raw phone-home flow, exactly as captured on the wire.
    let snap = result.store.snapshot();
    let flow = snap
        .native()
        .iter()
        .find(|f| f.host == "sba.yandex.net")
        .expect("yandex phones home every visit");
    println!("\nexample phone-home flow:\n  GET {}", flow.url);
}
