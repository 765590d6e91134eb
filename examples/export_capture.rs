//! Capture persistence: run a campaign, export the flow database as
//! JSONL and HAR, reload it, and re-run an analysis offline — the
//! archive-and-reanalyse workflow of a longitudinal study.
//!
//! ```text
//! cargo run --release --example export_capture -- /tmp/panoptes-capture
//! ```

use panoptes_suite::analysis::engine::{analyze_crawl, AnalysisResources};
use panoptes_suite::browsers::registry::profile_by_name;
use panoptes_suite::mitm::{har, FlowStore};
use panoptes_suite::panoptes::campaign::run_crawl;
use panoptes_suite::panoptes::config::CampaignConfig;
use panoptes_suite::web::generator::GeneratorConfig;
use panoptes_suite::web::World;

fn main() {
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| "/tmp/panoptes-capture".to_string());
    std::fs::create_dir_all(&out_dir).expect("create output directory");

    // 1. Capture.
    let world = World::build(&GeneratorConfig { popular: 15, sensitive: 10, ..Default::default() });
    let profile = profile_by_name("QQ").unwrap();
    let result = run_crawl(&world, &profile, &world.sites, &CampaignConfig::default());
    println!("captured {} flows from a {} crawl", result.store.len(), profile.name);

    // 2. Export: JSONL (lossless archive) + HAR (tool interchange).
    let jsonl_path = format!("{out_dir}/qq-capture.jsonl");
    let har_path = format!("{out_dir}/qq-capture.har");
    std::fs::write(&jsonl_path, result.store.export_jsonl()).expect("write jsonl");
    std::fs::write(&har_path, har::store_to_har(&result.store)).expect("write har");
    println!("wrote {jsonl_path}");
    println!("wrote {har_path}  (open in any HAR viewer)");

    // 3. Reload the archive and verify it is lossless.
    let text = std::fs::read_to_string(&jsonl_path).expect("read archive");
    let restored = FlowStore::import_jsonl(&text).expect("parse archive");
    assert_eq!(restored.all(), result.store.all(), "JSONL roundtrip is lossless");
    println!("archive reload: {} flows, byte-identical", restored.len());

    // 4. Re-run an analysis offline against the reloaded store. The
    //    analysis only needs the flows + the visit ground truth, which a
    //    real deployment stores alongside the capture.
    let leaks = analyze_crawl(&result, &AnalysisResources::standard()).history_leaks;
    println!("\noffline analysis of the archive:");
    for l in &leaks {
        println!(
            "  {} -> {} [{} / {} visits]",
            l.browser,
            l.destination,
            l.granularity.as_str(),
            l.visits_leaked
        );
    }
    assert!(!leaks.is_empty(), "QQ's full-URL reporting must be in the archive");
}
