//! Extending Panoptes: audit a browser that is NOT in the paper's
//! Table 1. Defines a hypothetical "Acme Browser" whose vendor quietly
//! reports every visited URL percent-encoded to an analytics endpoint —
//! then shows the pipeline catching it with zero analysis changes.
//!
//! This is the workflow for auditing a new browser release: compose a
//! [`BehaviorModel`] from the same axes the 15 pinned paper browsers
//! use (or, against real hardware, point the harness at the real app),
//! materialize it, and re-run the standard analyses.
//!
//! ```text
//! cargo run --release --example custom_browser
//! ```

use panoptes_suite::analysis::engine::{analyze_crawl, AnalysisResources};
use panoptes_suite::analysis::history::{LeakEncoding, LeakGranularity};
use panoptes_suite::browsers::{BehaviorModel, BrowserProfile, NativeCall, Payload, PiiField};
use panoptes_suite::panoptes::campaign::run_crawl;
use panoptes_suite::panoptes::config::CampaignConfig;
use panoptes_suite::web::generator::GeneratorConfig;
use panoptes_suite::web::World;

/// The hypothetical vendor's behaviour model: a point in the same
/// parameter space the paper's browsers are pinned in.
fn acme_model() -> BehaviorModel {
    BehaviorModel::new("Acme Browser", "1.0.0", "com.acme.browser")
        .h3()
        .leaks(&[PiiField::Resolution, PiiField::Timezone])
        .persistent_id("acmeDeviceId")
        .startup(vec![NativeCall::ping("api.ucweb.com", "/v1/config")])
        .per_visit(vec![
            // The smoking gun: the full URL, percent-encoded, in a
            // "diagnostics" parameter. (Aimed at an existing world
            // endpoint so this example needs no world changes.)
            NativeCall::ping("track.ucweb.com", "/v1/diag")
                .carrying(Payload::full_url_plain("page")),
            NativeCall::ping("track.ucweb.com", "/v1/stat")
                .via_post()
                .carrying(Payload::Telemetry)
                .padded(64),
        ])
}

fn acme_profile() -> BrowserProfile {
    let model = acme_model();
    assert!(model.coherence_errors().is_empty(), "model must be coherent");
    model.materialize()
}

fn main() {
    let world = World::build(&GeneratorConfig { popular: 20, sensitive: 10, ..Default::default() });
    let profile = acme_profile();
    println!("auditing {} {} — a browser the paper never saw", profile.name, profile.version);

    let result = run_crawl(&world, &profile, &world.sites, &CampaignConfig::default());
    let analysis = analyze_crawl(&result, &AnalysisResources::standard());

    let leaks = &analysis.history_leaks;
    assert!(!leaks.is_empty(), "the pipeline must catch the planted leak");
    println!("\ndetected without any analysis changes:");
    for l in leaks {
        println!(
            "  {} -> {} [{} / {:?}]{}",
            l.browser,
            l.destination,
            l.granularity.as_str(),
            l.encoding,
            if l.persistent_id.is_some() { "  ** persistent id **" } else { "" }
        );
    }
    let worst = leaks.iter().map(|l| l.granularity).max().unwrap();
    assert_eq!(worst, LeakGranularity::FullUrl);
    assert!(leaks.iter().any(|l| l.encoding == LeakEncoding::Plain));

    println!("\nPII observed:");
    for (field, dest) in &analysis.pii.leaked {
        println!("  {:<22} -> {}", field.label(), dest);
    }
}
