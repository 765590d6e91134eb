//! The measure → enforce loop: run a Panoptes study, compile its
//! findings into a guard policy, and show the same browser crawling
//! clean — the countermeasure §4 of the paper says content blockers
//! cannot provide.
//!
//! ```text
//! cargo run --release --example guarded_browsing -- Yandex
//! ```

use panoptes_suite::analysis::engine::{analyze_crawl, AnalysisResources};
use panoptes_suite::browsers::registry::profile_by_name;
use panoptes_suite::guard::{GuardAddon, GuardPolicy};
use panoptes_suite::mitm::FlowClass;
use panoptes_suite::panoptes::campaign::{run_crawl, run_crawl_with};
use panoptes_suite::panoptes::config::CampaignConfig;
use panoptes_suite::web::generator::GeneratorConfig;
use panoptes_suite::web::World;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "Yandex".to_string());
    let profile = profile_by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown browser {name:?}");
        std::process::exit(2);
    });
    let world = World::build(&GeneratorConfig { popular: 20, sensitive: 12, ..Default::default() });
    let config = CampaignConfig::default();
    let res = AnalysisResources::standard();

    // Phase 1 — measure.
    println!("== phase 1: measurement crawl ({}) ==", profile.name);
    let unguarded = run_crawl(&world, &profile, &world.sites, &config);
    let measured = analyze_crawl(&unguarded, &res);
    let (leaks, pii) = (&measured.history_leaks, &measured.pii);
    for l in leaks {
        println!("  leak: {} [{}]", l.destination, l.granularity.as_str());
    }
    for (field, dest) in &pii.leaked {
        println!("  pii : {} -> {}", field.label(), dest);
    }
    if leaks.is_empty() && pii.leaked.is_empty() {
        println!("  nothing to enforce against — {} is clean", profile.name);
        return;
    }

    // Phase 2 — compile the findings into a policy.
    let mut policy = GuardPolicy::strict_for_device(&[], &res.props);
    for leak in leaks {
        policy.block_endpoint(&leak.destination);
    }
    println!(
        "\n== phase 2: policy — {} blocked endpoints, hosts-list blocking, history+PII redaction ==",
        policy.block_endpoints.len()
    );

    // Phase 3 — enforce.
    println!("\n== phase 3: guarded crawl ==");
    let guarded = run_crawl_with(&world, &profile, &world.sites, &config, move |proxy| {
        proxy.install_addon(Box::new(GuardAddon::new(policy)));
    });
    let enforced = analyze_crawl(&guarded, &res);
    let blocked = guarded.store.by_class(FlowClass::Blocked).len();
    println!("  blocked native requests : {blocked}");
    println!(
        "  history leaks remaining : {}",
        if enforced.history_leaks.is_empty() { "none" } else { "SOME — policy incomplete!" }
    );
    println!("  pii fields remaining    : {}", enforced.pii.leaked.len());
    println!(
        "  page loads unaffected   : {} engine flows (vs {} unguarded)",
        guarded.store.engine_flows().len(),
        unguarded.store.engine_flows().len()
    );
}
