//! Full privacy audit of a single browser — the workflow a researcher
//! or journalist would run against one app.
//!
//! ```text
//! cargo run --release --example audit_browser -- Opera
//! ```

use panoptes_suite::analysis::dns::ObservedResolver;
use panoptes_suite::analysis::engine::{analyze_crawl, AnalysisResources};
use panoptes_suite::browsers::registry::{all_profiles, profile_by_name};
use panoptes_suite::panoptes::campaign::run_crawl;
use panoptes_suite::panoptes::config::CampaignConfig;
use panoptes_suite::web::generator::GeneratorConfig;
use panoptes_suite::web::World;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "Opera".to_string());
    let Some(profile) = profile_by_name(&name) else {
        eprintln!("unknown browser {name:?}; choose one of:");
        for p in all_profiles() {
            eprintln!("  {}", p.name);
        }
        std::process::exit(2);
    };

    println!("=== Panoptes audit: {} {} ({}) ===", profile.name, profile.version, profile.package);

    let world = World::build(&GeneratorConfig { popular: 40, sensitive: 20, ..Default::default() });
    let result = run_crawl(&world, &profile, &world.sites, &CampaignConfig::default());
    let analysis = analyze_crawl(&result, &AnalysisResources::standard());

    let v = &analysis.volume;
    println!("\n-- traffic split (Figs 2/4) --");
    println!("engine requests : {:>8}", v.engine_requests);
    println!("native requests : {:>8}  (ratio {:.2})", v.native_requests, v.request_ratio);
    println!("native volume   : {:>8}B (ratio {:.2})", v.native_bytes, v.volume_ratio);

    let ads = &analysis.addomains;
    println!("\n-- native destinations (Fig 3) --");
    println!(
        "{} distinct hosts, {} ad/analytics-related ({:.1}%)",
        ads.native_hosts.len(),
        ads.ad_hosts.len(),
        ads.ad_percent
    );
    for host in &ads.ad_hosts {
        println!("  AD: {host}");
    }

    println!("\n-- DNS (§3.2) --");
    let dns = &analysis.dns;
    match dns.resolver {
        ObservedResolver::Doh(p) => println!("DoH via {} ({} lookups)", p.host(), dns.lookups),
        ObservedResolver::LocalStub => println!("local stub resolver ({} lookups)", dns.lookups),
        ObservedResolver::None => println!("no lookups observed"),
    }

    println!("\n-- browsing-history leaks (§3.2) --");
    let leaks = &analysis.history_leaks;
    if leaks.is_empty() {
        println!("none detected");
    }
    for l in leaks {
        println!(
            "  {} -> {} [{} / {:?} / {:?}]{}",
            l.browser,
            l.destination,
            l.granularity.as_str(),
            l.encoding,
            l.channel,
            if l.persistent_id.is_some() { "  ** persistent identifier **" } else { "" }
        );
    }

    let sens = &analysis.sensitive;
    if sens.sensitive_urls_leaked > 0 {
        println!(
            "\n-- sensitive content (§3.2) --\n{}/{} sensitive URLs leaked in full, e.g.\n  {}",
            sens.sensitive_urls_leaked,
            sens.sensitive_visits,
            sens.example.as_deref().unwrap_or("")
        );
    }

    if let Some(t) = &analysis.transfers {
        println!("\n-- international transfers (§3.4) --");
        for (host, country) in &t.destinations {
            println!(
                "  {host} -> {} ({}){}",
                country.name(),
                country,
                if country.is_eu() { "" } else { "  [outside EU]" }
            );
        }
    }

    println!("\n-- PII / device info (Table 2) --");
    let pii = &analysis.pii;
    if pii.leaked.is_empty() {
        println!("none detected");
    }
    for (field, dest) in &pii.leaked {
        println!("  {:<22} -> {}", field.label(), dest);
    }
}
