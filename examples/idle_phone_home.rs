//! The §3.5 idle experiment: launch a browser, touch nothing for ten
//! minutes, and watch it phone home — with Figure 5's cumulative curve
//! rendered as ASCII.
//!
//! ```text
//! cargo run --release --example idle_phone_home -- Dolphin
//! ```

use panoptes_suite::analysis::engine::analyze_idle;
use panoptes_suite::browsers::registry::profile_by_name;
use panoptes_suite::panoptes::config::CampaignConfig;
use panoptes_suite::panoptes::idle::run_idle;
use panoptes_suite::simnet::SimDuration;
use panoptes_suite::web::generator::GeneratorConfig;
use panoptes_suite::web::World;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "Dolphin".to_string());
    let profile = profile_by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown browser {name:?}");
        std::process::exit(2);
    });

    let world = World::build(&GeneratorConfig { popular: 10, sensitive: 5, ..Default::default() });
    let result = run_idle(&world, &profile, SimDuration::from_secs(600), &CampaignConfig::default());
    let analysis = analyze_idle(&result);

    println!(
        "{} idled for {}s and sent {} native requests:",
        profile.name,
        result.duration.as_secs(),
        result.idle_sent
    );

    // Figure 5, one browser: cumulative native requests in 30s buckets.
    let tl = analysis.timeline(SimDuration::from_secs(30));
    let max = tl.total().max(1);
    println!("\ncumulative native requests (Fig 5 curve):");
    for (t, n) in &tl.cumulative {
        let bar = "#".repeat((n * 50 / max) as usize);
        println!("{t:>4}s |{bar:<50}| {n}");
    }
    println!(
        "first-minute share: {:.0}% ({} of {} — burst-then-plateau when high, linear when ~10%)",
        tl.first_minute_share() * 100.0,
        tl.at(60),
        tl.total()
    );

    // §3.5: who receives the chatter.
    println!("\nidle destinations:");
    for share in analysis.destination_shares() {
        println!("  {:<28} {:>5.1}%  ({} requests)", share.domain, share.percent, share.count);
    }
}
