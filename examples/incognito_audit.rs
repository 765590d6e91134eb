//! The §3.2 incognito experiment: do the history-leaking browsers stop
//! when the user browses "privately"? (Spoiler, per the paper: no.)
//!
//! ```text
//! cargo run --release --example incognito_audit
//! ```

use panoptes_suite::analysis::engine::{analyze_crawl, AnalysisResources};
use panoptes_suite::analysis::history::LeakGranularity;
use panoptes_suite::analysis::incognito::compare;
use panoptes_suite::browsers::registry::profile_by_name;
use panoptes_suite::panoptes::campaign::run_crawl;
use panoptes_suite::panoptes::config::CampaignConfig;
use panoptes_suite::web::generator::GeneratorConfig;
use panoptes_suite::web::World;

fn main() {
    let world = World::build(&GeneratorConfig { popular: 20, sensitive: 12, ..Default::default() });
    let normal_cfg = CampaignConfig::default();
    let incognito_cfg = CampaignConfig::default().incognito();
    let res = AnalysisResources::standard();

    println!("browser            normal       incognito    still leaking?");
    println!("-----------------  -----------  -----------  --------------");

    // The three §3.2 subjects. Yandex and QQ cannot be tested: they
    // provide no incognito mode at all (paper footnote 5).
    for name in ["Edge", "Opera", "UC International"] {
        let profile = profile_by_name(name).expect("known");
        let normal = analyze_crawl(&run_crawl(&world, &profile, &world.sites, &normal_cfg), &res);
        let incognito =
            analyze_crawl(&run_crawl(&world, &profile, &world.sites, &incognito_cfg), &res);
        let row = compare(&normal, &incognito);
        println!(
            "{:<18} {:<12} {:<12} {}",
            row.browser,
            row.normal.map(LeakGranularity::as_str).unwrap_or("—"),
            row.incognito.map(LeakGranularity::as_str).unwrap_or("—"),
            if row.still_leaks { "YES — incognito does not help" } else { "no" },
        );
    }

    for name in ["Yandex", "QQ"] {
        let profile = profile_by_name(name).expect("known");
        assert!(!profile.supports_incognito);
        println!("{name:<18} (no incognito mode offered — footnote 5)");
    }
}
