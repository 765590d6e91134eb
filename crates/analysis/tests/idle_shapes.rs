//! Figure 5's shape claim, checked across the whole dataset: "the
//! activity of most browsers grows exponentially within the first minute
//! ... before they reach a relative plateau", with Opera's News feed as
//! the named linear exception.

use panoptes::config::CampaignConfig;
use panoptes::idle::run_idle;
use panoptes_analysis::engine::analyze_idle;
use panoptes_browsers::registry::all_profiles;
use panoptes_simnet::clock::SimDuration;
use panoptes_web::generator::GeneratorConfig;
use panoptes_web::World;

#[test]
fn most_browsers_front_load_opera_is_linear() {
    let world = World::build(&GeneratorConfig { popular: 3, sensitive: 2, ..Default::default() });
    let config = CampaignConfig::default();
    // A uniform (linear) emitter puts 60/600 = 10% of its requests in
    // the first minute.
    let uniform = 0.10;

    let mut front_loaded = 0;
    let mut opera_share = None;
    for profile in all_profiles() {
        let result = run_idle(&world, &profile, SimDuration::from_secs(600), &config);
        let tl = analyze_idle(&result).timeline(SimDuration::from_secs(10));
        assert!(tl.total() > 0, "{} sent nothing while idle", profile.name);
        // Cumulative series is monotone by construction.
        for w in tl.cumulative.windows(2) {
            assert!(w[1].1 >= w[0].1, "{}", profile.name);
        }
        let share = tl.first_minute_share();
        if profile.name == "Opera" {
            opera_share = Some(share);
        } else if share > uniform * 1.5 {
            front_loaded += 1;
        }
    }
    // "Most browsers": at least 12 of the other 14 are clearly
    // front-loaded (burst then plateau).
    assert!(front_loaded >= 12, "only {front_loaded} browsers front-loaded");
    // Opera is near-uniform — the linear curve.
    let opera = opera_share.expect("opera measured");
    assert!(
        opera < uniform * 1.5,
        "Opera should be linear, got first-minute share {opera:.2}"
    );
}

#[test]
fn idle_timelines_are_deterministic() {
    let world = World::build(&GeneratorConfig { popular: 2, sensitive: 1, ..Default::default() });
    let config = CampaignConfig::default();
    let profile = panoptes_browsers::registry::profile_by_name("Edge").unwrap();
    let a = run_idle(&world, &profile, SimDuration::from_secs(300), &config);
    let b = run_idle(&world, &profile, SimDuration::from_secs(300), &config);
    let bucket = SimDuration::from_secs(10);
    assert_eq!(analyze_idle(&a).timeline(bucket), analyze_idle(&b).timeline(bucket));
}
