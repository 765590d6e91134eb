//! Accounting invariants that must hold for every browser in Table 1,
//! whatever its engine, ad blocker, or phone-home behaviour:
//!
//! * the engine's own sent-request counter equals the number of
//!   engine-classified flows in the capture store (ad-blocked requests
//!   are suppressed before sending, so they appear in neither);
//! * the browser model's native-request counter equals the number of
//!   native-classified flows in the store;
//! * the ground-truth visit log covers exactly the site list.
//!
//! These are the cross-checks the paper's pipeline leans on when it
//! splits traffic into engine vs native (§2.3): if either counter ever
//! drifts from the store, the taint-splitting addon is silently
//! misclassifying flows.

use panoptes::campaign::run_crawl;
use panoptes::config::CampaignConfig;
use panoptes_browsers::registry::all_profiles;
use panoptes_web::generator::GeneratorConfig;
use panoptes_web::World;

#[test]
fn flow_accounting_matches_store_for_every_browser() {
    let world =
        World::build(&GeneratorConfig { popular: 8, sensitive: 6, ..Default::default() });
    let config = CampaignConfig::default();
    let profiles = all_profiles();
    assert_eq!(profiles.len(), 15, "Table 1 has 15 browsers");

    for profile in &profiles {
        let r = run_crawl(&world, profile, &world.sites, &config);
        let name = &profile.name;

        assert_eq!(
            r.visits.len(),
            world.sites.len(),
            "{name}: visit log must cover the site list"
        );
        assert_eq!(
            r.engine_sent as usize,
            r.store.snapshot().engine().len(),
            "{name}: engine counter drifted from the capture store \
             (adblocked={})",
            r.adblocked
        );
        assert_eq!(
            r.native_sent as usize,
            r.store.snapshot().native().len(),
            "{name}: native counter drifted from the capture store"
        );
    }
}

#[test]
fn adblocking_browsers_suppress_rather_than_capture() {
    // The one browser shipping an on-by-default engine-side ad blocker
    // (CocCoc) must account for suppressed requests in `adblocked`,
    // not in the store: blocked requests never reach the proxy.
    let world =
        World::build(&GeneratorConfig { popular: 8, sensitive: 6, ..Default::default() });
    let config = CampaignConfig::default();

    let mut saw_adblocker = false;
    for profile in all_profiles() {
        let r = run_crawl(&world, &profile, &world.sites, &config);
        if r.adblocked > 0 {
            saw_adblocker = true;
            assert_eq!(
                r.engine_sent as usize,
                r.store.snapshot().engine().len(),
                "{}: suppressed requests leaked into the store",
                profile.name
            );
        }
    }
    assert!(saw_adblocker, "at least one profile ships an engine-side ad blocker");
}
