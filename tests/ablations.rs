//! Ablations of three mechanisms DESIGN.md calls out: each crawl runs a
//! paper browser over a 16-site web with the mechanism on and off, and
//! checks the qualitative effect EXPERIMENTS.md reports.
//!
//! * **engine-side ad blocking** — CocCoc's easylist shrinks its engine
//!   traffic and so raises its native share;
//! * **DoH vs stub resolution** — the resolver choice alone multiplies
//!   Chrome's native requests and leaves its engine requests alone;
//! * **certificate pinning** — Samsung's pinned flows reach the capture
//!   only as opaque records, so unpinning reveals more native flows
//!   (footnote 3's lower bound).
//!
//! The taint check's spoofing defence and the guard's leak removal have
//! their own tests (`panoptes_mitm::taint` and
//! `crates/guard/tests/guard_effect.rs`).

use panoptes::campaign::{run_crawl, CampaignResult};
use panoptes::config::CampaignConfig;
use panoptes_analysis::engine::{analyze_crawl, AnalysisResources};
use panoptes_analysis::volume::VolumeRow;
use panoptes_browsers::registry::profile_by_name;
use panoptes_browsers::BrowserProfile;
use panoptes_mitm::FlowClass;
use panoptes_simnet::dns::{DohProvider, ResolverKind};
use panoptes_web::generator::GeneratorConfig;
use panoptes_web::World;

fn world() -> World {
    World::build(&GeneratorConfig { popular: 10, sensitive: 6, ..Default::default() })
}

fn crawl(world: &World, profile: &BrowserProfile) -> CampaignResult {
    run_crawl(world, profile, &world.sites, &CampaignConfig::default())
}

fn volume(result: &CampaignResult) -> VolumeRow {
    analyze_crawl(result, &AnalysisResources::standard()).volume
}

#[test]
fn engine_side_adblock_shrinks_engine_traffic_and_raises_the_native_share() {
    let world = world();
    let coccoc = profile_by_name("CocCoc").expect("a paper browser");
    let unblocked = BrowserProfile { adblock: false, ..coccoc.clone() };

    let with_block = volume(&crawl(&world, &coccoc));
    let without = volume(&crawl(&world, &unblocked));
    assert!(
        with_block.engine_requests < without.engine_requests,
        "blocking must shrink the engine share: {} vs {}",
        with_block.engine_requests,
        without.engine_requests
    );
    assert!(with_block.request_ratio > without.request_ratio);
}

#[test]
fn doh_multiplies_native_requests_and_leaves_engine_requests_alone() {
    let world = world();
    let chrome = profile_by_name("Chrome").expect("a paper browser");
    let chrome_doh =
        BrowserProfile { resolver: ResolverKind::Doh(DohProvider::Google), ..chrome.clone() };

    let stub = volume(&crawl(&world, &chrome));
    let doh = volume(&crawl(&world, &chrome_doh));
    assert!(
        doh.native_requests > stub.native_requests * 2,
        "DoH inflates native traffic: {} vs {}",
        doh.native_requests,
        stub.native_requests
    );
    assert_eq!(doh.engine_requests, stub.engine_requests);
}

#[test]
fn pinning_hides_native_flows_behind_opaque_records() {
    let world = world();
    let samsung = profile_by_name("Samsung").expect("a paper browser");
    let unpinned = BrowserProfile { pinned_domains: Vec::new(), ..samsung.clone() };

    let pinned_run = crawl(&world, &samsung);
    let open_run = crawl(&world, &unpinned);
    let pinned = pinned_run.store.snapshot();
    let open = open_run.store.snapshot();
    assert!(
        !pinned.by_class(FlowClass::PinnedOpaque).is_empty(),
        "pinned flows must appear as opaque"
    );
    assert!(
        open.native().len() > pinned.native().len(),
        "unpinning reveals more native flows: {} vs {}",
        open.native().len(),
        pinned.native().len()
    );
}
