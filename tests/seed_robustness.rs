//! Robustness to the workload seed: the paper's *qualitative* findings
//! must not depend on which synthetic web was generated. Two disjoint
//! seeds produce different sites, different page structures and
//! different identifiers — and identical conclusions.

use panoptes_suite::analysis::dns::ObservedResolver;
use panoptes_suite::analysis::engine::{analyze_crawl, AnalysisResources, CampaignAnalysis};
use panoptes_suite::analysis::history::LeakGranularity;
use panoptes_suite::browsers::registry::all_profiles;
use panoptes_suite::panoptes::campaign::CampaignResult;
use panoptes_suite::panoptes::config::CampaignConfig;
use panoptes_suite::panoptes::fleet::{self, FleetOptions};
use panoptes_suite::web::generator::GeneratorConfig;
use panoptes_suite::web::World;

fn study(seed: u64) -> Vec<CampaignResult> {
    let world = World::build(&GeneratorConfig { popular: 6, sensitive: 4, seed, tail: 0 });
    let config = CampaignConfig { seed, ..Default::default() };
    let sequential = FleetOptions::with_jobs(1);
    fleet::run_crawl_jobs_with(&world, &world.sites, &config, &sequential, &all_profiles())
        .expect("crawl")
}

fn analyze(results: &[CampaignResult]) -> Vec<CampaignAnalysis> {
    let res = AnalysisResources::standard();
    results.iter().map(|r| analyze_crawl(r, &res)).collect()
}

/// The §3.2 resolver split: (DoH browsers, stub browsers).
fn resolver_split(analyses: &[CampaignAnalysis]) -> (usize, usize) {
    let doh = analyses
        .iter()
        .filter(|a| matches!(a.dns.resolver, ObservedResolver::Doh(_)))
        .count();
    let stub = analyses.iter().filter(|a| a.dns.resolver == ObservedResolver::LocalStub).count();
    (doh, stub)
}

#[test]
fn qualitative_findings_are_seed_invariant() {
    let seed_a = study(0xA11CE);
    let seed_b = study(0xB0B);

    // The generated webs differ...
    let url_a = &seed_a[0].visits[5].url;
    let url_b = &seed_b[0].visits[5].url;
    assert_eq!(url_a, url_b, "site names are seed-independent by design");
    // ...but identifiers and page structures differ:
    assert_ne!(
        seed_a[0].store.export_jsonl(),
        seed_b[0].store.export_jsonl(),
        "captures must differ across seeds"
    );

    let (seed_a, seed_b) = (analyze(&seed_a), analyze(&seed_b));
    for (a, b) in seed_a.iter().zip(&seed_b) {
        assert_eq!(a.browser, b.browser);
        let la = a.leak_summary();
        let lb = b.leak_summary();
        assert_eq!(la.worst, lb.worst, "{}: leak class flipped across seeds", a.browser);
        assert_eq!(la.destinations, lb.destinations, "{}: destinations changed", a.browser);
        assert_eq!(la.persistent, lb.persistent, "{}", a.browser);
        assert_eq!(la.via_injection, lb.via_injection, "{}", a.browser);

        // The Table 2 row is identical too.
        let fields_a: Vec<_> = a.pii.leaked.iter().map(|(f, _)| *f).collect();
        let fields_b: Vec<_> = b.pii.leaked.iter().map(|(f, _)| *f).collect();
        assert_eq!(fields_a, fields_b, "{}: Table 2 row changed across seeds", a.browser);
    }

    // And so is the DoH split.
    assert_eq!(resolver_split(&seed_a), resolver_split(&seed_b));
}

#[test]
fn yandex_identifier_differs_across_seeds_but_class_does_not() {
    // The persistent identifier is per-install (seeded), so two installs
    // carry different IDs — yet both are detected as persistent tracking.
    let a = analyze(&study(1));
    let b = analyze(&study(2));
    let find_id = |analyses: &[CampaignAnalysis]| -> String {
        analyses
            .iter()
            .find(|a| a.browser == "Yandex")
            .and_then(|a| a.history_leaks.iter().find_map(|l| l.persistent_id.clone()))
            .expect("yandex id detected")
    };
    let id_a = find_id(&a);
    let id_b = find_id(&b);
    assert_ne!(id_a, id_b, "different installs, different identifiers");
    assert_eq!(id_a.len(), 64);
    // And the granularity classification is stable.
    for analyses in [&a, &b] {
        let yandex = analyses.iter().find(|a| a.browser == "Yandex").unwrap();
        assert_eq!(yandex.leak_summary().worst, Some(LeakGranularity::FullUrl));
    }
}
