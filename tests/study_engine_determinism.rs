//! The fused study engine's headline guarantee, enforced end-to-end at
//! the workspace level: the rendered study report is **byte-identical**
//! whether the analysis runs
//!
//! * as the sequential fused single pass over stored captures
//!   ([`analyze_study`]),
//! * or inside the study runner ([`Study::run`] — one fleet pass per
//!   study, each job analysing one crawl unit as it is captured,
//!   campaigns in parallel).
//!
//! Parallelism buys wall-clock time only, never a different report. The
//! runner's live fold must also equal the stored analysis as whole
//! values, unrendered fields included, and the crawl context it builds
//! from the site list must equal the one a finished crawl records. The
//! quick-scale study document itself is pinned byte for byte to
//! `tests/golden/repro_quick.md`, so a change to any detector's shared
//! code shows up even where every path agrees. The last two tests prove
//! that the §3.2 normal arm may be taken from the population crawl
//! instead of a second crawl of the same browser.

use panoptes::fleet::{self, FleetOptions, FleetUnit};
use panoptes_analysis::engine::{
    analyze_crawl, analyze_study, AnalysisResources, CampaignAnalysis, CrawlContext, StudyAnalyses,
};
use panoptes_analysis::summary::study_report_from;
use panoptes_bench::experiments::{crawl_population_jobs, idle_population_jobs, Scale};
use panoptes_bench::render;
use panoptes_bench::study::{Analysed, Phase, Study};
use panoptes_browsers::registry::{population, profile_by_name};
use panoptes_simnet::clock::SimDuration;

/// The §3.2 browsers.
const INCOGNITO_BROWSERS: [&str; 3] = ["Edge", "Opera", "UC International"];

const IDLE: SimDuration = SimDuration::from_secs(120);

#[test]
fn fused_and_runner_reports_are_byte_identical() {
    let scale = Scale { idle: IDLE, ..Scale::quick() };
    let sequential = FleetOptions::with_jobs(1);

    let (_, crawls) = crawl_population_jobs(&scale, &sequential, 15).expect("crawl");
    let idles = idle_population_jobs(&scale, &sequential, 15).expect("idle");
    let res = AnalysisResources::standard();
    // The sequential fused pass is the reference.
    let reference = study_report_from(&analyze_study(&crawls, &idles, &res));

    // The study runner, capturing afresh, sequential and parallel. Its
    // live fold must equal the stored analysis field by field.
    let stored: Vec<CampaignAnalysis> = crawls.iter().map(|r| analyze_crawl(r, &res)).collect();
    let study = Study { scale, population: 15 };
    for jobs in [1usize, 8] {
        let mut analyses = StudyAnalyses { crawls: Vec::new(), idles: Vec::new() };
        study
            .run(&[Phase::Crawl, Phase::Idle], false, &FleetOptions::with_jobs(jobs), |phase| {
                match phase {
                    Analysed::Crawl { analyses: crawls, .. } => analyses.crawls = crawls,
                    Analysed::Idle(idles) => analyses.idles = idles,
                    Analysed::Incognito(_) => unreachable!("incognito was not selected"),
                }
            })
            .unwrap_or_else(|e| panic!("study runner failed at jobs={jobs}: {e}"));
        assert!(
            stored == analyses.crawls,
            "live fold diverged from the stored analysis at jobs={jobs}"
        );
        assert_eq!(
            reference,
            study_report_from(&analyses),
            "study runner report diverged at jobs={jobs}"
        );
    }
}

/// The premise of the live fold: the crawl context built from the site
/// list before a crawl starts equals the one its finished visit log
/// yields.
#[test]
fn context_from_the_site_list_equals_the_crawled_one() {
    let scale = Scale::quick();
    let (world, config) = (scale.world(), scale.config());
    let unit = FleetUnit::crawl(profile_by_name("Yandex").expect("a pinned browser"));
    let result = fleet::run_unit(&world, &world.sites, &config, &unit)
        .into_crawl()
        .expect("a crawl unit");
    let crawled = CrawlContext::of(&result);
    assert!(!crawled.sensitive_urls.is_empty());
    assert_eq!(CrawlContext::of_sites(&world.sites), crawled);
}

/// `repro --quick`'s stdout, every section included (identifiers,
/// sensitive, cost, incognito and idle too), rebuilt through the study
/// runner and compared with the committed golden copy. Regenerate it
/// with `cargo run --release -p panoptes-bench --bin repro -- --quick >
/// tests/golden/repro_quick.md` only when a change means to move the
/// report, and say so in the change.
#[test]
fn quick_study_document_matches_golden() {
    let scale = Scale::quick();
    let mut doc = render::header_md(&scale);
    Study { scale, population: 15 }
        .run(&Phase::ALL, false, &FleetOptions::with_jobs(2), |phase| {
            for (_, text) in phase.sections() {
                doc.push_str(&text);
            }
        })
        .expect("quick study");
    let golden = include_str!("golden/repro_quick.md");
    if doc != golden {
        let line = doc
            .lines()
            .zip(golden.lines())
            .position(|(got, want)| got != want)
            .unwrap_or_else(|| doc.lines().count().min(golden.lines().count()));
        panic!(
            "quick study document diverged from tests/golden/repro_quick.md at line {}:\n  got:    {:?}\n  golden: {:?}",
            line + 1,
            doc.lines().nth(line),
            golden.lines().nth(line),
        );
    }
}

/// The premise of the §3.2 reuse: the population crawl's unit for each
/// §3.2 browser captures exactly what a separate normal crawl of that
/// browser captures under the same config.
#[test]
fn population_crawl_of_each_incognito_browser_equals_a_recrawl() {
    let scale = Scale::quick();
    let (world, config) = (scale.world(), scale.config());
    let profiles = population(scale.seed, 15);
    let capture = |profile| {
        let unit = FleetUnit::crawl(profile);
        let output = fleet::run_unit(&world, &world.sites, &config, &unit);
        output.into_crawl().expect("a crawl unit").store.export_jsonl()
    };
    for name in INCOGNITO_BROWSERS {
        let pinned = profiles.iter().find(|p| p.name == name).expect("in the population");
        let recrawl = capture(profile_by_name(name).expect("a pinned browser"));
        assert!(!recrawl.is_empty(), "{name} captured nothing");
        assert_eq!(capture(pinned.clone()), recrawl, "{name}");
    }
}

/// The wiring of the §3.2 reuse: the full study, whose normal arms come
/// from the population crawl where it covers the browser, pairs exactly
/// the analyses that an incognito-only study, which crawls every arm
/// itself, pairs. Population 15 reuses all three normal arms; population
/// 3 lacks UC International and crawls its normal arm again.
#[test]
fn reused_normal_arms_match_an_incognito_only_study() {
    let scale = Scale::quick();
    let options = FleetOptions::with_jobs(2);
    for population in [15, 3] {
        let study = Study { scale, population };
        let pairs_of = |phases: &[Phase]| {
            let mut pairs = Vec::new();
            study
                .run(phases, false, &options, |phase| {
                    if let Analysed::Incognito(analysed) = phase {
                        pairs = analysed;
                    }
                })
                .expect("quick study");
            pairs
        };
        let reused = pairs_of(&Phase::ALL);
        let browsers: Vec<&str> = reused.iter().map(|(normal, _)| normal.browser.as_str()).collect();
        assert_eq!(browsers, INCOGNITO_BROWSERS, "population {population}");
        assert!(reused == pairs_of(&[Phase::Incognito]), "population {population}");
    }
}
