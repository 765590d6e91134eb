//! Population-scale determinism, enforced end-to-end at the workspace
//! level: a 64-browser study — the 15 pinned paper browsers plus 49
//! sampled variants — renders the **byte-identical** report whether the
//! campaigns run sequentially (`--jobs 1`) or across an 8-worker fleet
//! (`--jobs 8`), and through the study runner `repro` uses. The
//! sampler's determinism contract (DESIGN.md §9) and the fleet's unit
//! isolation compose: scaling the population changes how much work
//! runs, never what any browser does.
//!
//! Mirrors `tests/study_engine_determinism.rs` for the sampled
//! population.

use panoptes::fleet::FleetOptions;
use panoptes_analysis::engine::{analyze_study, AnalysisResources, StudyAnalyses};
use panoptes_analysis::summary::study_report_from;
use panoptes_bench::experiments::{crawl_population_jobs, idle_population_jobs, Scale};
use panoptes_bench::study::{Analysed, Phase, Study};
use panoptes_browsers::registry::population;
use panoptes_simnet::clock::SimDuration;

const POPULATION: usize = 64;
const IDLE: SimDuration = SimDuration::from_secs(120);

#[test]
fn population_study_reports_are_byte_identical_across_jobs() {
    let scale = Scale { idle: IDLE, ..Scale::quick() };
    let res = AnalysisResources::standard();
    assert_eq!(population(scale.seed, POPULATION).len(), POPULATION);

    // Reference: sequential capture (--jobs 1), fused analysis.
    let sequential = FleetOptions::with_jobs(1);
    let (_, crawls) =
        crawl_population_jobs(&scale, &sequential, POPULATION).expect("population crawl");
    let idles = idle_population_jobs(&scale, &sequential, POPULATION).expect("population idle");
    let reference = study_report_from(&analyze_study(&crawls, &idles, &res));

    // --jobs 8: the fleet schedules the 64 campaigns across 8 workers.
    let (_, parallel) = crawl_population_jobs(&scale, &FleetOptions::with_jobs(8), POPULATION)
        .expect("population crawl fleet");
    assert_eq!(parallel.len(), crawls.len());
    for (p, s) in parallel.iter().zip(&crawls) {
        assert_eq!(p.profile.name, s.profile.name);
        assert_eq!(
            p.store.export_jsonl(),
            s.store.export_jsonl(),
            "capture diverged at jobs=8 for {}",
            p.profile.name
        );
    }
    assert_eq!(
        reference,
        study_report_from(&analyze_study(&parallel, &idles, &res)),
        "population report diverged at jobs=8"
    );

    // `repro --population 64 --jobs 8`: the study runner captures and
    // analyses 128 units (crawl + idle per browser) itself.
    let mut analyses = StudyAnalyses { crawls: Vec::new(), idles: Vec::new() };
    Study { scale, population: POPULATION }
        .run(&[Phase::Crawl, Phase::Idle], &FleetOptions::with_jobs(8), |phase| match phase {
            Analysed::Crawl { analyses: crawls, .. } => analyses.crawls = crawls,
            Analysed::Idle(idles) => analyses.idles = idles,
            Analysed::Incognito(_) => unreachable!("incognito was not selected"),
        })
        .expect("population study");
    assert_eq!(
        reference,
        study_report_from(&analyses),
        "population report diverged in the study runner at jobs=8"
    );
}

#[test]
fn population_prefix_is_the_paper_study() {
    // The first 15 campaigns of any population run are the paper's
    // browsers with the paper's captures: a population study embeds the
    // reproduction unchanged.
    let scale = Scale { popular: 4, sensitive: 2, ..Scale::quick() };
    let sequential = FleetOptions::with_jobs(1);
    let (_, paper) = crawl_population_jobs(&scale, &sequential, 15).expect("paper crawl");
    let (_, population) = crawl_population_jobs(&scale, &sequential, 40).expect("population");
    for (a, b) in paper.iter().zip(&population) {
        assert_eq!(a.profile.name, b.profile.name);
        assert_eq!(a.store.export_jsonl(), b.store.export_jsonl(), "{}", a.profile.name);
    }
}
