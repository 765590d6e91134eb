//! The fused study engine's headline guarantee, enforced end-to-end at
//! the workspace level: the rendered study report is **byte-identical**
//! whether the analysis runs
//!
//! * as the sequential fused single pass ([`analyze_study`]),
//! * campaign-parallel or sharded across any fleet worker count,
//! * or inside the study runner ([`Study::run`] — one capture fleet,
//!   then one analysis fleet, per phase).
//!
//! Parallelism buys wall-clock time only, never a different report. The
//! quick-scale study document itself is pinned byte for byte to
//! `tests/golden/repro_quick.md`, so a change to any detector's shared
//! code shows up even where every path agrees.

use panoptes::fleet::FleetOptions;
use panoptes_analysis::engine::{
    analyze_crawl_sharded, analyze_idle_sharded, analyze_study, analyze_study_jobs,
    AnalysisResources, StudyAnalyses,
};
use panoptes_analysis::summary::study_report_from;
use panoptes_bench::experiments::{crawl_population_jobs, idle_population_jobs, Scale};
use panoptes_bench::render;
use panoptes_bench::study::{Analysed, Phase, Study};
use panoptes_simnet::clock::SimDuration;

const IDLE: SimDuration = SimDuration::from_secs(120);

#[test]
fn fused_sharded_and_runner_reports_are_byte_identical() {
    let scale = Scale { idle: IDLE, ..Scale::quick() };
    let sequential = FleetOptions::with_jobs(1);

    let (_, crawls) = crawl_population_jobs(&scale, &sequential, 15).expect("crawl");
    let idles = idle_population_jobs(&scale, &sequential, 15).expect("idle");
    let res = AnalysisResources::standard();
    // The sequential fused pass is the reference.
    let reference = study_report_from(&analyze_study(&crawls, &idles, &res));

    // Campaign-level parallel analysis over the same captures.
    for jobs in [2usize, 8] {
        let analyses = analyze_study_jobs(&crawls, &idles, &res, &FleetOptions::with_jobs(jobs))
            .unwrap_or_else(|e| panic!("campaign-parallel analysis failed at jobs={jobs}: {e}"));
        assert_eq!(
            reference,
            study_report_from(&analyses),
            "campaign-parallel report diverged at jobs={jobs}"
        );
    }

    // Flow-level sharding of the fused pass inside each campaign.
    for jobs in [3usize, 8] {
        let options = FleetOptions::with_jobs(jobs);
        let sharded = StudyAnalyses {
            crawls: crawls.iter().map(|r| analyze_crawl_sharded(r, &res, &options)).collect(),
            idles: idles.iter().map(|r| analyze_idle_sharded(r, &options)).collect(),
        };
        assert_eq!(
            reference,
            study_report_from(&sharded),
            "flow-sharded report diverged at jobs={jobs}"
        );
    }

    // The study runner, capturing afresh, sequential and parallel.
    let study = Study { scale, population: 15 };
    for jobs in [1usize, 8] {
        let mut analyses = StudyAnalyses { crawls: Vec::new(), idles: Vec::new() };
        study
            .run(&[Phase::Crawl, Phase::Idle], &FleetOptions::with_jobs(jobs), |phase| {
                match phase {
                    Analysed::Crawl { analyses: crawls, .. } => analyses.crawls = crawls,
                    Analysed::Idle(idles) => analyses.idles = idles,
                    Analysed::Incognito(_) => unreachable!("incognito was not selected"),
                }
            })
            .unwrap_or_else(|e| panic!("study runner failed at jobs={jobs}: {e}"));
        assert_eq!(
            reference,
            study_report_from(&analyses),
            "study runner report diverged at jobs={jobs}"
        );
    }
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
        .run(&Phase::ALL, &FleetOptions::with_jobs(2), |phase| {
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
