//! Study-engine benchmarks: the fused single-pass engine's claims.
//!
//! 1. **Fusion** — the full study report: legacy multi-pass (one
//!    snapshot iteration per detector, ~10 per campaign) vs the fused
//!    engine (one iteration feeding every detector's `Partial`).
//! 2. **Sharding** — the fused pass split across fleet workers with
//!    ordered merge; on a single-core host this measures the partition
//!    and merge overhead the determinism guarantee costs.
//!
//! `src/bin/bench_study.rs` records the same comparisons as
//! `BENCH_study.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use panoptes::fleet::FleetOptions;
use panoptes_analysis::engine::{
    analyze_crawl_sharded, analyze_study, AnalysisResources, StudyAnalyses,
};
use panoptes_analysis::summary::{study_report_from, study_report_multipass};
use panoptes_bench::experiments::{crawl_population_jobs, idle_population_jobs, Scale};
use panoptes_simnet::clock::SimDuration;

fn study_engine(c: &mut Criterion) {
    let mut scale = Scale::quick();
    scale.idle = SimDuration::from_secs(120);
    let sequential = FleetOptions::with_jobs(1);
    let (_, crawls) = crawl_population_jobs(&scale, &sequential, 15).expect("crawl");
    let idles = idle_population_jobs(&scale, &sequential, 15).expect("idle");
    let res = AnalysisResources::standard();
    let total_flows: u64 = crawls.iter().map(|r| r.store.len() as u64).sum::<u64>()
        + idles.iter().map(|r| r.store.len() as u64).sum::<u64>();

    // Every path must render the identical bytes before being timed.
    let reference = study_report_multipass(&crawls, &idles);
    assert_eq!(
        reference,
        study_report_from(&analyze_study(&crawls, &idles, &res)),
        "fused report diverged from multipass"
    );
    for jobs in [2usize, 8] {
        let options = FleetOptions::with_jobs(jobs);
        let sharded = StudyAnalyses {
            crawls: crawls.iter().map(|r| analyze_crawl_sharded(r, &res, &options)).collect(),
            idles: idles.iter().map(panoptes_analysis::engine::analyze_idle).collect(),
        };
        assert_eq!(
            reference,
            study_report_from(&sharded),
            "sharded report diverged at jobs={jobs}"
        );
    }

    let mut group = c.benchmark_group("study_engine_quick");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total_flows));
    group.bench_function("multi-pass report (one iteration per detector)", |b| {
        b.iter(|| black_box(study_report_multipass(&crawls, &idles).len()))
    });
    group.bench_function("fused report (one iteration, every detector)", |b| {
        b.iter(|| {
            black_box(study_report_from(&analyze_study(&crawls, &idles, &res)).len())
        })
    });
    for jobs in [2usize, 4] {
        let options = FleetOptions::with_jobs(jobs);
        let name = format!("fused crawl analyses, sharded x{jobs}");
        group.bench_function(name.as_str(), |b| {
            b.iter(|| {
                for r in &crawls {
                    black_box(&analyze_crawl_sharded(r, &res, &options).volume);
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, study_engine);
criterion_main!(benches);
