//! Analysis-path benchmarks.
//!
//! 1. **Full report** — the fused pass over every capture of a
//!    quick-scale study, through `study_report`.
//! 2. **Filterlist** — `should_block` over a ≥1k-rule list: the
//!    indexed engine (anchor suffix set + rare-byte substring buckets)
//!    against the reference linear scan.
//!
//! `src/bin/bench_analysis.rs` records the same comparisons as
//! `BENCH_analysis.json` for the perf trajectory.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use panoptes::fleet::FleetOptions;
use panoptes_analysis::summary::study_report;
use panoptes_bench::experiments::{crawl_population_jobs, idle_population_jobs, Scale};
use panoptes_bench::perf;
use panoptes_simnet::clock::SimDuration;

fn full_report(c: &mut Criterion) {
    let scale = Scale { idle: SimDuration::from_secs(120), ..Scale::quick() };
    let sequential = FleetOptions::with_jobs(1);
    let (_, crawls) = crawl_population_jobs(&scale, &sequential, 15).expect("crawl");
    let idles = idle_population_jobs(&scale, &sequential, 15).expect("idle");
    let total_flows: u64 = crawls.iter().map(|r| r.store.len() as u64).sum::<u64>()
        + idles.iter().map(|r| r.store.len() as u64).sum::<u64>();

    let mut group = c.benchmark_group("study_report_quick");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total_flows));
    group.bench_function("full study report (snapshot path)", |b| {
        b.iter(|| black_box(study_report(&crawls, &idles).len()))
    });
    group.finish();
}

fn filterlist(c: &mut Criterion) {
    let list = perf::synthetic_filterlist(1200, 300);
    let urls = perf::filterlist_workload(2000);
    assert!(list.len() >= 1000, "bench demands a ≥1k-rule list");

    let mut group = c.benchmark_group("filterlist_1500_rules");
    group.sample_size(10);
    group.throughput(Throughput::Elements(urls.len() as u64));
    group.bench_function("linear scan (reference)", |b| {
        b.iter(|| {
            let hits = urls
                .iter()
                .filter(|(h, u)| list.should_block_linear(h, u))
                .count();
            black_box(hits)
        })
    });
    group.bench_function("indexed (anchor set + rare-byte buckets)", |b| {
        b.iter(|| {
            let hits = urls.iter().filter(|(h, u)| list.should_block(h, u)).count();
            black_box(hits)
        })
    });
    group.finish();

    // The two engines must agree on the whole workload, every run.
    let indexed: Vec<bool> = urls.iter().map(|(h, u)| list.should_block(h, u)).collect();
    let linear: Vec<bool> =
        urls.iter().map(|(h, u)| list.should_block_linear(h, u)).collect();
    assert_eq!(indexed, linear, "engines diverged on the bench workload");
}

criterion_group!(benches, full_report, filterlist);
criterion_main!(benches);
