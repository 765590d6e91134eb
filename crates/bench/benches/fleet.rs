//! Fleet executor benchmark: the paper's full study (15 browsers ×
//! crawl + idle, each unit captured and analysed by one job) at quick
//! scale, sequential (`jobs=1`) against the fleet worker pool
//! (`jobs=N`).
//! Campaign units share no mutable state, so the parallel path's
//! wall-clock speedup tracks the core count until it runs out of units
//! — while `tests/fleet_determinism.rs` proves the output stays
//! byte-identical whichever row of this bench produced it.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use panoptes::fleet::FleetOptions;
use panoptes_bench::experiments::Scale;
use panoptes_bench::study::{Phase, Study};
use panoptes_simnet::clock::SimDuration;

fn fleet_full_study(c: &mut Criterion) {
    let scale = Scale { idle: SimDuration::from_secs(120), ..Scale::quick() };
    let study = Study { scale, population: 15 };
    let parallelism = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // On a single-core host the pool can't beat sequential; still bench
    // a 4-wide pool so the executor's overhead stays visible.
    let wide = parallelism.max(4);

    let mut group = c.benchmark_group("fleet_full_study_quick");
    group.sample_size(5);
    group.throughput(Throughput::Elements(30)); // 15 crawl + 15 idle units
    for jobs in [1, 2, wide] {
        let name =
            if jobs == 1 { "jobs=1 (sequential)".to_string() } else { format!("jobs={jobs}") };
        let options = FleetOptions::with_jobs(jobs);
        group.bench_function(&name, |b| {
            b.iter(|| {
                study
                    .run(&[Phase::Crawl, Phase::Idle], false, &options, |phase| {
                        black_box(phase);
                    })
                    .expect("no unit failures")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, fleet_full_study);
criterion_main!(benches);
