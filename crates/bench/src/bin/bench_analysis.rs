//! Records the analysis-path perf trajectory as `BENCH_analysis.json`.
//!
//! Measures, with plain wall-clock timing (no Criterion machinery, so
//! the numbers are trivially reproducible):
//!
//! * the full study report (flows/sec through `study_report`);
//! * `FilterList::should_block` over a 1.5k-rule list — reference
//!   linear scan vs indexed engine, interleaved rep-by-rep
//!   (matches/sec; the list is immutable shared state, so
//!   interleaving, not isolation, is the right protocol).
//!
//! All sections follow the `ab` protocol: warmup iterations are
//! excluded from every statistic, and the JSON records the protocol
//! (warmups/reps) plus per-section spread, not just the best sample.
//!
//! Usage: `bench_analysis [output.json]` (default `BENCH_analysis.json`).

use panoptes::fleet::FleetOptions;
use panoptes_analysis::summary::study_report;
use panoptes_bench::ab::{self, AbConfig, ArmStats};
use panoptes_bench::experiments::{crawl_population_jobs, idle_population_jobs, Scale};
use panoptes_bench::{mem, perf};
use panoptes_simnet::clock::SimDuration;

#[global_allocator]
static ALLOC: mem::CountingAlloc = mem::CountingAlloc;

const WARMUPS: usize = 1;
const REPS: usize = 5;

/// `"best": .., "mean": .., "p90": .."` for one sample set.
fn spread_json(stats: &ArmStats) -> String {
    format!(
        "\"best_secs\": {:.6}, \"mean_secs\": {:.6}, \"p90_secs\": {:.6}, \"samples\": {}",
        stats.best(),
        stats.mean(),
        stats.percentile(90.0),
        stats.secs.len()
    )
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_analysis.json".into());
    let protocol = AbConfig::new(WARMUPS, REPS);
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    eprintln!("building quick-scale study capture…");
    let scale = Scale { idle: SimDuration::from_secs(120), ..Scale::quick() };
    let sequential = FleetOptions::with_jobs(1);
    let (_, crawls) = crawl_population_jobs(&scale, &sequential, 15).expect("crawl");
    let idles = idle_population_jobs(&scale, &sequential, 15).expect("idle");
    let total_flows: u64 = crawls.iter().map(|r| r.store.len() as u64).sum::<u64>()
        + idles.iter().map(|r| r.store.len() as u64).sum::<u64>();

    eprintln!("full study report…");
    let mut report_len = 0usize;
    let report = ArmStats::from_samples(
        "full_report",
        ab::samples(protocol, || report_len = study_report(&crawls, &idles).len()),
    );

    eprintln!("filterlist: 1.5k rules, interleaved arms…");
    let list = perf::synthetic_filterlist(1200, 300);
    let urls = perf::filterlist_workload(2000);
    let (mut linear_hits, mut indexed_hits) = (0usize, 0usize);
    let filter = ab::interleaved(
        protocol,
        "linear",
        || linear_hits = urls.iter().filter(|(h, u)| list.should_block_linear(h, u)).count(),
        "indexed",
        || indexed_hits = urls.iter().filter(|(h, u)| list.should_block(h, u)).count(),
    );
    assert_eq!(linear_hits, indexed_hits, "filterlist engines diverged");

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"analysis\",\n",
            "  \"scale\": \"quick\",\n",
            "  \"host_cpus\": {host_cpus},\n",
            "  \"capture_flows\": {capture_flows},\n",
            "  \"protocol\": {{ \"warmups\": {warmups}, \"reps\": {reps}, \"estimator\": \"best\" }},\n",
            "  \"full_report\": {{\n",
            "    {report_spread},\n",
            "    \"flows_per_sec\": {report_rate:.0},\n",
            "    \"report_bytes\": {report_len}\n",
            "  }},\n",
            "  \"filterlist\": {{\n",
            "    \"rules\": {rules},\n",
            "    \"urls\": {url_count},\n",
            "    \"hits\": {hits},\n",
            "    \"linear\": {{ {linear_spread} }},\n",
            "    \"linear_matches_per_sec\": {linear_rate:.0},\n",
            "    \"indexed\": {{ {indexed_spread} }},\n",
            "    \"indexed_matches_per_sec\": {indexed_rate:.0},\n",
            "    \"speedup\": {filter_speedup:.2}\n",
            "  }},\n",
            "{mem}\n",
            "}}\n",
        ),
        host_cpus = host_cpus,
        capture_flows = total_flows,
        warmups = WARMUPS,
        reps = REPS,
        report_spread = spread_json(&report),
        report_rate = total_flows as f64 / report.best(),
        report_len = report_len,
        rules = list.len(),
        url_count = urls.len(),
        hits = indexed_hits,
        linear_spread = spread_json(&filter.a),
        linear_rate = urls.len() as f64 / filter.a.best(),
        indexed_spread = spread_json(&filter.b),
        indexed_rate = urls.len() as f64 / filter.b.best(),
        filter_speedup = filter.speedup_best(),
        mem = mem::report_json(),
    );

    std::fs::write(&out_path, &json).expect("write benchmark record");
    print!("{json}");
    eprintln!("wrote {out_path}");
}
