//! Records population-scale study throughput as `BENCH_population.json`.
//!
//! The behaviour-model space lets a study run over hundreds of sampled
//! browsers instead of the paper's 15 pinned ones. This bench measures
//! how the crawl fleet scales with population size: for each N it runs
//! the N-browser population crawl at quick scale with 1 worker and with
//! 8 workers, recording wall-clock seconds, browsers/sec throughput,
//! and the jobs-8-vs-1 speedup.
//!
//! Before timing, it asserts the jobs-8 run produces byte-identical
//! captures to the sequential run for the largest N — the determinism
//! contract the sampler and fleet guarantee together.
//!
//! Usage: `bench_population [--quick] [output.json]`
//! (default `BENCH_population.json`; `--quick` is the CI smoke scale).

use std::time::Instant;

use panoptes::fleet::FleetOptions;
use panoptes_bench::experiments::{crawl_population_jobs, Scale};

fn main() {
    let mut out_path = "BENCH_population.json".to_string();
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            other => out_path = other.to_string(),
        }
    }
    // Full run: the study's quick scale over the issue's N ladder.
    // --quick: a CI smoke scale with a shorter ladder.
    let (scale, ns): (Scale, &[usize]) = if quick {
        (Scale { popular: 6, sensitive: 4, ..Scale::quick() }, &[15, 64])
    } else {
        (Scale::quick(), &[15, 100, 500])
    };
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (jobs_1, jobs_8) = (FleetOptions::with_jobs(1), FleetOptions::with_jobs(8));

    // Determinism check at the largest N: the 8-worker fleet must
    // produce the same captures in the same (population) order as the
    // sequential run.
    let n_check = *ns.last().unwrap();
    eprintln!("validating jobs-8 vs sequential captures at N={n_check}…");
    let (_, sequential) = crawl_population_jobs(&scale, &jobs_1, n_check).expect("crawl");
    let (_, parallel) = crawl_population_jobs(&scale, &jobs_8, n_check).expect("crawl fleet");
    assert_eq!(sequential.len(), parallel.len());
    for (s, p) in sequential.iter().zip(&parallel) {
        assert_eq!(s.profile.name, p.profile.name);
        assert_eq!(
            s.store.export_jsonl(),
            p.store.export_jsonl(),
            "jobs-8 capture diverged for {}",
            s.profile.name
        );
    }
    drop(sequential);
    drop(parallel);

    let mut rows = String::new();
    for (i, &n) in ns.iter().enumerate() {
        eprintln!("population N={n}: sequential crawl…");
        let start = Instant::now();
        let (_, results) = crawl_population_jobs(&scale, &jobs_1, n).expect("crawl");
        let jobs1_secs = start.elapsed().as_secs_f64();
        let flows: u64 = results.iter().map(|r| r.store.len() as u64).sum();
        drop(results);

        eprintln!("population N={n}: 8-worker crawl…");
        let start = Instant::now();
        let (_, results) = crawl_population_jobs(&scale, &jobs_8, n).expect("crawl fleet");
        let jobs8_secs = start.elapsed().as_secs_f64();
        drop(results);

        rows.push_str(&format!(
            concat!(
                "    {{\n",
                "      \"population\": {n},\n",
                "      \"flows\": {flows},\n",
                "      \"jobs_1_secs\": {jobs1:.6},\n",
                "      \"jobs_8_secs\": {jobs8:.6},\n",
                "      \"jobs_1_browsers_per_sec\": {tput1:.2},\n",
                "      \"jobs_8_browsers_per_sec\": {tput8:.2},\n",
                "      \"speedup_8_vs_1\": {speedup:.2}\n",
                "    }}{comma}\n",
            ),
            n = n,
            flows = flows,
            jobs1 = jobs1_secs,
            jobs8 = jobs8_secs,
            tput1 = n as f64 / jobs1_secs,
            tput8 = n as f64 / jobs8_secs,
            speedup = jobs1_secs / jobs8_secs,
            comma = if i + 1 == ns.len() { "" } else { "," },
        ));
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"population\",\n",
            "  \"scale\": \"{scale}\",\n",
            "  \"host_cpus\": {host_cpus},\n",
            "  \"seed\": {seed},\n",
            "  \"byte_identical_jobs_8_at_n\": {n_check},\n",
            "  \"runs\": [\n",
            "{rows}",
            "  ],\n",
            "  \"note\": \"population = 15 pinned paper browsers + deterministically sampled variants; on a {host_cpus}-cpu host the jobs-8 rows measure fleet scheduling overhead, scaling needs cores\"\n",
            "}}\n",
        ),
        scale = if quick { "smoke" } else { "quick" },
        host_cpus = host_cpus,
        seed = scale.seed,
        n_check = n_check,
        rows = rows,
    );

    std::fs::write(&out_path, &json).expect("write benchmark record");
    print!("{json}");
    eprintln!("wrote {out_path}");
}
