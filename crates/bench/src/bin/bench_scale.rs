//! Records the site-axis scale trajectory as `BENCH_scale.json`.
//!
//! This is the Tranco-100k raw-speed record: a cold 100k-site world
//! build plus a single-browser crawl over all 100k sites, measured
//! against a fixed peak-memory budget, and the compiled filterlist
//! automaton raced against the PR-2 indexed engine over a 100k-URL
//! workload (the automaton must clear 5× indexed).
//!
//! Usage: `bench_scale [--validate] [--sites N] [output.json]`
//!
//! * default: `--sites 100000`, writes `BENCH_scale.json`;
//! * `--validate`: CI mode — a 5k-site world and a 20k-URL filterlist
//!   workload, same schema and same budget assertions, small enough for
//!   every pipeline run.

use std::time::Instant;

use panoptes::fleet::{self, FleetOptions};
use panoptes_bench::experiments::Scale;
use panoptes_bench::{mem, perf};
use panoptes_browsers::registry::population;
use panoptes_web::generator::GeneratorConfig;
use panoptes_web::World;

#[global_allocator]
static ALLOC: mem::CountingAlloc = mem::CountingAlloc;

/// Fixed peak-RSS budget for the full 100k-site run. Documented in
/// DESIGN.md §10: the 100k world (sites + routes + interned hosts) plus
/// one browser's sealed 100k-site capture must fit in 1.5 GiB —
/// roughly 2.5× the measured ~570 MiB footprint, so regressions trip
/// the gate long before the bench machine feels it.
const PEAK_RSS_BUDGET_MIB: u64 = 1536;

/// Required automaton-vs-indexed speedup at full scale.
const REQUIRED_SPEEDUP: f64 = 5.0;

fn main() {
    let mut sites: u32 = 100_000;
    let mut validate = false;
    let mut out_path = String::from("BENCH_scale.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--validate" => validate = true,
            "--sites" => {
                sites = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--sites takes a positive integer");
            }
            other => out_path = other.to_string(),
        }
    }
    if validate {
        sites = sites.min(5_000);
    }
    let urls = if validate { 20_000 } else { 100_000 };

    let scale = Scale::paper().with_sites(sites);
    let total_sites = scale.popular + scale.sensitive + scale.tail;

    // World build: cold (`World::build`, not the shared plan cache), so
    // the number is the real cost of planning the 100k-site web.
    eprintln!("building {total_sites}-site world…");
    let build_start = Instant::now();
    let world = World::build(&GeneratorConfig {
        seed: scale.seed,
        popular: scale.popular,
        sensitive: scale.sensitive,
        tail: scale.tail,
    });
    let build_secs = build_start.elapsed().as_secs_f64();
    assert_eq!(world.sites.len(), total_sites as usize);

    // Crawl: one browser over every site — the per-browser unit of the
    // full study, at 100× the paper's web.
    let profiles = population(scale.seed, 1);
    let browser = profiles[0].name.clone();
    eprintln!("crawling {total_sites} sites as {browser}…");
    let config = scale.config();
    let crawl_start = Instant::now();
    let sequential = FleetOptions::with_jobs(1);
    let results = fleet::run_crawl_jobs_with(&world, &world.sites, &config, &sequential, &profiles)
        .expect("crawl");
    let crawl_secs = crawl_start.elapsed().as_secs_f64();
    let flows = results[0].store.len() as u64;
    assert!(flows >= total_sites as u64, "crawl captured fewer flows than sites");

    // Filterlist: automaton (should_block) vs the PR-2 indexed engine
    // over the deterministic mixed hit/miss workload.
    eprintln!("filterlist: {urls} URLs…");
    let list = perf::synthetic_filterlist(1200, 300);
    let workload = perf::filterlist_workload(urls);
    let time_best = |f: &mut dyn FnMut() -> usize| -> (f64, usize) {
        let mut best = f64::INFINITY;
        let mut sink = 0usize;
        for _ in 0..5 {
            let start = Instant::now();
            sink = f();
            best = best.min(start.elapsed().as_secs_f64());
        }
        (best, sink)
    };
    let (indexed_secs, indexed_hits) = time_best(&mut || {
        workload.iter().filter(|(h, u)| list.should_block_indexed(h, u)).count()
    });
    let (auto_secs, auto_hits) =
        time_best(&mut || workload.iter().filter(|(h, u)| list.should_block(h, u)).count());
    assert_eq!(indexed_hits, auto_hits, "filterlist engines diverged");
    let speedup = indexed_secs / auto_secs;

    let peak_rss_kib = mem::peak_rss_kib().unwrap_or(0);
    let within_budget = peak_rss_kib <= PEAK_RSS_BUDGET_MIB * 1024;

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"scale\",\n",
            "  \"mode\": \"{mode}\",\n",
            "  \"sites\": {sites},\n",
            "  \"budget\": {{\n",
            "    \"peak_rss_budget_mib\": {budget_mib},\n",
            "    \"within_budget\": {within_budget}\n",
            "  }},\n",
            "  \"world_build\": {{\n",
            "    \"secs\": {build_secs:.6},\n",
            "    \"sites_per_sec\": {build_rate:.0},\n",
            "    \"hosts\": {hosts}\n",
            "  }},\n",
            "  \"crawl\": {{\n",
            "    \"browser\": \"{browser}\",\n",
            "    \"secs\": {crawl_secs:.6},\n",
            "    \"flows\": {flows},\n",
            "    \"flows_per_sec\": {flow_rate:.0},\n",
            "    \"sites_per_sec\": {site_rate:.0}\n",
            "  }},\n",
            "  \"filterlist\": {{\n",
            "    \"rules\": {rules},\n",
            "    \"urls\": {urls},\n",
            "    \"hits\": {hits},\n",
            "    \"indexed_secs\": {indexed_secs:.6},\n",
            "    \"indexed_matches_per_sec\": {indexed_rate:.0},\n",
            "    \"automaton_secs\": {auto_secs:.6},\n",
            "    \"automaton_matches_per_sec\": {auto_rate:.0},\n",
            "    \"speedup_vs_indexed\": {speedup:.2}\n",
            "  }},\n",
            "{mem}\n",
            "}}\n",
        ),
        mode = if validate { "validate" } else { "full" },
        sites = total_sites,
        budget_mib = PEAK_RSS_BUDGET_MIB,
        within_budget = within_budget,
        build_secs = build_secs,
        build_rate = total_sites as f64 / build_secs,
        hosts = world.host_count(),
        browser = browser,
        crawl_secs = crawl_secs,
        flows = flows,
        flow_rate = flows as f64 / crawl_secs,
        site_rate = total_sites as f64 / crawl_secs,
        rules = list.len(),
        urls = workload.len(),
        hits = auto_hits,
        indexed_secs = indexed_secs,
        indexed_rate = workload.len() as f64 / indexed_secs,
        auto_secs = auto_secs,
        auto_rate = workload.len() as f64 / auto_secs,
        speedup = speedup,
        mem = mem::report_json(),
    );

    std::fs::write(&out_path, &json).expect("write benchmark record");
    print!("{json}");
    eprintln!("wrote {out_path}");

    assert!(
        within_budget,
        "peak RSS {peak_rss_kib} KiB exceeds the {PEAK_RSS_BUDGET_MIB} MiB budget"
    );
    // The ≥5× bar is the full-scale acceptance number; the validate run
    // still requires a clear win so CI catches automaton regressions.
    let bar = if validate { 2.0 } else { REQUIRED_SPEEDUP };
    assert!(
        speedup >= bar,
        "automaton speedup {speedup:.2}× below the required {bar:.0}× over indexed"
    );
}
