//! Records the study-server perf trajectory as `BENCH_serve.json`.
//!
//! Drives a real in-process server over TCP with a wave of concurrent
//! study requests — many distinct seeds, several repeats per seed, all
//! clients connecting at once — twice: once with the shared-artifact
//! cache disabled (every request builds its world, population,
//! filterlist and document from scratch) and once with the cache
//! enabled. Per the `panoptes_bench::ab` protocol the arms are
//! isolated (fresh server, fresh pool, fresh cache per arm) and the
//! warmup requests use a sentinel seed outside the measured set, so
//! the cached arm's hit ratio reflects the measured load only.
//!
//! Reported per arm: request throughput, time-to-first-event and
//! completion-latency percentiles, cache hit/miss/eviction counts, and
//! peak RSS. The run asserts every response is byte-identical across
//! repeats *and* across arms, and (the perf gate) that the shared
//! cache clears a throughput floor over the cache-disabled baseline.
//!
//! Usage: `bench_serve [--validate] [output.json]`
//! (`--validate` is the CI smoke mode: a smaller wave and a relaxed
//! speedup floor for noisy shared hosts).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use panoptes_bench::ab::{percentile, ArmStats};
use panoptes_bench::mem;
use panoptes_obs::trace;
use panoptes_serve::client::{self, StudyCapture};
use panoptes_serve::doctor;
use panoptes_serve::server::{self, ServerConfig};
use panoptes_serve::study::StudyParams;

#[global_allocator]
static ALLOC: mem::CountingAlloc = mem::CountingAlloc;

/// The measured load shape.
struct Load {
    params: StudyParams,
    seeds: Vec<u64>,
    repeats: usize,
    warmups: usize,
}

impl Load {
    fn requests(&self) -> usize {
        self.seeds.len() * self.repeats
    }

    fn query(&self, seed: u64) -> String {
        format!(
            "/study?seed={seed}&popular={}&sensitive={}&population={}&idle={}",
            self.params.popular,
            self.params.sensitive,
            self.params.population,
            self.params.idle_secs
        )
    }
}

/// One arm's aggregated measurements.
struct ArmReport {
    label: &'static str,
    wall_secs: f64,
    ttfe: ArmStats,
    total: ArmStats,
    replays: usize,
    cache: Option<panoptes_serve::cache::CacheStats>,
    peak_rss_kib_after: u64,
}

fn main() {
    let mut out_path = "BENCH_serve.json".to_string();
    let mut validate = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--validate" => validate = true,
            other => out_path = other.to_string(),
        }
    }

    let params = StudyParams {
        popular: 8,
        sensitive: 5,
        tail: 0,
        population: 6,
        idle_secs: 60,
        ..StudyParams::default()
    };
    let load = if validate {
        Load {
            params,
            seeds: (0..4).map(|i| 0x5EED + i).collect(),
            repeats: 3,
            warmups: 2,
        }
    } else {
        Load {
            params,
            seeds: (0..20).map(|i| 0x5EED + i).collect(),
            repeats: 5,
            warmups: 3,
        }
    };
    // The honest floor: document replays are near-free, so with R
    // repeats per seed the cached arm does 1/R of the unit work. 2x is
    // the full-run gate; --validate keeps a margin for noisy CI hosts.
    let speedup_floor = if validate { 1.2 } else { 2.0 };
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (workers, max_active, max_waiting) = (4, 8, 512);

    // Reference documents per seed, filled by the first arm, checked by
    // the second: byte-identity across arms is part of the bench.
    let mut reference_docs: HashMap<u64, String> = HashMap::new();

    let mut arms = Vec::new();
    for (label, budget) in [("no_cache", None), ("shared_cache", Some(256u64 << 20))] {
        eprintln!(
            "arm {label}: {} requests ({} seeds x {} repeats), {} warmup…",
            load.requests(),
            load.seeds.len(),
            load.repeats,
            load.warmups
        );
        let config = ServerConfig {
            workers,
            cache_budget: budget,
            max_active,
            max_waiting,
            ..ServerConfig::default()
        };
        arms.push(run_arm(label, config, &load, &mut reference_docs));
    }

    let base = &arms[0];
    let cached = &arms[1];
    let base_rps = load.requests() as f64 / base.wall_secs;
    let cached_rps = load.requests() as f64 / cached.wall_secs;
    let speedup = cached_rps / base_rps;
    eprintln!(
        "throughput: {base_rps:.2} req/s uncached vs {cached_rps:.2} req/s cached ({speedup:.2}x)"
    );
    if speedup < speedup_floor {
        eprintln!(
            "bench_serve: FAIL: shared-cache speedup {speedup:.2}x below the {speedup_floor}x floor"
        );
        std::process::exit(1);
    }

    eprintln!("trace probe: doctor waterfall over a traced wave…");
    let trace_path = format!("{}_trace.jsonl", out_path.trim_end_matches(".json"));
    let probe = traced_probe(&load, workers, &trace_path);

    let arm_rows: String = arms
        .iter()
        .map(|arm| {
            let cache_json = match &arm.cache {
                Some(stats) => {
                    let lookups = stats.hits + stats.misses;
                    format!(
                        "{{\n      \"hits\": {},\n      \"misses\": {},\n      \"evictions\": {},\n      \"hit_ratio\": {:.3},\n      \"doc_replays\": {}\n    }}",
                        stats.hits,
                        stats.misses,
                        stats.evictions,
                        if lookups == 0 { 0.0 } else { stats.hits as f64 / lookups as f64 },
                        arm.replays
                    )
                }
                None => "null".to_string(),
            };
            format!(
                concat!(
                    "  \"{label}\": {{\n",
                    "    \"wall_secs\": {wall:.6},\n",
                    "    \"req_per_sec\": {rps:.3},\n",
                    "    \"samples\": {samples},\n",
                    "    \"ttfe_ms\": {{ \"p50\": {tp50:.3}, \"p99\": {tp99:.3}, \"mean\": {tmean:.3} }},\n",
                    "    \"completion_ms\": {{ \"p50\": {cp50:.3}, \"p99\": {cp99:.3}, \"mean\": {cmean:.3} }},\n",
                    "    \"peak_rss_kib_after\": {rss},\n",
                    "    \"cache\": {cache}\n",
                    "  }},\n",
                ),
                label = arm.label,
                wall = arm.wall_secs,
                rps = load.requests() as f64 / arm.wall_secs,
                samples = arm.ttfe.secs.len(),
                tp50 = 1e3 * percentile(&arm.ttfe.secs, 50.0),
                tp99 = 1e3 * percentile(&arm.ttfe.secs, 99.0),
                tmean = 1e3 * arm.ttfe.mean(),
                cp50 = 1e3 * percentile(&arm.total.secs, 50.0),
                cp99 = 1e3 * percentile(&arm.total.secs, 99.0),
                cmean = 1e3 * arm.total.mean(),
                rss = arm.peak_rss_kib_after,
                cache = cache_json,
            )
        })
        .collect();

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"serve\",\n",
            "  \"mode\": \"{mode}\",\n",
            "  \"host_cpus\": {host_cpus},\n",
            "  \"server\": {{ \"workers\": {workers}, \"max_active\": {max_active}, \"max_waiting\": {max_waiting} }},\n",
            "  \"study\": {{ \"popular\": {popular}, \"sensitive\": {sensitive}, \"population\": {population}, \"idle_secs\": {idle} }},\n",
            "  \"load\": {{ \"seeds\": {seeds}, \"repeats\": {repeats}, \"requests\": {requests}, \"warmup_requests\": {warmups}, \"concurrent\": true }},\n",
            "{arm_rows}",
            "  \"throughput_speedup\": {speedup:.2},\n",
            "  \"speedup_floor\": {floor},\n",
            "  \"byte_identical\": {{ \"across_repeats\": true, \"across_arms\": true }},\n",
            "  \"timing_trailers\": {{ \"present\": true, \"reconciled\": true }},\n",
            "  \"trace_probe\": {{ \"requests\": {probe_requests}, \"trace_events\": {probe_events}, \"doctor_validated\": true, \"trace_file\": \"{trace_path}\" }},\n",
            "{mem}\n",
            "}}\n",
        ),
        mode = if validate { "validate" } else { "full" },
        host_cpus = host_cpus,
        workers = workers,
        max_active = max_active,
        max_waiting = max_waiting,
        popular = load.params.popular,
        sensitive = load.params.sensitive,
        population = load.params.population,
        idle = load.params.idle_secs,
        seeds = load.seeds.len(),
        repeats = load.repeats,
        requests = load.requests(),
        warmups = load.warmups,
        arm_rows = arm_rows,
        speedup = speedup,
        floor = speedup_floor,
        probe_requests = probe.requests,
        probe_events = probe.events,
        trace_path = trace_path,
        mem = mem::report_json(),
    );

    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("bench_serve: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    print!("{json}");
    eprintln!("wrote {out_path}");
}

/// What the post-measurement trace probe saw.
struct TraceProbe {
    requests: usize,
    events: usize,
}

/// Re-runs a small concurrent wave on a fresh TRACE-enabled server,
/// drains the trace, and has the doctor reconstruct and validate the
/// per-request waterfalls (every event request-scoped, every timing
/// trailer reconciling with its measured completion). Writes the trace
/// JSONL next to the bench record so CI can run `panoptes-doctor
/// --check` and `bench_obs --validate` on a real concurrent artifact.
fn traced_probe(load: &Load, workers: usize, trace_path: &str) -> TraceProbe {
    drop(trace::drain());
    let config = ServerConfig {
        workers,
        cache_budget: Some(64 << 20),
        trace: true,
        ..ServerConfig::default()
    };
    let handle = match server::spawn(0, config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("bench_serve: trace probe: server spawn failed: {e}");
            std::process::exit(1);
        }
    };
    let addr = handle.addr;

    // Two seeds, two clients each, all concurrent: exercises both the
    // single-flight build and the waited-hit replay under tracing.
    let queries: Vec<String> = load
        .seeds
        .iter()
        .take(2)
        .flat_map(|&seed| [load.query(seed), load.query(seed)])
        .collect();
    let want = queries.len();
    let threads: Vec<_> = queries
        .into_iter()
        .map(|query| std::thread::spawn(move || client::collect_study(addr, &query)))
        .collect();
    for thread in threads {
        match thread.join() {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => {
                eprintln!("bench_serve: trace probe request failed: {e}");
                std::process::exit(1);
            }
            Err(_) => {
                eprintln!("bench_serve: trace probe client panicked");
                std::process::exit(1);
            }
        }
    }
    handle.shutdown();
    panoptes_obs::disable(panoptes_obs::TRACE);

    // Handlers flush their rings after each connection (or on exit at
    // shutdown) and pool workers on engine drop, all trailing the
    // clients slightly — poll-drain.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut events = Vec::new();
    loop {
        events.extend(trace::drain());
        let roots = events
            .iter()
            .filter(|e| e.name == "serve.request" && e.kind == trace::EventKind::End)
            .count();
        let trailers = events.iter().filter(|e| e.name == "serve.timing").count();
        if roots >= want && trailers >= want {
            break;
        }
        if Instant::now() >= deadline {
            eprintln!("bench_serve: trace probe: trace incomplete ({roots}/{want} requests)");
            std::process::exit(1);
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    for e in events.iter().filter(|e| e.name.starts_with("serve.")) {
        if e.req.is_none() {
            eprintln!("bench_serve: trace probe: unscoped serve event {}", e.name);
            std::process::exit(1);
        }
    }
    let report = doctor::analyze(&events);
    if report.requests.len() != want {
        eprintln!(
            "bench_serve: trace probe: doctor saw {} requests, expected {want}",
            report.requests.len()
        );
        std::process::exit(1);
    }
    if let Err(e) = report.validate(2_000) {
        eprintln!("bench_serve: trace probe: waterfall does not reconcile: {e}");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(trace_path, trace::to_jsonl(&events)) {
        eprintln!("bench_serve: trace probe: cannot write {trace_path}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "trace probe: {want} requests, {} events, doctor waterfall validated; wrote {trace_path}",
        events.len()
    );
    TraceProbe { requests: want, events: events.len() }
}

/// Spins up a fresh server, runs the warmup + measured wave, tears the
/// server down, and checks byte-identity against `reference_docs`
/// (filling it on the first arm).
fn run_arm(
    label: &'static str,
    config: ServerConfig,
    load: &Load,
    reference_docs: &mut HashMap<u64, String>,
) -> ArmReport {
    let handle = match server::spawn(0, config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("bench_serve: server spawn failed: {e}");
            std::process::exit(1);
        }
    };
    let addr = handle.addr;

    // Arm isolation, asserted rather than assumed: a fresh server means
    // a cold cache (no hits, misses, bytes) and an idle engine. Without
    // this, a shared cache would let the first arm warm artifacts for
    // the second and corrupt the A/B.
    let engine = handle.engine();
    if let Some(stats) = engine.cache().map(|c| c.stats()) {
        if stats.hits != 0 || stats.misses != 0 || stats.evictions != 0 {
            eprintln!("bench_serve: arm {label} started with a warm cache: {stats:?}");
            std::process::exit(1);
        }
    }
    if engine.cache().map(|c| c.used_bytes()).unwrap_or(0) != 0
        || engine.lanes() != 0
        || engine.queue_depth() != 0
    {
        eprintln!("bench_serve: arm {label} started on a non-idle engine");
        std::process::exit(1);
    }

    // Warmup requests on a sentinel seed outside the measured set:
    // warms thread stacks, allocator arenas and the process-wide
    // artifact paths without pre-populating the measured seeds' cache
    // entries. Excluded from all statistics.
    for i in 0..load.warmups {
        let query = load.query(0xDEAD_0000 + i as u64);
        if let Err(e) = client::collect_study(addr, &query) {
            eprintln!("bench_serve: warmup request failed: {e}");
            std::process::exit(1);
        }
    }

    // The measured wave: every request in flight at once, seeds
    // round-robined so identical seeds land spread across the wave.
    let mut queries: Vec<(u64, String)> = Vec::with_capacity(load.requests());
    for _ in 0..load.repeats {
        for &seed in &load.seeds {
            queries.push((seed, load.query(seed)));
        }
    }
    let wave_start = Instant::now();
    let threads: Vec<_> = queries
        .iter()
        .map(|(seed, query)| {
            let (seed, query) = (*seed, query.clone());
            std::thread::spawn(move || (seed, client::collect_study(addr, &query)))
        })
        .collect();
    let mut captures: Vec<(u64, StudyCapture)> = Vec::with_capacity(threads.len());
    for thread in threads {
        match thread.join() {
            Ok((seed, Ok(capture))) => captures.push((seed, capture)),
            Ok((_, Err(e))) => {
                eprintln!("bench_serve: study request failed on arm {label}: {e}");
                std::process::exit(1);
            }
            Err(_) => {
                eprintln!("bench_serve: client thread panicked on arm {label}");
                std::process::exit(1);
            }
        }
    }
    let wall_secs = wave_start.elapsed().as_secs_f64();

    // Every response carries a timing trailer whose phase attribution
    // reconciles with the server-measured completion (other_us absorbs
    // the remainder, so overshoot can only be clock granularity).
    for (seed, capture) in &captures {
        let Some(t) = capture.timing else {
            eprintln!("bench_serve: seed {seed:#x} on arm {label}: no timing trailer");
            std::process::exit(1);
        };
        let sum = t.phase_sum();
        if !(sum == t.total_us || (t.other_us == 0 && sum - t.total_us <= 2_000)) {
            eprintln!(
                "bench_serve: seed {seed:#x} on arm {label}: phases sum {sum}us \
                 vs total {}us",
                t.total_us
            );
            std::process::exit(1);
        }
        if t.ttfe_us > t.total_us || t.cached != capture.cached {
            eprintln!("bench_serve: seed {seed:#x} on arm {label}: inconsistent trailer");
            std::process::exit(1);
        }
    }

    // Byte-identity: within this arm every repeat of a seed must match,
    // and across arms the first arm's documents are the reference.
    for (seed, capture) in &captures {
        match reference_docs.get(seed) {
            Some(reference) if reference != &capture.doc => {
                eprintln!("bench_serve: seed {seed:#x} diverged on arm {label}");
                std::process::exit(1);
            }
            Some(_) => {}
            None => {
                reference_docs.insert(*seed, capture.doc.clone());
            }
        }
    }

    let ttfe: Vec<f64> = captures.iter().map(|(_, c)| c.ttfe.as_secs_f64()).collect();
    let total: Vec<f64> = captures
        .iter()
        .map(|(_, c)| c.total.as_secs_f64())
        .collect();
    let replays = captures.iter().filter(|(_, c)| c.cached).count();
    let cache = handle.engine().cache().map(|c| c.stats());
    handle.shutdown();
    match &cache {
        Some(stats) => eprintln!(
            "arm {label}: wall {wall_secs:.2}s, {replays} doc replays, \
             {} hits / {} misses / {} evictions",
            stats.hits, stats.misses, stats.evictions
        ),
        None => eprintln!("arm {label}: wall {wall_secs:.2}s"),
    }
    ArmReport {
        label,
        wall_secs,
        ttfe: ArmStats::from_samples("ttfe", ttfe),
        total: ArmStats::from_samples("completion", total),
        replays,
        cache,
        peak_rss_kib_after: mem::peak_rss_kib().unwrap_or(0),
    }
}
