//! Records the observability-layer cost as `BENCH_obs.json`, and
//! validates trace files for CI.
//!
//! The claim under test: **the disabled obs layer costs the pipeline
//! nothing** — every instrumentation point is one relaxed atomic load
//! and a not-taken branch, so a `repro` run without `--metrics` /
//! `--trace-out` is byte- and time-identical to the uninstrumented
//! code. Three measurements back it:
//!
//! * **disabled per-op cost** — a microbench of the disabled macro
//!   path (`count!` + `record!` + `gauge_add!` + an inert span), giving
//!   nanoseconds per instrumentation point;
//! * **overhead bound** — the capture+study path runs once with
//!   metrics+trace enabled to *count* how many instrumentation points
//!   the path actually crosses (counter deltas, histogram samples,
//!   gauge moves, trace events); the bound is
//!   `points x per_op_ns / disabled_path_wall`, asserted ≤ 2%. This
//!   overestimates on purpose: bulk `count!(.., n)` calls are charged
//!   `n` times;
//! * **A/B wall clock** — the same path timed disabled vs enabled,
//!   interleaved rep-by-rep (informational: host noise easily exceeds
//!   the bound, which is why the assertion uses the bound, not this);
//!
//! plus two byte-identity checks: the capture (flow-store JSONL) is
//! identical with the layer enabled and disabled, and a trace document
//! survives emit → parse → re-emit byte-identically.
//!
//! Usage: `bench_obs [--quick] [output.json]`
//!        `bench_obs --validate trace.jsonl` (CI trace-schema check)

use panoptes::fleet::FleetOptions;
use panoptes_analysis::engine::{analyze_study, AnalysisResources};
use panoptes_bench::ab::{self, AbConfig};
use panoptes_bench::experiments::{crawl_population_jobs, Scale};
use panoptes_obs::metrics::{MetricValue, MetricsSnapshot};
use panoptes_obs::{trace, METRICS, TRACE};

/// One representative instrumentation site of each kind — the exact
/// macro shapes the pipeline uses. `#[inline(never)]` so the disabled
/// branches can't be folded away across the timing loop.
#[inline(never)]
fn instrumentation_probe(i: u64) {
    panoptes_obs::count!("bench.obs.probe_counter", Runtime, i & 1);
    panoptes_obs::record!("bench.obs.probe_histogram", Runtime, i);
    panoptes_obs::gauge_add!("bench.obs.probe_gauge", 1 - ((i & 2) as i64));
    drop(trace::span("bench.obs.probe_span"));
}

/// Instrumentation points the probe crosses per call.
const PROBE_OPS: u64 = 4;

/// Total instrumentation points recorded in a snapshot delta,
/// deliberately overcounting bulk adds (a `count!(.., n)` is charged
/// `n`). Gauges don't expose an update count, so the known gauge-paired
/// counters are charged a second time below.
fn instrumentation_points(delta: &MetricsSnapshot) -> u64 {
    let mut points: u64 = delta
        .entries
        .iter()
        .map(|e| match &e.value {
            MetricValue::Counter(v) => *v,
            MetricValue::Gauge { .. } => 0,
            MetricValue::Histogram { count, .. } => *count,
        })
        .sum();
    // Every queue push/pop also moves the depth gauge.
    for name in ["simnet.queue.events_scheduled", "simnet.queue.events_fired"] {
        if let Some(e) = delta.entries.iter().find(|e| e.name == name) {
            if let MetricValue::Counter(v) = &e.value {
                points += v;
            }
        }
    }
    points
}

/// `--validate`: parses a trace JSONL file, checks the schema, and
/// asserts the re-emit is byte-identical. Exits non-zero on failure.
fn validate(path: &str) -> ! {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("bench_obs --validate: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let events = match trace::parse_jsonl(&text) {
        Ok(events) => events,
        Err(e) => {
            eprintln!("bench_obs --validate: {path}: {e}");
            std::process::exit(1);
        }
    };
    let reemitted = trace::to_jsonl(&events);
    if reemitted != text {
        eprintln!("bench_obs --validate: {path}: re-emit is not byte-identical to the input");
        std::process::exit(1);
    }
    let starts = events.iter().filter(|e| e.kind == trace::EventKind::Start).count();
    let ends = events.iter().filter(|e| e.kind == trace::EventKind::End).count();
    let points = events.iter().filter(|e| e.kind == trace::EventKind::Point).count();
    if starts != ends {
        // Rings overwrite their oldest events under pressure, so a
        // start can legitimately outlive its end in a huge trace; in
        // the CI smoke trace every span must balance.
        eprintln!("bench_obs --validate: {path}: {starts} span starts vs {ends} ends");
        std::process::exit(1);
    }
    // Request-scoping invariants: a span's start and end must agree on
    // which request they served, and no span may parent on itself.
    let mut start_req = std::collections::HashMap::new();
    for e in &events {
        if e.kind == trace::EventKind::Start {
            start_req.insert(e.span, e.req);
        }
    }
    let mut scoped = 0usize;
    for e in &events {
        if e.req.is_some() {
            scoped += 1;
        }
        if e.kind == trace::EventKind::End {
            if let Some(req) = start_req.get(&e.span) {
                if *req != e.req {
                    eprintln!(
                        "bench_obs --validate: {path}: span {} ({}) starts in request \
                         {req:?} but ends in {:?}",
                        e.span, e.name, e.req
                    );
                    std::process::exit(1);
                }
            }
        }
        if e.parent == Some(e.span) {
            eprintln!(
                "bench_obs --validate: {path}: span {} ({}) parents on itself",
                e.span, e.name
            );
            std::process::exit(1);
        }
    }
    println!(
        "{path}: {} events ({starts} spans, {points} points, {scoped} request-scoped), \
         schema valid, round-trip byte-identical",
        events.len()
    );
    std::process::exit(0);
}

fn main() {
    let mut out_path = "BENCH_obs.json".to_string();
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--validate" => {
                let path = args.next().unwrap_or_else(|| {
                    eprintln!("bench_obs --validate FILE");
                    std::process::exit(2);
                });
                validate(&path);
            }
            other => out_path = other.to_string(),
        }
    }
    let (scale, reps, probe_iters) = if quick {
        (Scale { popular: 8, sensitive: 5, ..Scale::quick() }, 2, 2_000_000u64)
    } else {
        (Scale::quick(), 5, 20_000_000u64)
    };
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let res = AnalysisResources::standard();
    let options = FleetOptions::with_jobs(2);
    panoptes_obs::disable(METRICS | TRACE);

    // The capture+study path under test. Returns the per-browser flow
    // stores as JSONL for the byte-identity check.
    let run_path = |exports: Option<&mut Vec<String>>| {
        let (_, results) = crawl_population_jobs(&scale, &options, 15).expect("crawl fleet");
        std::hint::black_box(analyze_study(&results, &[], &res).crawls.len());
        if let Some(exports) = exports {
            *exports = results.iter().map(|r| r.store.export_jsonl()).collect();
        }
    };

    eprintln!("warm-up (builds the shared world)…");
    run_path(None);

    eprintln!("disabled per-op microbench ({probe_iters} probe calls)…");
    let probe_secs = ab::best_of(AbConfig::new(1, 3), || {
        for i in 0..probe_iters {
            instrumentation_probe(std::hint::black_box(i));
        }
    });
    let per_op_ns = probe_secs * 1e9 / (probe_iters * PROBE_OPS) as f64;

    eprintln!("byte-identity: capture with the layer off vs on…");
    let mut disabled_exports = Vec::new();
    run_path(Some(&mut disabled_exports));
    panoptes_obs::enable(METRICS | TRACE);
    let before = panoptes_obs::metrics::snapshot();
    let mut enabled_exports = Vec::new();
    run_path(Some(&mut enabled_exports));
    let delta = panoptes_obs::metrics::snapshot().delta(&before);
    let trace_jsonl = trace::export_jsonl();
    panoptes_obs::disable(METRICS | TRACE);
    assert_eq!(
        disabled_exports, enabled_exports,
        "capture must be byte-identical with the obs layer on"
    );
    let trace_events = trace_jsonl.lines().count() as u64;
    let roundtrip =
        trace::to_jsonl(&trace::parse_jsonl(&trace_jsonl).expect("trace parses"));
    assert_eq!(roundtrip, trace_jsonl, "trace round-trip must be byte-identical");

    let points = instrumentation_points(&delta) + trace_events;

    eprintln!("A/B wall clock: disabled vs enabled, interleaved ({reps} reps + 1 warmup)…");
    let wall = ab::interleaved(
        AbConfig::new(1, reps),
        "disabled",
        || {
            panoptes_obs::disable(METRICS | TRACE);
            run_path(None);
        },
        "enabled",
        || {
            panoptes_obs::enable(METRICS | TRACE);
            run_path(None);
            drop(trace::drain()); // keep the flush list bounded
        },
    );
    panoptes_obs::disable(METRICS | TRACE);
    let (disabled_secs, enabled_secs) = (wall.a.best(), wall.b.best());

    // The asserted claim: crossing every instrumentation point the path
    // has, at the measured disabled cost, is within 2% of the path.
    let bound_pct = 100.0 * (points as f64 * per_op_ns) / (disabled_secs * 1e9);
    let measured_pct = 100.0 * (enabled_secs - disabled_secs) / disabled_secs;
    assert!(
        bound_pct <= 2.0,
        "disabled-path overhead bound {bound_pct:.3}% exceeds 2% \
         ({points} points x {per_op_ns:.2} ns over {disabled_secs:.3}s)"
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"obs\",\n",
            "  \"scale\": \"{scale}\",\n",
            "  \"host_cpus\": {host_cpus},\n",
            "  \"disabled_per_op_ns\": {per_op_ns:.3},\n",
            "  \"instrumentation_points\": {points},\n",
            "  \"trace_events\": {trace_events},\n",
            "  \"protocol\": {{ \"warmups\": 1, \"reps\": {reps}, \"estimator\": \"best\", \"interleaved\": true }},\n",
            "  \"path_disabled_secs\": {disabled_secs:.6},\n",
            "  \"path_disabled_mean_secs\": {disabled_mean:.6},\n",
            "  \"path_enabled_secs\": {enabled_secs:.6},\n",
            "  \"path_enabled_mean_secs\": {enabled_mean:.6},\n",
            "  \"enabled_measured_overhead_pct\": {measured_pct:.3},\n",
            "  \"disabled_overhead_bound_pct\": {bound_pct:.4},\n",
            "  \"asserted\": {{\n",
            "    \"disabled_overhead_le_2pct\": true,\n",
            "    \"captures_byte_identical\": true,\n",
            "    \"trace_roundtrip_byte_identical\": true\n",
            "  }},\n",
            "  \"note\": \"bound charges bulk count!(..,n) n times and every trace event; \
             measured A/B is informational (host noise dominates at this scale)\"\n",
            "}}\n",
        ),
        scale = if quick { "smoke" } else { "quick" },
        host_cpus = host_cpus,
        per_op_ns = per_op_ns,
        points = points,
        trace_events = trace_events,
        reps = reps,
        disabled_secs = disabled_secs,
        disabled_mean = wall.a.mean(),
        enabled_secs = enabled_secs,
        enabled_mean = wall.b.mean(),
        measured_pct = measured_pct,
        bound_pct = bound_pct,
    );

    std::fs::write(&out_path, &json).expect("write benchmark record");
    print!("{json}");
    eprintln!("wrote {out_path}");
}
