//! The metrics report's headline split, enforced end-to-end: every
//! metric classed [`Deterministic`] is a pure function of the workload,
//! so the deterministic section of the report renders **byte-identical**
//! no matter how the study executes — in order on the calling thread
//! (`--jobs 1`) or through the fleet at any worker count up to 8.
//! Runtime-class metrics (timings, worker topology, process-lifetime
//! caches) are allowed to differ and are excluded by construction.
//!
//! The same test bounds what the layer costs when it is off. Every
//! instrumentation point is one relaxed atomic load and a not-taken
//! branch, so crossing every point the capture and analysis path has,
//! at the measured disabled cost per point, must stay within 2 % of
//! that path's disabled wall time; and the path must capture the same
//! bytes with metrics and tracing on as with both off.
//!
//! Metrics are process-global and cumulative, so the whole check lives
//! in one `#[test]` (parallel test threads would interleave counts) and
//! each run is isolated via snapshot deltas.
//!
//! [`Deterministic`]: panoptes_obs::metrics::MetricClass::Deterministic

use std::time::Instant;

use panoptes::fleet::FleetOptions;
use panoptes_analysis::engine::{analyze_study, AnalysisResources};
use panoptes_bench::experiments::{crawl_population_jobs, Scale};
use panoptes_bench::study::{Phase, Study};
use panoptes_obs::metrics::{snapshot, MetricValue, MetricsSnapshot};
use panoptes_obs::report::render_deterministic;
use panoptes_obs::{trace, METRICS, TRACE};
use panoptes_simnet::clock::SimDuration;

/// Ceiling on the disabled layer's cost, in percent of the path.
const MAX_DISABLED_OVERHEAD_PCT: f64 = 2.0;

/// One instrumentation site of each kind, in the macro shapes the
/// pipeline uses. `#[inline(never)]` so the disabled branches cannot be
/// folded away across the timing loop.
#[inline(never)]
fn instrumentation_probe(i: u64) {
    panoptes_obs::count!("test.obs.probe_counter", Runtime, i & 1);
    panoptes_obs::record!("test.obs.probe_histogram", Runtime, i);
    panoptes_obs::gauge_add!("test.obs.probe_gauge", 1 - ((i & 2) as i64));
    drop(trace::span("test.obs.probe_span"));
}

/// Instrumentation points the probe crosses per call.
const PROBE_OPS: u64 = 4;

/// Calls of [`instrumentation_probe`] per timed rep.
const PROBE_CALLS: u64 = 2_000_000;

/// Instrumentation points recorded in a snapshot delta, overcounting on
/// purpose: a bulk `count!(.., n)` is charged `n` times. Gauges expose
/// no update count, so the counters paired with the queue-depth gauge
/// are charged a second time.
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
    // Every queue push and pop also moves the depth gauge.
    for name in ["simnet.queue.events_scheduled", "simnet.queue.events_fired"] {
        if let Some(MetricValue::Counter(v)) =
            delta.entries.iter().find(|e| e.name == name).map(|e| &e.value)
        {
            points += v;
        }
    }
    points
}

/// The best of `reps` wall-clock seconds of `f`.
fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn deterministic_metrics_identical_across_jobs() {
    let scale = Scale {
        popular: 8,
        sensitive: 5,
        idle: SimDuration::from_secs(120),
        ..Scale::quick()
    };
    let study = Study { scale, population: 15 };
    panoptes_obs::enable(METRICS);

    let run = |jobs: usize| {
        study
            .run(&Phase::ALL, false, &FleetOptions::with_jobs(jobs), |phase| {
                std::hint::black_box(phase.sections().len());
            })
            .unwrap_or_else(|e| panic!("study failed at jobs={jobs}: {e}"));
    };

    // Warm-up: registers every metric handle and fills the
    // process-lifetime caches (atom interner, cached site plans) so
    // all measured runs see identical cache state.
    run(1);

    let deterministic_of = |jobs: usize| {
        let before = snapshot();
        run(jobs);
        render_deterministic(&snapshot().delta(&before))
    };

    let reference = deterministic_of(1);
    for must_have in ["mitm.flows.built", "simnet.dns.queries", "blocklist.probes"] {
        assert!(
            reference.contains(must_have),
            "reference deterministic section is missing {must_have}:\n{reference}"
        );
    }

    // The same study at every worker count must tally identically,
    // byte for byte.
    for jobs in 2..=8usize {
        assert_eq!(
            reference,
            deterministic_of(jobs),
            "deterministic metrics diverged between jobs=1 and jobs={jobs}"
        );
    }

    panoptes_obs::disable(METRICS);
    disabled_layer_is_cheap_and_invisible_in_captures(&scale);
}

/// The crawl of the 15 paper browsers plus its analysis, at two
/// workers: with the layer off, the bound on its cost; with it on,
/// the same captured bytes.
fn disabled_layer_is_cheap_and_invisible_in_captures(scale: &Scale) {
    let res = AnalysisResources::standard();
    let options = FleetOptions::with_jobs(2);
    let run_path = |export: bool| -> Vec<String> {
        let (_, results) = crawl_population_jobs(scale, &options, 15).expect("crawl fleet");
        std::hint::black_box(analyze_study(&results, &[], &res).crawls.len());
        if export {
            results.iter().map(|r| r.store.export_jsonl()).collect()
        } else {
            Vec::new()
        }
    };
    run_path(false);

    let probe_secs = best_secs(3, || {
        for i in 0..PROBE_CALLS {
            instrumentation_probe(std::hint::black_box(i));
        }
    });
    let per_op_ns = probe_secs * 1e9 / (PROBE_CALLS * PROBE_OPS) as f64;
    let disabled_secs = best_secs(2, || {
        run_path(false);
    });

    let disabled = run_path(true);
    panoptes_obs::enable(METRICS | TRACE);
    let before = snapshot();
    let enabled = run_path(true);
    let delta = snapshot().delta(&before);
    let trace_events = trace::drain().len() as u64;
    panoptes_obs::disable(METRICS | TRACE);
    assert!(disabled == enabled, "the capture must be byte-identical with metrics and tracing on");

    let points = instrumentation_points(&delta) + trace_events;
    let bound_pct = 100.0 * points as f64 * per_op_ns / (disabled_secs * 1e9);
    eprintln!(
        "disabled obs layer: {points} points x {per_op_ns:.2} ns over {:.1} ms = {bound_pct:.3} %",
        disabled_secs * 1e3
    );
    assert!(
        bound_pct <= MAX_DISABLED_OVERHEAD_PCT,
        "disabled-path overhead bound {bound_pct:.3} % exceeds {MAX_DISABLED_OVERHEAD_PCT} % \
         ({points} points x {per_op_ns:.2} ns over {disabled_secs:.3} s)"
    );
}
