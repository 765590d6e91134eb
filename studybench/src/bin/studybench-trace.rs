//! `studybench-trace`: the traced run.
//!
//! ```text
//! studybench-trace --spec paper|wide-web|served [--seeds S,S,...] [--untraced]
//! ```
//!
//! Drives the spec's studies (one per seed for `served`) through the
//! layers' public functions at the default fleet width, prints their
//! reports on stdout — byte-identical to the untraced program's — and,
//! unless `--untraced`, prints on stderr a table of each layer's self
//! time, counts and allocations followed by the per-layer metrics as
//! `metric NAME VALUE UNIT` lines. Per-layer values are per study.
//!
//! Counts are deltas of counters the program already emits; allocations
//! come from the counting allocator, installed in this process only.

use std::collections::BTreeMap;
use std::io::Write;

use panoptes::fleet::FleetOptions;
use panoptes_bench::mem::CountingAlloc;
use panoptes_obs::metrics::{self, MetricValue, MetricsSnapshot};
use studybench::spans::{self, LayerTime, Span};
use studybench::stats::ratio;
use studybench::study::{self, Allocs, StudySpec};
use studybench::Metric;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let mut spec = None;
    let mut seeds: Vec<u64> = Vec::new();
    let mut traced = true;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--spec" => spec = args.next(),
            "--seeds" => {
                seeds = args
                    .next()
                    .unwrap_or_default()
                    .split(',')
                    .map(|s| {
                        s.parse()
                            .unwrap_or_else(|_| die(&format!("bad seed {s:?}")))
                    })
                    .collect();
            }
            "--untraced" => traced = false,
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    let specs: Vec<StudySpec> = match spec.as_deref() {
        Some("paper") => vec![StudySpec::paper()],
        Some("wide-web") => vec![StudySpec::wide_web()],
        Some("served") if !seeds.is_empty() => {
            seeds.iter().map(|&s| StudySpec::served(s)).collect()
        }
        _ => die(
            "usage: studybench-trace --spec paper|wide-web|served [--seeds S,S,...] [--untraced]",
        ),
    };

    if traced {
        panoptes_obs::enable(panoptes_obs::TRACE | panoptes_obs::METRICS);
    }
    let before = metrics::snapshot();
    let mut totals = Totals::default();
    let mut stdout = std::io::stdout().lock();
    for spec in &specs {
        let run = study::run(spec, &FleetOptions::default());
        stdout.write_all(run.doc.as_bytes()).expect("write report");
        totals.hosts += run.hosts;
        totals.rendered_bytes += run.rendered_bytes;
        totals.allocs.capture += run.allocs.capture;
        totals.allocs.seal += run.allocs.seal;
        totals.allocs.analysis += run.allocs.analysis;
    }
    stdout.flush().expect("flush report");
    if !traced {
        return;
    }
    let counts = metrics::snapshot().delta(&before);
    let spans = spans::spans_from_events(&panoptes_obs::trace::drain(), "bench.");
    let layers = spans::by_name(&spans);
    eprint!("{}", layer_table(&layers, &counts, &totals.allocs));
    for metric in layer_metrics(&spans, &layers, &counts, &totals, specs.len() as f64) {
        eprintln!("{}", metric.to_line());
    }
}

#[derive(Default)]
struct Totals {
    hosts: usize,
    rendered_bytes: usize,
    allocs: Allocs,
}

/// A counter's delta, or a histogram's summed values.
fn counter(counts: &MetricsSnapshot, name: &str) -> f64 {
    counts
        .entries
        .iter()
        .filter(|e| e.name == name)
        .map(|e| match e.value {
            MetricValue::Counter(n) => n as f64,
            MetricValue::Histogram { sum, .. } => sum as f64,
            MetricValue::Gauge { .. } => 0.0,
        })
        .fold(0.0, |a, b| a + b)
}

/// Sum of the counters whose names start with `prefix` and end with
/// `suffix` (the atom interner counts per shard).
fn counter_family(counts: &MetricsSnapshot, prefix: &str, suffix: &str) -> f64 {
    counts
        .entries
        .iter()
        .filter(|e| e.name.starts_with(prefix) && e.name.ends_with(suffix))
        .map(|e| counter(counts, &e.name))
        .fold(0.0, |a, b| a + b)
}

/// The human-readable layer table: self time per span name (the root
/// `bench.study`'s self time is the unattributed remainder), then the
/// allocation counts and every counter delta.
fn layer_table(
    layers: &BTreeMap<String, LayerTime>,
    counts: &MetricsSnapshot,
    allocs: &Allocs,
) -> String {
    let mut out = format!(
        "{:<28} {:>6} {:>12} {:>12}\n",
        "layer span", "spans", "total ms", "self ms"
    );
    for (name, t) in layers {
        out.push_str(&format!(
            "{:<28} {:>6} {:>12.3} {:>12.3}\n",
            name,
            t.spans,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    out.push_str(&format!(
        "allocations: capture {} seal {} analysis {}\n",
        allocs.capture, allocs.seal, allocs.analysis
    ));
    for e in counts
        .entries
        .iter()
        .filter(|e| !matches!(e.value, MetricValue::Gauge { .. }))
    {
        out.push_str(&format!(
            "counter {} {}\n",
            e.name,
            counter(counts, &e.name)
        ));
    }
    out
}

/// The per-layer metrics of `BENCHMARK.json` that the traced run
/// measures, per study.
fn layer_metrics(
    spans: &[Span],
    layers: &BTreeMap<String, LayerTime>,
    counts: &MetricsSnapshot,
    totals: &Totals,
    studies: f64,
) -> Vec<Metric> {
    let self_ns = |name: &str| layers.get(name).map_or(0.0, |t| t.self_ns as f64);
    let ms = |name: &str| self_ns(name) / 1e6 / studies;
    let per_study = |n: f64| n / studies;
    let count = |name: &str| per_study(counter(counts, name));
    let units = |name: &str| layers.get(name).map_or(0, |t| t.spans) as f64;

    let rejects = counter(counts, "blocklist.automaton.prefilter_rejects");
    let scans = counter(counts, "blocklist.automaton.scans");
    let hits = counter_family(counts, "atom.intern.", ".hits");
    let misses = counter_family(counts, "atom.intern.", ".misses");
    let flows = counter(counts, "study.flows.observed");

    // Fleet occupancy: time inside units over the time the fleets'
    // workers existed (width × fleet wall time).
    let fleets: BTreeMap<u64, &Span> = spans
        .iter()
        .filter(|s| s.name == "bench.fleet")
        .map(|s| (s.id, s))
        .collect();
    let unit_ns: f64 = spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| fleets.contains_key(&p)))
        .map(|s| s.duration_ns() as f64)
        .sum();
    let worker_ns: f64 = fleets
        .values()
        .map(|f| {
            f.duration_ns() as f64
                * f.detail
                    .as_deref()
                    .and_then(|d| d.parse().ok())
                    .unwrap_or(1.0)
        })
        .sum();

    vec![
        Metric::new("webworld.build_ms", ms("bench.webworld.build"), "ms"),
        Metric::new("webworld.hosts", per_study(totals.hosts as f64), "count"),
        Metric::new(
            "browsers.population_ms",
            ms("bench.browsers.population"),
            "ms",
        ),
        Metric::new(
            "analysis.resources_ms",
            ms("bench.analysis.resources"),
            "ms",
        ),
        Metric::new("blocklist.probes", count("blocklist.probes"), "count"),
        Metric::new(
            "blocklist.prefilter_reject_share",
            ratio(rejects, rejects + scans),
            "ratio",
        ),
        Metric::new("capture.crawl_ms", ms("bench.capture.crawl"), "ms"),
        Metric::new("capture.idle_ms", ms("bench.capture.idle"), "ms"),
        Metric::new(
            "capture.units",
            per_study(units("bench.capture.crawl") + units("bench.capture.idle")),
            "count",
        ),
        Metric::new(
            "capture.allocs",
            per_study(totals.allocs.capture as f64),
            "count",
        ),
        Metric::new("simnet.dns.queries", count("simnet.dns.queries"), "count"),
        Metric::new(
            "simnet.tls.certs_issued",
            count("simnet.tls.certs_issued"),
            "count",
        ),
        Metric::new(
            "simnet.queue.events_fired",
            count("simnet.queue.events_fired"),
            "count",
        ),
        Metric::new("mitm.flows.built", count("mitm.flows.built"), "count"),
        Metric::new("mitm.taint.stripped", count("mitm.taint.stripped"), "count"),
        Metric::new("mitm.seal_ms", ms("bench.mitm.seal"), "ms"),
        Metric::new(
            "mitm.seal_allocs",
            per_study(totals.allocs.seal as f64),
            "count",
        ),
        Metric::new("atom.intern.hit_share", ratio(hits, hits + misses), "ratio"),
        Metric::new("analysis.crawl_ms", ms("bench.analysis.crawl"), "ms"),
        Metric::new("analysis.idle_ms", ms("bench.analysis.idle"), "ms"),
        Metric::new("analysis.flows_observed", per_study(flows), "count"),
        Metric::new(
            "analysis.ns_per_flow",
            ratio(self_ns("bench.analysis.crawl"), flows),
            "ns",
        ),
        Metric::new(
            "analysis.allocs",
            per_study(totals.allocs.analysis as f64),
            "count",
        ),
        Metric::new("render.ms", ms("bench.render"), "ms"),
        Metric::new(
            "render.bytes",
            per_study(totals.rendered_bytes as f64),
            "bytes",
        ),
        Metric::new("fleet.busy_share", ratio(unit_ns, worker_ns), "ratio"),
        Metric::new(
            "fleet.steal_wait_ms",
            count("fleet.worker.steal_wait_us") / 1e3,
            "ms",
        ),
        Metric::new("trace.unattributed_ms", ms("bench.study"), "ms"),
    ]
}

fn die(message: &str) -> ! {
    eprintln!("studybench-trace: {message}");
    std::process::exit(2);
}
