//! Records the study-engine perf trajectory as `BENCH_study.json`.
//!
//! Measures, with plain wall-clock timing (no Criterion machinery, so
//! the numbers are trivially reproducible):
//!
//! * **single-thread fusion** — the full study report built by the
//!   legacy multi-pass path (one snapshot iteration per detector,
//!   ~10 per campaign) vs the fused engine (one iteration feeding
//!   every detector). Both run over warm captures, so the comparison
//!   isolates the pass structure itself;
//! * **sharded fusion** — the fused pass split across 1/2/4/8 fleet
//!   workers. `host_cpus` is recorded next to the timings: on a
//!   single-core host the jobs>1 rows measure partition + merge
//!   overhead, not scaling.
//!
//! Before reporting anything it asserts every path renders the exact
//! same report bytes.
//!
//! Usage: `bench_study [--quick] [output.json]`
//! (default `BENCH_study.json`; `--quick` is the CI smoke scale).

use panoptes::fleet::FleetOptions;
use panoptes_analysis::engine::{
    analyze_crawl_sharded, analyze_idle_sharded, analyze_study, AnalysisResources, StudyAnalyses,
};
use panoptes_analysis::summary::{study_report_from, study_report_multipass};
use panoptes_bench::ab::{self, AbConfig};
use panoptes_bench::experiments::{crawl_population_jobs, idle_population_jobs, Scale};
use panoptes_bench::mem;
use panoptes_simnet::clock::SimDuration;

#[global_allocator]
static ALLOC: mem::CountingAlloc = mem::CountingAlloc;

/// Best-of-`reps` for two alternatives over the shared warm captures:
/// `ab::interleaved` with one excluded warmup per arm, so neither arm
/// pays the fact-memo warm-up the other then benefits from, and host
/// drift hits both sides equally.
fn time_best_pair<FA: FnMut(), FB: FnMut()>(reps: usize, a: FA, b: FB) -> (f64, f64) {
    let outcome = ab::interleaved(AbConfig::new(1, reps), "a", a, "b", b);
    (outcome.a.best(), outcome.b.best())
}

fn main() {
    let mut out_path = "BENCH_study.json".to_string();
    let mut quick = false;
    let mut sites: Option<u32> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--sites" => {
                sites = Some(args.next().and_then(|v| v.parse().ok()).expect("--sites N"));
            }
            other => out_path = other.to_string(),
        }
    }
    // Full run: the study's quick scale. --quick: a CI smoke scale.
    let (mut scale, reps) = if quick {
        (Scale { popular: 8, sensitive: 5, ..Scale::quick() }, 3)
    } else {
        (Scale::quick(), 15)
    };
    scale.idle = SimDuration::from_secs(120);
    if let Some(n) = sites {
        // Deep-tail sites beyond the head set — the study then runs at
        // `--sites N` scale through every path below (fused, sharded),
        // still asserting byte-identical reports.
        scale = scale.with_sites(n);
    }
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let res = AnalysisResources::standard();
    let shard_jobs = [1usize, 2, 4, 8];

    eprintln!("capturing the study ({} + {} sites)…", scale.popular, scale.sensitive);
    let options = FleetOptions::default();
    let (_, results) = crawl_population_jobs(&scale, &options, 15).expect("crawl fleet");
    let idles = idle_population_jobs(&scale, &options, 15).expect("idle fleet");
    let flows: u64 = results.iter().map(|r| r.store.len() as u64).sum::<u64>()
        + idles.iter().map(|r| r.store.len() as u64).sum::<u64>();

    eprintln!("validating: every path renders the identical report…");
    let reference = study_report_multipass(&results, &idles);
    let fused = study_report_from(&analyze_study(&results, &idles, &res));
    assert_eq!(reference, fused, "fused report diverged from multipass");
    for jobs in shard_jobs {
        let options = FleetOptions::with_jobs(jobs);
        let sharded = StudyAnalyses {
            crawls: results.iter().map(|r| analyze_crawl_sharded(r, &res, &options)).collect(),
            idles: idles.iter().map(|r| analyze_idle_sharded(r, &options)).collect(),
        };
        assert_eq!(
            reference,
            study_report_from(&sharded),
            "sharded report diverged at jobs={jobs}"
        );
    }

    // Captures are warm from the validation pass (snapshots sealed,
    // per-flow facts memoised), so the timings below measure the pass
    // structure — iterations over the capture — not one-off parsing.
    //
    // The analysis comparison runs the detectors alone: the legacy path
    // exactly as the multi-pass report drives them (volume, addomains,
    // history, PII, identifiers, transfers — which re-detects leaks —
    // sensitive, DNS, cost, idle timelines), vs one fused pass.
    eprintln!("analysis only: multi-pass vs fused, interleaved…");
    let (analysis_multipass_secs, analysis_fused_secs) = time_best_pair(reps, || {
        use panoptes_analysis::{
            addomains, cost, dns, history, identifiers, idle as idle_mod, pii, sensitive,
            transfers, volume,
        };
        let mut sink = 0usize;
        for r in &results {
            sink += volume::volume_row(r).native_requests as usize;
            sink += addomains::ad_domain_row(r).ad_hosts.len();
            sink += history::detect_history_leaks(r).len();
            sink += pii::pii_row(r, &res.props).leaked.len();
            sink += identifiers::find_identifiers(r, 2).len();
            sink += transfers::transfer_row(r, &res.geo).map_or(0, |t| t.destinations.len());
            sink += sensitive::sensitive_row(r).sensitive_urls_leaked;
            sink += dns::dns_row(r).lookups;
            sink += cost::cost_row(r, &res.energy).native_flows as usize;
        }
        for r in &idles {
            sink += idle_mod::timeline(r, SimDuration::from_secs(30)).cumulative.len();
            sink += idle_mod::destination_shares(r).len();
        }
        std::hint::black_box(sink);
    }, || {
        std::hint::black_box(analyze_study(&results, &idles, &res).crawls.len());
    });

    // The pipeline comparison reproduces the detector traffic of a full
    // `repro` render as the legacy section renderers drove it: every
    // section re-ran its own detector, so the volume pass ran twice
    // (fig2 + fig4) and history-leak detection three times (leak table,
    // leak summary, transfers). The fused pipeline analyses each
    // campaign once and renders every section from that.
    eprintln!("render pipeline: legacy vs fused, interleaved…");
    let (pipeline_multipass_secs, pipeline_fused_secs) = time_best_pair(reps, || {
        use panoptes_analysis::{
            addomains, cost, dns, history, identifiers, idle as idle_mod, pii, sensitive,
            transfers, volume,
        };
        let mut sink = 0usize;
        for r in &results {
            sink += volume::volume_row(r).native_requests as usize; // fig2
            sink += addomains::ad_domain_row(r).ad_hosts.len(); // fig3
            sink += volume::volume_row(r).engine_requests as usize; // fig4
            sink += pii::pii_row(r, &res.props).leaked.len(); // table2
            sink += history::detect_history_leaks(r).len(); // leak table
            sink += history::summarize_leaks(r).destinations.len(); // leak summary
            sink += dns::dns_row(r).lookups; // dns
            sink += sensitive::sensitive_row(r).sensitive_urls_leaked; // sensitive
            sink += transfers::transfer_row(r, &res.geo).map_or(0, |t| t.destinations.len());
            sink += identifiers::find_identifiers(r, 2).len(); // §3.3
            sink += cost::cost_row(r, &res.energy).native_flows as usize; // §3.1
        }
        for r in &idles {
            sink += idle_mod::timeline(r, SimDuration::from_secs(10)).cumulative.len();
            sink += idle_mod::destination_shares(r).len(); // §3.5
        }
        std::hint::black_box(sink);
    }, || {
        let analyses = analyze_study(&results, &idles, &res);
        let mut sink = 0usize;
        for a in &analyses.crawls {
            sink += a.volume.native_requests as usize; // fig2
            sink += a.addomains.ad_hosts.len(); // fig3
            sink += a.volume.engine_requests as usize; // fig4
            sink += a.pii.leaked.len(); // table2
            sink += a.history_leaks.len(); // leak table
            sink += a.leak_summary().destinations.len(); // leak summary
            sink += a.dns.lookups; // dns
            sink += a.sensitive.sensitive_urls_leaked; // sensitive
            sink += a.transfers.as_ref().map_or(0, |t| t.destinations.len());
            sink += a.identifiers.len(); // §3.3
            sink += a.cost.native_flows as usize; // §3.1
        }
        for a in &analyses.idles {
            sink += a.timeline(SimDuration::from_secs(10)).cumulative.len();
            sink += a.destination_shares().len(); // §3.5
        }
        std::hint::black_box(sink);
    });

    eprintln!("full JSON report: multi-pass vs fused, interleaved…");
    let (multipass_secs, fused_secs) = time_best_pair(reps, || {
        std::hint::black_box(study_report_multipass(&results, &idles).len());
    }, || {
        std::hint::black_box(study_report_from(&analyze_study(&results, &idles, &res)).len());
    });

    let mut shard_secs = Vec::new();
    for jobs in shard_jobs {
        eprintln!("sharded fused pass, {jobs} worker(s)…");
        let options = FleetOptions::with_jobs(jobs);
        shard_secs.push(ab::best_of(AbConfig::new(1, reps), || {
            for r in &results {
                std::hint::black_box(&analyze_crawl_sharded(r, &res, &options).volume);
            }
        }));
    }

    let shard_rows: String = shard_jobs
        .iter()
        .zip(&shard_secs)
        .map(|(jobs, secs)| format!("    \"jobs_{jobs}_secs\": {secs:.6},\n"))
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"study\",\n",
            "  \"scale\": \"{scale}\",\n",
            "  \"host_cpus\": {host_cpus},\n",
            "  \"flows_per_study\": {flows},\n",
            "  \"report_bytes\": {report_bytes},\n",
            "  \"byte_identical\": {{\n",
            "    \"fused_vs_multipass\": true,\n",
            "    \"sharded_jobs\": [1, 2, 4, 8]\n",
            "  }},\n",
            "  \"single_thread\": {{\n",
            "    \"render_pipeline\": {{\n",
            "      \"multipass_secs\": {pipeline_multipass_secs:.6},\n",
            "      \"fused_secs\": {pipeline_fused_secs:.6},\n",
            "      \"fusion_speedup\": {pipeline_speedup:.2},\n",
            "      \"note\": \"detector traffic of one full repro render: legacy re-ran volume twice and history detection three times; fused analyses once\"\n",
            "    }},\n",
            "    \"analysis_passes\": {{\n",
            "      \"multipass_secs\": {analysis_multipass_secs:.6},\n",
            "      \"fused_secs\": {analysis_fused_secs:.6},\n",
            "      \"fusion_speedup\": {analysis_speedup:.2},\n",
            "      \"note\": \"each detector exactly once vs one fused pass\"\n",
            "    }},\n",
            "    \"full_json_report\": {{\n",
            "      \"multipass_secs\": {multipass_secs:.6},\n",
            "      \"fused_secs\": {fused_secs:.6},\n",
            "      \"speedup\": {fusion_speedup:.2}\n",
            "    }}\n",
            "  }},\n",
            "  \"sharded_fused\": {{\n",
            "{shard_rows}",
            "    \"note\": \"crawl analyses only; on a {host_cpus}-cpu host the jobs>1 rows measure shard partition + ordered-merge overhead, scaling needs cores\"\n",
            "  }},\n",
            "{mem}\n",
            "}}\n",
        ),
        scale = if quick { "smoke" } else { "quick" },
        host_cpus = host_cpus,
        flows = flows,
        report_bytes = reference.len(),
        pipeline_multipass_secs = pipeline_multipass_secs,
        pipeline_fused_secs = pipeline_fused_secs,
        pipeline_speedup = pipeline_multipass_secs / pipeline_fused_secs,
        analysis_multipass_secs = analysis_multipass_secs,
        analysis_fused_secs = analysis_fused_secs,
        analysis_speedup = analysis_multipass_secs / analysis_fused_secs,
        multipass_secs = multipass_secs,
        fused_secs = fused_secs,
        fusion_speedup = multipass_secs / fused_secs,
        shard_rows = shard_rows,
        mem = mem::report_json(),
    );

    std::fs::write(&out_path, &json).expect("write benchmark record");
    print!("{json}");
    eprintln!("wrote {out_path}");
}
