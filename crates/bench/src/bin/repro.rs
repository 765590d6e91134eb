//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--quick] [--sites N] [--popular N] [--sensitive N] [--seed S]
//!       [--jobs N] [--population N] [--only SECTION]
//! ```
//!
//! Sections: `table1 fig2 fig3 fig4 table2 leaks dns sensitive transfers
//! listing1 identifiers cost incognito fig5 idle-dest`. Default:
//! everything at paper scale (500 + 500 sites, 10-minute idle).
//! `--only SECTION` runs only the phases that section needs: `--only
//! fig2` runs neither the incognito crawls nor the idle experiment.
//!
//! `--sites N` grows the web beyond the paper's head set: sites past
//! `popular + sensitive` come from the generator's deterministic deep
//! tail (the head sites stay byte-identical, so `--sites 1000` at paper
//! scale IS the paper's exact web). Composes with `--jobs` like any
//! other scale.
//!
//! `--jobs N` runs the campaigns and their analyses across an N-worker
//! fleet (default: the machine's available parallelism; `--jobs 1` runs
//! every unit in order on the main thread). Every capture is analysed
//! once by the fused single-pass engine, on the worker that captured it,
//! and then dropped; all sections render from those analyses. Output is
//! byte-identical for every N — results always come back in profile
//! order before rendering.
//!
//! `--population N` runs the study over an N-browser population: the
//! paper's 15 pinned browsers first, then deterministically sampled
//! variants from the behaviour-model space (seeded by `--seed`). The
//! default, `--population 15`, is exactly the paper set — output stays
//! byte-identical to a run without the flag.
//!
//! `--har DIR` additionally writes one HAR 1.2 file per browser campaign
//! into DIR, for inspection with off-the-shelf HAR tooling; it is the
//! only option that keeps the raw crawl captures in memory until the
//! crawl phase ends. `--json FILE`
//! writes the machine-readable study summary (every analysis result as
//! one JSON document).
//!
//! `--metrics` enables the panoptes-obs metrics layer and prints the
//! two-section run report (deterministic counts vs runtime timings) on
//! **stderr** after the run; `--trace-out FILE` enables the trace layer
//! and writes the span/event JSONL there. Both leave stdout — the
//! reproduction tables — byte-identical to a run without them.
//!
//! A bad command line (unknown flag, missing or unparsable value, empty
//! population, unknown section) prints the usage line and exits 2.

use std::str::FromStr;

use panoptes::fleet::FleetOptions;
use panoptes_analysis::engine::StudyAnalyses;
use panoptes_analysis::summary::study_report_from;
use panoptes_bench::experiments::Scale;
use panoptes_bench::render;
use panoptes_bench::study::{Analysed, Phase, Study};

const USAGE: &str = "repro [--quick] [--sites N] [--popular N] [--sensitive N] [--seed S] [--jobs N] [--population N] [--only SECTION] [--har DIR] [--json FILE] [--csv DIR] [--metrics] [--trace-out FILE]";

/// Reports a bad command line and exits 2.
fn usage_error(message: &str) -> ! {
    eprintln!("repro: {message}\nusage: {USAGE}");
    std::process::exit(2);
}

/// Parses the value that follows `flag`.
fn value<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    let Some(raw) = args.next() else {
        usage_error(&format!("{flag} needs a value"));
    };
    raw.parse().unwrap_or_else(|_| usage_error(&format!("bad {flag} value {raw:?}")))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut scale = Scale::paper();
    let mut only: Option<String> = None;
    let mut har_dir: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut csv_dir: Option<String> = None;
    let mut jobs: Option<usize> = None;
    let mut population: usize = 15;
    let mut metrics = false;
    let mut trace_out: Option<String> = None;
    let mut sites: Option<u32> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::quick(),
            "--sites" => sites = Some(value(&mut args, "--sites")),
            "--metrics" => metrics = true,
            "--trace-out" => trace_out = Some(value(&mut args, "--trace-out")),
            "--jobs" => jobs = Some(value(&mut args, "--jobs")),
            "--population" => population = value(&mut args, "--population"),
            "--popular" => scale.popular = value(&mut args, "--popular"),
            "--sensitive" => scale.sensitive = value(&mut args, "--sensitive"),
            "--seed" => scale.seed = value(&mut args, "--seed"),
            "--only" => only = Some(value(&mut args, "--only")),
            "--har" => har_dir = Some(value(&mut args, "--har")),
            "--json" => json_path = Some(value(&mut args, "--json")),
            "--csv" => csv_dir = Some(value(&mut args, "--csv")),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }
    // Applied after the loop so `--sites` composes with `--quick` /
    // `--popular` / `--sensitive` regardless of flag order.
    if let Some(n) = sites {
        scale = scale.with_sites(n);
    }
    let study = Study { scale, population };
    if let Err(message) = study.validate(only.as_deref()) {
        usage_error(&message);
    }
    let want = |section: &str| only.as_deref().is_none_or(|o| o == section);
    // The exports read the crawl (and the idle experiment) whatever
    // `--only` prints.
    let mut phases = Study::phases(only.as_deref());
    if har_dir.is_some() || csv_dir.is_some() || json_path.is_some() {
        phases.push(Phase::Crawl);
    }
    if csv_dir.is_some() || json_path.is_some() {
        phases.push(Phase::Idle);
    }

    // Telemetry goes to stderr / the trace file only: stdout (the
    // reproduction tables) stays byte-identical with or without it.
    if metrics {
        panoptes_obs::enable(panoptes_obs::METRICS);
    }
    if trace_out.is_some() {
        panoptes_obs::enable(panoptes_obs::TRACE);
    }

    // The tail note appears only when a tail exists, so default runs
    // keep the byte-identical paper header.
    let tail_note =
        if scale.tail > 0 { format!(" + {} tail", scale.tail) } else { String::new() };
    eprintln!(
        "# Panoptes reproduction — {} popular + {} sensitive{} sites, seed {:#x}",
        scale.popular, scale.sensitive, tail_note, scale.seed
    );
    print!("{}", render::header_md(&scale));

    let fleet_options = match jobs {
        Some(n) => FleetOptions::with_progress(n),
        None => FleetOptions::default().verbose(),
    };
    // Sections print through the shared document builders (also used
    // by the study server) so the two output paths cannot drift; each
    // phase prints the moment it is analysed.
    let mut crawl_analyses = Vec::new();
    let outcome = study.run(&phases, har_dir.is_some(), &fleet_options, |analysed| {
        for (name, text) in analysed.sections() {
            if want(name) {
                print!("{text}");
            }
        }
        match analysed {
            Analysed::Crawl { results, analyses } => {
                if let Some(dir) = &har_dir {
                    std::fs::create_dir_all(dir).expect("create --har directory");
                    for r in &results {
                        let name = r.profile.name.replace(' ', "_").to_lowercase();
                        let path = format!("{dir}/{name}.har");
                        std::fs::write(&path, panoptes_mitm::har::store_to_har(&r.store))
                            .expect("write har file");
                        eprintln!("wrote {path}");
                    }
                }
                if let Some(dir) = &csv_dir {
                    std::fs::create_dir_all(dir).expect("create --csv directory");
                    std::fs::write(format!("{dir}/fig2.csv"), render::fig2_csv(&analyses))
                        .expect("fig2.csv");
                    std::fs::write(format!("{dir}/fig3.csv"), render::fig3_csv(&analyses))
                        .expect("fig3.csv");
                    eprintln!("wrote {dir}/fig2.csv, {dir}/fig3.csv");
                }
                crawl_analyses = analyses;
            }
            Analysed::Incognito(_) => {}
            Analysed::Idle(idles) => {
                if let Some(dir) = &csv_dir {
                    let bucket = panoptes_simnet::SimDuration::from_secs(10);
                    std::fs::write(format!("{dir}/fig5.csv"), render::fig5_csv(&idles, bucket))
                        .expect("fig5.csv");
                    eprintln!("wrote {dir}/fig5.csv");
                }
                if let Some(path) = &json_path {
                    let crawls = std::mem::take(&mut crawl_analyses);
                    let study = StudyAnalyses { crawls, idles };
                    std::fs::write(path, study_report_from(&study)).expect("write --json file");
                    eprintln!("wrote {path}");
                }
            }
        }
    });
    if let Err(e) = outcome {
        eprintln!("study failed: {e}");
        std::process::exit(1);
    }
    if metrics {
        eprint!("{}", panoptes_obs::report::render(&panoptes_obs::metrics::snapshot()));
    }
    if let Some(path) = &trace_out {
        // All worker scopes have joined by now, so the export sees
        // every thread's ring.
        let jsonl = panoptes_obs::trace::export_jsonl();
        std::fs::write(path, &jsonl).expect("write --trace-out file");
        eprintln!("wrote {path} ({} trace events)", jsonl.lines().count());
    }
    eprintln!("done.");
}
