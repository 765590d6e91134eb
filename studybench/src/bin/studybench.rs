//! `studybench`: the repository benchmark.
//!
//! ```text
//! studybench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds `repro` and `serve` (and, to trace, `studybench-trace`) into the
//! target directory this binary was built in, runs the workload, checks
//! every output, prints each metric by name and unit on stderr, and
//! prints as the last line of stdout one JSON object with the run's
//! verdict, operation counts and metrics: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Exits 2 on bad
//! arguments and 1 when the programs cannot be built or driven.
//!
//! Workloads (see `README.md` in this directory for why each exists):
//!
//! * `paper-study` — `repro` with no flags;
//! * `wide-web` — `repro --sites 50000 --population 1 --only fig2`;
//! * `served-cold` — a fresh `serve`, `nproc` closed-loop clients, every
//!   request a seed new to the server;
//! * `served-replay` — the same requests over seeds primed in set-up.

use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use panoptes_analysis::engine::AnalysisResources;
use panoptes_browsers::registry::population;
use panoptes_web::World;
use studybench::load::{self, Response, SeedPlan};
use studybench::procs::{self, Finished, Metrics, Server};
use studybench::stats::{self, Failure, Tally, P90_MIN_SAMPLES};
use studybench::study::{self, StudySpec};
use studybench::{fnv1a64, result_json, Metric};

/// Fewest `repro` runs an offline measurement takes, however short the
/// window: a shared host's speed drifts over tens of seconds, and a median
/// steadies only over a run that spans that drift.
const OFFLINE_MIN_STUDIES: usize = 8;
/// Fresh servers a served set-up time is the median of; the last one
/// serves the measured window.
const SERVED_SETUPS: usize = 3;
/// Served-cold studies the traced run drives: the window's first seeds.
const TRACED_COLD_STUDIES: u64 = 8;
/// FNV-1a 64 of the stdout of
/// `repro --sites 50000 --population 1 --only fig2`.
const WIDE_WEB_DIGEST: u64 = 0xedc5_0a8b_e30b_bb57;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperStudy,
    WideWeb,
    ServedCold,
    ServedReplay,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "paper-study" => Workload::PaperStudy,
            "wide-web" => Workload::WideWeb,
            "served-cold" => Workload::ServedCold,
            "served-replay" => Workload::ServedReplay,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::PaperStudy => "paper-study",
            Workload::WideWeb => "wide-web",
            Workload::ServedCold => "served-cold",
            Workload::ServedReplay => "served-replay",
        }
    }

    /// The offline study: its `repro` flags and `studybench-trace` spec.
    fn offline(self) -> Option<(&'static [&'static str], &'static str, StudySpec)> {
        match self {
            Workload::PaperStudy => Some((&[], "paper", StudySpec::paper())),
            Workload::WideWeb => Some((
                &["--sites", "50000", "--population", "1", "--only", "fig2"],
                "wide-web",
                StudySpec::wide_web(),
            )),
            Workload::ServedCold | Workload::ServedReplay => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What one run measured.
#[derive(Default)]
struct Outcome {
    tally: Tally,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("setup-probe") {
        setup_probe(argv.get(1).map(String::as_str));
        return;
    }
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!(
            "studybench: {e}\nusage: studybench --workload NAME --seed N --seconds S --trace 0|1"
        );
        std::process::exit(2);
    });
    let outcome = build(args.trace).and_then(|bins| match args.workload.offline() {
        Some(_) if args.trace => offline_traced(args.workload, &bins),
        Some(_) => offline(args.workload, &args, &bins),
        None => served(args.workload, &args, &bins),
    });
    let outcome = outcome.unwrap_or_else(|e| {
        eprintln!("studybench: {}: {e}", args.workload.name());
        std::process::exit(1);
    });

    eprintln!(
        "studybench {} seed={} seconds={} trace={} nproc={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc()
    );
    for m in &outcome.metrics {
        eprintln!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let tally = &outcome.tally;
    eprintln!(
        "  {:<34} {:>16.6} ratio ({} of {} operations failed{}{})",
        "failed_share",
        tally.failed_share(),
        tally.failed(),
        tally.attempted,
        if tally.failed() > 0 { ": " } else { "" },
        tally.breakdown()
    );
    for note in &outcome.notes {
        eprintln!("  note: {note}");
    }
    println!(
        "{}",
        result_json(
            tally.failed() == 0,
            tally.attempted,
            tally.failed(),
            &outcome.metrics
        )
    );
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Builds the programs under test next to this binary and returns the
/// directory they are in.
fn build(trace: bool) -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let bins = exe
        .parent()
        .ok_or_else(|| io::Error::other("binary has no directory"))?
        .to_path_buf();
    let target = bins
        .parent()
        .ok_or_else(|| io::Error::other("binary is not in a target directory"))?;
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let repo = manifest_dir
        .parent()
        .ok_or_else(|| io::Error::other("benchmark has no parent directory"))?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let mut builds = vec![Command::new(&cargo)];
    builds[0].args([
        "build",
        "--release",
        "--quiet",
        "-p",
        "panoptes-bench",
        "--bin",
        "repro",
    ]);
    builds[0].args(["-p", "panoptes-serve", "--bin", "serve"]);
    if trace {
        let mut traced = Command::new(&cargo);
        traced.args([
            "build",
            "--release",
            "--quiet",
            "--bin",
            "studybench-trace",
            "--manifest-path",
        ]);
        traced.arg(manifest_dir.join("Cargo.toml"));
        builds.push(traced);
    }
    for mut cargo in builds {
        let status = cargo
            .arg("--target-dir")
            .arg(target)
            .current_dir(repo)
            .status()?;
        if !status.success() {
            return Err(io::Error::other(format!("{cargo:?} failed with {status}")));
        }
    }
    Ok(bins)
}

/// `studybench setup-probe WORKLOAD`: the offline set-up — world,
/// browser population and analysis resources — timed in this fresh
/// process, printed in seconds.
fn setup_probe(workload: Option<&str>) {
    let Some((_, _, spec)) = workload
        .and_then(Workload::parse)
        .and_then(Workload::offline)
    else {
        eprintln!("usage: studybench setup-probe paper-study|wide-web");
        std::process::exit(2);
    };
    let started = Instant::now();
    let world = World::build(&spec.generator());
    let profiles = population(spec.scale.seed, spec.population);
    let resources = AnalysisResources::standard();
    let elapsed = started.elapsed();
    std::hint::black_box((world, profiles, resources));
    println!("{}", elapsed.as_secs_f64());
}

/// The bytes an offline workload must print.
enum Reference {
    Bytes(Vec<u8>),
    Digest(u64),
}

impl Reference {
    fn of(workload: Workload) -> io::Result<Reference> {
        Ok(match workload {
            Workload::WideWeb => Reference::Digest(WIDE_WEB_DIGEST),
            _ => {
                let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../repro_output.md");
                Reference::Bytes(std::fs::read(golden)?)
            }
        })
    }

    fn check(&self, run: &Finished) -> Option<Failure> {
        let matches = match self {
            Reference::Bytes(bytes) => run.stdout == *bytes,
            Reference::Digest(digest) => fnv1a64(&run.stdout) == *digest,
        };
        if !run.success {
            Some(Failure::Exit)
        } else if !matches {
            Some(Failure::Mismatch)
        } else {
            None
        }
    }
}

/// The p90, or — for a run below the sample floor, where no percentile
/// has ten samples beyond it — the median in its place, with a note.
fn p90_or_median(samples: &[f64], what: &str, notes: &mut Vec<String>) -> f64 {
    stats::p90(samples).unwrap_or_else(|| {
        notes.push(format!(
            "{what}: {} samples, below the {P90_MIN_SAMPLES}-sample floor of a p90; \
             the p90 slot carries the median",
            samples.len()
        ));
        median(samples)
    })
}

fn median(samples: &[f64]) -> f64 {
    stats::median(samples).unwrap_or(0.0)
}

/// Timed offline run: `repro` processes back to back for the window, each
/// after one set-up probe.
fn offline(workload: Workload, args: &Args, bins: &Path) -> io::Result<Outcome> {
    let (flags, _, spec) = workload.offline().expect("an offline workload");
    let reference = Reference::of(workload)?;
    let exe = std::env::current_exe()?;
    let mut setups = Vec::new();
    let mut out = Outcome::default();
    let mut runs = Vec::new();
    let mut measured = 0.0;
    while measured < args.seconds || runs.len() < OFFLINE_MIN_STUDIES {
        // A set-up probe (a fresh process) before each study, so the set-up
        // median, too, spans the whole run.
        let probe = procs::run(Command::new(&exe).args(["setup-probe", workload.name()]))?;
        let secs = String::from_utf8_lossy(&probe.stdout).trim().parse::<f64>();
        setups.push(
            secs.map_err(|_| io::Error::other(format!("set-up probe failed: {}", probe.stderr)))?,
        );
        let run = procs::run(Command::new(bins.join("repro")).args(flags))?;
        measured += run.last_byte.as_secs_f64();
        out.tally.record(reference.check(&run));
        runs.push(run);
    }
    // `repro` prints its header before any work, so the first event a
    // user waits for is the first section after it.
    let header = panoptes_bench::render::header_md(&spec.scale).len();
    let ttfe: Vec<f64> = runs
        .iter()
        .map(|r| r.byte_at(header).unwrap_or(r.last_byte).as_secs_f64() * 1e3)
        .collect();
    let completion: Vec<f64> = runs
        .iter()
        .map(|r| r.last_byte.as_secs_f64() * 1e3)
        .collect();
    let rss: Vec<f64> = runs
        .iter()
        .map(|r| r.peak_rss_kib as f64 / 1024.0)
        .collect();
    let mut notes = Vec::new();
    out.metrics = vec![
        Metric::new("study_s", median(&completion) / 1e3, "s"),
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("peak_rss_mib", median(&rss), "MiB"),
        Metric::new("studies_per_s", runs.len() as f64 / measured, "1/s"),
        Metric::new("ttfe_p50_ms", median(&ttfe), "ms"),
        Metric::new(
            "ttfe_p90_ms",
            p90_or_median(&ttfe, "ttfe", &mut notes),
            "ms",
        ),
        Metric::new("completion_p50_ms", median(&completion), "ms"),
        Metric::new(
            "completion_p90_ms",
            p90_or_median(&completion, "completion", &mut notes),
            "ms",
        ),
    ];
    out.notes = notes;
    Ok(out)
}

/// Runs `studybench-trace` traced and untraced over the same studies and
/// returns both runs; the traced run's table goes to our stderr.
fn trace_runs(bins: &Path, spec_args: &[String]) -> io::Result<(Finished, Finished)> {
    let binary = bins.join("studybench-trace");
    let traced = procs::run(Command::new(&binary).args(spec_args))?;
    let untraced = procs::run(Command::new(&binary).args(spec_args).arg("--untraced"))?;
    for line in traced
        .stderr
        .lines()
        .filter(|l| Metric::from_line(l).is_none())
    {
        eprintln!("{line}");
    }
    Ok((traced, untraced))
}

/// The traced run's per-layer metrics plus the tracing overhead.
fn traced_metrics(traced: &Finished, untraced: &Finished) -> Vec<Metric> {
    let mut metrics: Vec<Metric> = traced
        .stderr
        .lines()
        .filter_map(Metric::from_line)
        .collect();
    let overhead = traced.last_byte.as_secs_f64() - untraced.last_byte.as_secs_f64();
    metrics.push(Metric::new("trace.overhead_s", overhead, "s"));
    metrics
}

/// Traced offline run: one traced study, one untraced, both checked
/// against the workload's reference. The serve layers are not on this
/// path and report zero.
fn offline_traced(workload: Workload, bins: &Path) -> io::Result<Outcome> {
    let (_, spec, _) = workload.offline().expect("an offline workload");
    let reference = Reference::of(workload)?;
    let (traced, untraced) = trace_runs(bins, &["--spec".to_string(), spec.to_string()])?;
    let mut out = Outcome::default();
    out.tally.record(reference.check(&traced));
    out.tally.record(reference.check(&untraced));
    out.metrics = traced_metrics(&traced, &untraced);
    out.metrics.extend(serve_layers(
        &[],
        &Metrics(String::new()),
        &Metrics(String::new()),
    ));
    Ok(out)
}

/// Served run: set-up timed on fresh servers, then the closed loop on the
/// last one, then every response checked against the offline render.
fn served(workload: Workload, args: &Args, bins: &Path) -> io::Result<Outcome> {
    let replay = workload == Workload::ServedReplay;
    let plan = SeedPlan::new(args.seed);
    let clients = nproc();
    let mut setups = Vec::new();
    let mut server = None;
    for round in 0..SERVED_SETUPS {
        let started = Instant::now();
        let fresh = Server::launch(&bins.join("serve"))?;
        let warmup: Vec<u64> = (0..clients)
            .map(|j| plan.warmup((round * clients + j) as u64))
            .collect();
        let mut logs = load::batch(fresh.addr, clients, &warmup);
        if replay {
            logs.extend(load::batch(fresh.addr, clients, &plan.primed()));
        }
        setups.push(started.elapsed().as_secs_f64());
        if let Some(bad) = logs
            .iter()
            .flat_map(|l| &l.responses)
            .find(|r| r.failure.is_some())
        {
            return Err(io::Error::other(format!(
                "set-up request for seed {} failed: {:?}",
                bad.seed, bad.failure
            )));
        }
        // Replacing the previous round's server stops it.
        server = Some(fresh);
    }
    let server = server.expect("at least one set-up");

    let before = server.metrics()?;
    let window = Duration::from_secs_f64(args.seconds);
    let (mut logs, wall) = load::closed_loop(server.addr, clients, window, |i| {
        if replay {
            plan.replay(i)
        } else {
            plan.cold(i)
        }
    });
    let after = server.metrics()?;
    let peak_rss_kib = server
        .peak_rss_kib()
        .ok_or_else(|| io::Error::other("no VmHWM for serve"))?;
    server.stop();

    // Outside the window: every response against the offline render.
    let traced_seeds: Vec<u64> = if replay {
        plan.primed()
    } else {
        (0..TRACED_COLD_STUDIES).map(|i| plan.cold(i)).collect()
    };
    let mut seeds: Vec<u64> = logs.iter().flat_map(|l| l.docs.keys().copied()).collect();
    if args.trace {
        seeds.extend(&traced_seeds);
    }
    seeds.sort_unstable();
    seeds.dedup();
    let references = study::served_references(&seeds, clients);
    let mut out = Outcome::default();
    for log in &mut logs {
        log.check_docs(&references);
        for r in &log.responses {
            out.tally.record(r.failure);
        }
    }
    let ok: Vec<&Response> = logs
        .iter()
        .flat_map(|l| &l.responses)
        .filter(|r| r.failure.is_none())
        .collect();

    if args.trace {
        let list = traced_seeds
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let (traced, untraced) = trace_runs(
            bins,
            &["--spec".into(), "served".into(), "--seeds".into(), list],
        )?;
        let expected: String = traced_seeds
            .iter()
            .map(|s| references[s].as_str())
            .collect();
        let reference = Reference::Bytes(expected.into_bytes());
        out.tally.record(reference.check(&traced));
        out.tally.record(reference.check(&untraced));
        out.metrics = traced_metrics(&traced, &untraced);
        out.metrics.extend(serve_layers(&ok, &before, &after));
        return Ok(out);
    }

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let completion: Vec<f64> = ok.iter().map(|r| ms(r.completion)).collect();
    let ttfe: Vec<f64> = ok.iter().map(|r| ms(r.ttfe)).collect();
    let mut notes = Vec::new();
    out.metrics = vec![
        Metric::new("study_s", median(&completion) / 1e3, "s"),
        Metric::new("setup_s", median(&setups), "s"),
        Metric::new("peak_rss_mib", peak_rss_kib as f64 / 1024.0, "MiB"),
        Metric::new("studies_per_s", ok.len() as f64 / wall.as_secs_f64(), "1/s"),
        Metric::new("ttfe_p50_ms", median(&ttfe), "ms"),
        Metric::new(
            "ttfe_p90_ms",
            p90_or_median(&ttfe, "ttfe", &mut notes),
            "ms",
        ),
        Metric::new("completion_p50_ms", median(&completion), "ms"),
        Metric::new(
            "completion_p90_ms",
            p90_or_median(&completion, "completion", &mut notes),
            "ms",
        ),
    ];
    notes.push(format!(
        "{} requests in a {:.3} s window",
        out.tally.attempted,
        wall.as_secs_f64()
    ));
    out.notes = notes;
    Ok(out)
}

/// The serve layers' metrics: per-request medians of the `timing`
/// trailer's phases, the HTTP edge (client completion minus the
/// trailer's total), and `/metrics` deltas over the window. With no
/// responses and empty reports every value is zero.
fn serve_layers(ok: &[&Response], before: &Metrics, after: &Metrics) -> Vec<Metric> {
    let timings: Vec<_> = ok.iter().filter_map(|r| r.timing).collect();
    let phase = |name: &str, us: fn(&panoptes_serve::doctor::Timing) -> u64| {
        let samples: Vec<f64> = timings.iter().map(|t| us(t) as f64 / 1e3).collect();
        Metric::new(name, median(&samples), "ms")
    };
    let edge: Vec<f64> = ok
        .iter()
        .filter_map(|r| Some(r.completion.as_secs_f64() * 1e3 - r.timing?.total_us as f64 / 1e3))
        .collect();
    let delta = |name: &str| after.counter(name).saturating_sub(before.counter(name)) as f64;
    let (hits, misses) = (delta("serve.cache.hits"), delta("serve.cache.misses"));
    vec![
        phase("serve.admission_ms", |t| t.admission_us),
        phase("serve.cache_wait_ms", |t| t.cache_wait_us),
        phase("serve.build_ms", |t| t.build_us),
        phase("serve.capture_ms", |t| t.capture_us),
        phase("serve.analysis_ms", |t| t.analysis_us),
        phase("serve.render_ms", |t| t.render_us),
        phase("serve.write_ms", |t| t.write_us),
        phase("serve.other_ms", |t| t.other_us),
        Metric::new("serve.edge_ms", median(&edge), "ms"),
        Metric::new(
            "serve.cache.hit_ratio",
            stats::ratio(hits, hits + misses),
            "ratio",
        ),
        Metric::new(
            "serve.cache.evictions",
            delta("serve.cache.evictions"),
            "count",
        ),
        Metric::new(
            "serve.cache.bytes",
            after.gauge("serve.cache.bytes", "level") as f64,
            "bytes",
        ),
        Metric::new(
            "pool.queue.depth_hw",
            after.gauge("pool.queue.depth", "high_water") as f64,
            "count",
        ),
    ]
}
