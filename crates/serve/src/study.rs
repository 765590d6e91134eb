//! The streamed study runner: parameters → shared artifacts → fleet
//! units on the pool → incremental section events, byte-identical to
//! `repro`.
//!
//! A study at parameters `(seed, sites, population, idle)` is exactly
//! the offline reproduction document: header, the crawl-derived
//! sections, the §3.2 incognito section, and the idle sections. The
//! runner schedules every campaign unit of the study's plan
//! ([`Study::plan`]: the crawls, the §3.2 incognito crawls, the idles)
//! as individual jobs on the server's shared [`WorkPool`] lane for this
//! request, analyses each capture on the request's own handler thread
//! as it seals and drops it, and emits each section group the moment
//! its inputs are complete. Concatenating the streamed
//! `header`/`section` payload bytes reproduces `repro`'s stdout exactly
//! (enforced by `tests/serve_determinism.rs`).
//!
//! Backpressure: the lane is opened with a small credit allowance and
//! a credit is granted back only after the already-received unit has
//! been analysed *and* every due event has been written to the client
//! socket. A client that stops reading therefore stalls its own
//! lane's dispatch — bounded buffered results — while other studies
//! keep the workers busy (the pool is work-conserving).
//!
//! Cancellation: every event write can fail (client went away). The
//! runner then drops its lane — pending units are discarded, in-flight
//! units finish and their results are dropped — and, when it was the
//! single-flight builder of a cached document, abandons the cache slot
//! so a later request rebuilds cleanly. No slot, thread, or cache key
//! leaks.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use panoptes::config::CampaignConfig;
use panoptes::fleet::{self, FleetUnit, UnitOutput, WorkPool};
use panoptes_analysis::engine::{
    analyze_crawl, analyze_idle, AnalysisResources, CampaignAnalysis, IdleAnalysis,
};
use panoptes_bench::experiments::Scale;
use panoptes_bench::render;
use panoptes_bench::study::{incognito_pairs, Phase, Study};
use panoptes_blocklist::filterlist::easylist_excerpt;
use panoptes_browsers::registry::population;
use panoptes_browsers::BrowserProfile;
use panoptes_simnet::SimDuration;
use panoptes_web::generator::GeneratorConfig;
use panoptes_web::World;

use crate::cache::ArtifactCache;
use crate::flightrec::FlightRecorder;
use crate::json;

/// One study request's parameters (the query string of `GET /study`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StudyParams {
    /// Campaign seed (world, identifiers, jitter).
    pub seed: u64,
    /// Popular (Tranco-like) site count.
    pub popular: u32,
    /// Sensitive (Curlie-like) site count.
    pub sensitive: u32,
    /// Deep-tail sites beyond the head set (`sites` beyond
    /// `popular + sensitive`).
    pub tail: u32,
    /// Browser population size (15 = the paper's pinned set).
    pub population: usize,
    /// Idle-experiment window in (simulated) seconds.
    pub idle_secs: u64,
}

impl Default for StudyParams {
    /// Quick-scale defaults, mirroring `repro --quick`.
    fn default() -> StudyParams {
        let quick = Scale::quick();
        StudyParams {
            seed: quick.seed,
            popular: quick.popular,
            sensitive: quick.sensitive,
            tail: 0,
            population: 15,
            idle_secs: quick.idle.as_secs(),
        }
    }
}

impl StudyParams {
    /// The equivalent offline [`Scale`].
    pub fn scale(&self) -> Scale {
        Scale {
            popular: self.popular,
            sensitive: self.sensitive,
            tail: self.tail,
            idle: SimDuration::from_secs(self.idle_secs),
            seed: self.seed,
        }
    }

    /// The equivalent offline [`Study`].
    pub fn study(&self) -> Study {
        Study { scale: self.scale(), population: self.population }
    }

    /// The study-document cache key: every parameter that affects the
    /// output bytes, and nothing else.
    pub fn doc_key(&self) -> String {
        format!(
            "doc:seed={:#x}:popular={}:sensitive={}:tail={}:population={}:idle={}",
            self.seed, self.popular, self.sensitive, self.tail, self.population, self.idle_secs
        )
    }

    /// The equivalent `repro` invocation (docs/bench reporting).
    pub fn repro_args(&self) -> String {
        format!(
            "--seed {} --popular {} --sensitive {} --population {} {}",
            self.seed,
            self.popular,
            self.sensitive,
            self.population,
            if self.tail > 0 {
                format!("--sites {}", self.popular + self.sensitive + self.tail)
            } else {
                String::new()
            }
        )
        .trim_end()
        .to_string()
    }
}

/// Where study events go: the server's chunked HTTP stream, or a
/// buffer in tests. An `Err` from [`EventSink::event`] means the
/// consumer is gone; the runner cancels the study's lane.
pub trait EventSink {
    /// Delivers one event line (without trailing newline).
    fn event(&mut self, line: &str) -> io::Result<()>;
}

impl EventSink for Vec<String> {
    fn event(&mut self, line: &str) -> io::Result<()> {
        self.push(line.to_string());
        Ok(())
    }
}

/// Server-side identity of one request: its process-unique id, the
/// instant it was read off the socket (TTFE and completion are measured
/// from here), and the admission wait it already paid before reaching
/// the engine.
#[derive(Debug, Clone, Copy)]
pub struct RequestInfo {
    /// Process-unique request id (also the trace context's id).
    pub id: u64,
    /// Microseconds spent blocked in the admission queue.
    pub admission_us: u64,
    /// When the server finished parsing the request line.
    pub started: Instant,
}

impl RequestInfo {
    /// A request minted on the spot — for callers driving the engine
    /// without a front-end server (tests, benches).
    pub fn local() -> RequestInfo {
        RequestInfo {
            id: panoptes_obs::ctx::next_request_id(),
            admission_us: 0,
            started: Instant::now(),
        }
    }
}

/// Where one request's latency went, in microseconds. The phases are
/// disjoint segments of the handler thread's timeline, so they sum to
/// at most the request's wall time; the `timing` trailer adds an
/// explicit `other_us` remainder so the total reconciles exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Phases {
    /// Blocked in the admission queue before the study started.
    pub admission_us: u64,
    /// Blocked on another request's in-flight cache build (document or
    /// artifact level).
    pub cache_wait_us: u64,
    /// Building shared artifacts here: world, population, filterlist,
    /// analysis resources.
    pub build_us: u64,
    /// Waiting for campaign units to seal (the capture side of the
    /// pipeline, overlapped across the pool).
    pub capture_us: u64,
    /// Analysing sealed captures on the handler thread.
    pub analysis_us: u64,
    /// Rendering document sections.
    pub render_us: u64,
    /// Writing events to the client socket — includes backpressure
    /// stalls when the client reads slowly.
    pub write_us: u64,
}

impl Phases {
    /// Sum of every attributed phase.
    pub fn sum(&self) -> u64 {
        self.admission_us
            + self.cache_wait_us
            + self.build_us
            + self.capture_us
            + self.analysis_us
            + self.render_us
            + self.write_us
    }
}

/// Wraps the caller's sink to observe every write: accumulates socket
/// time (the `write_us` phase, backpressure included), pins
/// time-to-first-event, and bumps the flight recorder's progress clock
/// so a slowly-draining study is not mistaken for a wedged one.
struct TimedSink<'a> {
    inner: &'a mut dyn EventSink,
    recorder: &'a FlightRecorder,
    request: u64,
    started: Instant,
    write_us: u64,
    first_event_us: Option<u64>,
}

impl EventSink for TimedSink<'_> {
    fn event(&mut self, line: &str) -> io::Result<()> {
        let write_start = Instant::now();
        let result = self.inner.event(line);
        self.write_us += write_start.elapsed().as_micros() as u64;
        if self.first_event_us.is_none() {
            self.first_event_us = Some(self.started.elapsed().as_micros() as u64);
        }
        if result.is_ok() {
            self.recorder.touch(self.request);
        }
        result
    }
}

/// Times one closure into a phase slot.
fn timed<T>(slot: &mut u64, f: impl FnOnce() -> T) -> T {
    let phase_start = Instant::now();
    let value = f();
    *slot += phase_start.elapsed().as_micros() as u64;
    value
}

/// A finished study document: the exact bytes `repro` would print,
/// split into streamable units.
pub struct StudyDoc {
    /// The header block (`render::header_md`).
    pub header: String,
    /// `(section name, section bytes)` in document order.
    pub sections: Vec<(String, String)>,
}

impl StudyDoc {
    /// The full document — byte-identical to offline `repro` stdout.
    pub fn bytes(&self) -> String {
        let mut out = self.header.clone();
        for (_, text) in &self.sections {
            out.push_str(text);
        }
        out
    }
}

/// Why a study stopped before completing.
#[derive(Debug)]
pub enum StudyError {
    /// The client went away (event write failed); the lane was
    /// cancelled.
    Disconnected(io::Error),
    /// A campaign unit died (fleet-level failure).
    Fleet(String),
}

impl std::fmt::Display for StudyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StudyError::Disconnected(e) => write!(f, "client disconnected: {e}"),
            StudyError::Fleet(msg) => write!(f, "study units failed: {msg}"),
        }
    }
}

impl std::error::Error for StudyError {}

/// What a completed streamed study produced (server/bench accounting).
#[derive(Debug, Clone, Copy)]
pub struct StudyOutcome {
    /// Served from the document cache (no units scheduled).
    pub cached: bool,
    /// Total document payload bytes streamed.
    pub bytes: usize,
    /// Section count (excluding the header).
    pub sections: usize,
}

/// The shared study engine: one per server process. Owns the worker
/// pool every study's units interleave on, and (optionally) the
/// shared-artifact cache. `cache: None` is the honest A/B baseline —
/// every request builds its world, population, filterlist and document
/// from scratch.
pub struct StudyEngine {
    pool: WorkPool,
    cache: Option<Arc<ArtifactCache>>,
    /// Always-on flight recorder: request lifecycle ring + the
    /// active-study registry the watchdog polls.
    recorder: Arc<FlightRecorder>,
    /// Lane ids are minted per study; also used as the progress tag.
    next_lane: AtomicU64,
    /// Initial + steady-state credit allowance per lane: how many of a
    /// study's units may be queued-or-running ahead of the client's
    /// read position.
    credits: usize,
    /// Per-unit `[study-N]` narration through the obs progress sink.
    narrate: bool,
}

impl StudyEngine {
    /// An engine with `workers` pool workers and, unless
    /// `cache_budget_bytes` is `None`, a shared cache of that budget.
    pub fn new(workers: usize, cache_budget_bytes: Option<u64>) -> StudyEngine {
        StudyEngine {
            pool: WorkPool::new(workers),
            cache: cache_budget_bytes.map(|b| Arc::new(ArtifactCache::new(b))),
            recorder: Arc::new(FlightRecorder::default()),
            next_lane: AtomicU64::new(1),
            credits: 4,
            narrate: false,
        }
    }

    /// The shared cache, when enabled.
    pub fn cache(&self) -> Option<&Arc<ArtifactCache>> {
        self.cache.as_ref()
    }

    /// The engine's flight recorder (server wires the watchdog and
    /// panic hook to it).
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Total units currently queued (all studies).
    pub fn queue_depth(&self) -> usize {
        self.pool.queue_depth()
    }

    /// Pool lanes currently open — one per study being built. Returns
    /// to zero when every study has completed or been cancelled (the
    /// no-slot-leak invariant the determinism tests poll).
    pub fn lanes(&self) -> usize {
        self.pool.lane_count()
    }

    /// Enables per-unit narration through the obs progress sink
    /// (tagged `[study-N]` lines on stderr). Off by default so bench
    /// runs stay quiet.
    pub fn with_narration(mut self) -> StudyEngine {
        self.narrate = true;
        self
    }

    /// Runs one study, streaming events into `sink`. Returns how it
    /// ended; on [`StudyError::Disconnected`] the study's pending units
    /// have been dropped and its pool lane freed.
    ///
    /// The deterministic event stream (header, sections, progress,
    /// done) is byte-identical regardless of tracing; the one
    /// *non-deterministic* addition is the `timing` trailer emitted
    /// just before `done`, attributing the request's latency to phases
    /// ([`Phases`]). Callers without a front-end server pass
    /// [`RequestInfo::local()`].
    pub fn run_streaming(
        &self,
        params: &StudyParams,
        sink: &mut dyn EventSink,
        req: RequestInfo,
    ) -> Result<StudyOutcome, StudyError> {
        panoptes_obs::gauge_add!("serve.studies.inflight", 1);
        self.recorder
            .study_started(req.id, params.repro_args(), params.study().unit_count(&Phase::ALL));
        let mut phases = Phases {
            admission_us: req.admission_us,
            ..Phases::default()
        };
        let mut timed_sink = TimedSink {
            inner: sink,
            recorder: &self.recorder,
            request: req.id,
            started: req.started,
            write_us: 0,
            first_event_us: None,
        };
        let result = self.run_streaming_inner(params, &mut timed_sink, req, &mut phases);
        let (write_us, first_event_us) = (timed_sink.write_us, timed_sink.first_event_us);
        panoptes_obs::gauge_add!("serve.studies.inflight", -1);
        match result {
            Ok(outcome) => {
                phases.write_us = write_us;
                let total_us = req.started.elapsed().as_micros() as u64;
                let ttfe_us = first_event_us.unwrap_or(total_us);
                let trailer = ev_timing(req.id, outcome.cached, total_us, ttfe_us, &phases);
                sink.event(&trailer).map_err(StudyError::Disconnected)?;
                sink.event(&ev_done(&outcome))
                    .map_err(StudyError::Disconnected)?;
                panoptes_obs::trace::point_with("serve.timing", None, || trailer.clone());
                record_phase_histograms(total_us, ttfe_us, &phases);
                self.recorder.study_finished(
                    req.id,
                    "study.done",
                    format!(
                        "cached={} bytes={} sections={} total_us={total_us}",
                        outcome.cached, outcome.bytes, outcome.sections
                    ),
                );
                Ok(outcome)
            }
            Err(e) => {
                let kind = match &e {
                    StudyError::Disconnected(_) => "study.disconnect",
                    StudyError::Fleet(_) => "study.error",
                };
                self.recorder.study_finished(req.id, kind, e.to_string());
                Err(e)
            }
        }
    }

    fn run_streaming_inner(
        &self,
        params: &StudyParams,
        sink: &mut dyn EventSink,
        req: RequestInfo,
        phases: &mut Phases,
    ) -> Result<StudyOutcome, StudyError> {
        let Some(cache) = &self.cache else {
            let doc = self.build_streaming(params, sink, req, phases)?;
            return Ok(StudyOutcome {
                cached: false,
                bytes: doc.bytes().len(),
                sections: doc.sections.len(),
            });
        };
        // Whole-study single-flight: identical concurrent requests run
        // the study once; the losers wait and replay the finished
        // document. A mid-build disconnect abandons the slot (waiters
        // take over) rather than caching a half-built study.
        let mut built_here = false;
        let resolved = {
            let built_here = &mut built_here;
            let sink: &mut dyn EventSink = &mut *sink;
            let phases: &mut Phases = &mut *phases;
            cache.try_resolve::<StudyDoc, StudyError, _>(&params.doc_key(), 1 << 16, || {
                *built_here = true;
                self.build_streaming(params, sink, req, phases)
            })?
        };
        // Time blocked on another request's in-flight build of this
        // exact document (single-flight loser wait).
        phases.cache_wait_us += resolved.wait_us;
        let doc = resolved.value;
        let outcome = StudyOutcome {
            cached: !built_here,
            bytes: doc.bytes().len(),
            sections: doc.sections.len(),
        };
        if !built_here {
            // Replay the cached document: same events, zero units.
            self.recorder
                .record(req.id, "study.replay", params.doc_key());
            self.emit_doc(&doc, sink)
                .map_err(StudyError::Disconnected)?;
        }
        Ok(outcome)
    }

    /// Streams an already-built document (cache-hit replay).
    fn emit_doc(&self, doc: &StudyDoc, sink: &mut dyn EventSink) -> io::Result<()> {
        sink.event(&ev_header("cached", &doc.header))?;
        for (name, text) in &doc.sections {
            sink.event(&ev_section(name, text))?;
        }
        Ok(())
    }

    /// Resolves the study's shared build artifacts — through the cache
    /// when enabled, freshly otherwise. Time spent building goes to
    /// `phases.build_us`; time blocked on *another* request's in-flight
    /// build of the same artifact goes to `phases.cache_wait_us`.
    fn artifacts(&self, params: &StudyParams, phases: &mut Phases) -> Artifacts {
        let scale = params.scale();
        let generator = GeneratorConfig {
            seed: params.seed,
            popular: params.popular,
            sensitive: params.sensitive,
            tail: params.tail,
        };
        let sites = u64::from(params.popular + params.sensitive + params.tail);
        let Some(cache) = &self.cache else {
            // Cache-disabled baseline: every request pays full price,
            // including the per-session filterlist compile the offline
            // path does (`shared_filterlist: None`).
            return Artifacts {
                world: Arc::new(timed(&mut phases.build_us, || World::build(&generator))),
                profiles: Arc::new(timed(&mut phases.build_us, || {
                    population(params.seed, params.population)
                })),
                res: Arc::new(timed(&mut phases.build_us, AnalysisResources::standard)),
                config: scale.config(),
            };
        };
        let world_key = format!(
            "world:seed={:#x}:popular={}:sensitive={}:tail={}",
            params.seed, params.popular, params.sensitive, params.tail
        );
        let world = cache.resolve(&world_key, sites * 4096, || World::build(&generator));
        let pop_key = format!("population:seed={:#x}:n={}", params.seed, params.population);
        let profiles = cache.resolve(&pop_key, 64 << 10, || {
            population(params.seed, params.population)
        });
        let filter = cache.resolve("filterlist:easylist-excerpt", 128 << 10, easylist_excerpt);
        let res = cache.resolve("resources:standard", 256 << 10, AnalysisResources::standard);
        for r in [world.wait_us, profiles.wait_us, filter.wait_us, res.wait_us] {
            phases.cache_wait_us += r;
        }
        for r in [
            world.build_us,
            profiles.build_us,
            filter.build_us,
            res.build_us,
        ] {
            phases.build_us += r;
        }
        let config = scale.config().with_shared_filterlist(filter.value);
        Artifacts {
            world: world.value,
            profiles: profiles.value,
            res: res.value,
            config,
        }
    }

    /// Runs the study's units on the pool and streams sections as their
    /// groups complete. Returns the finished document for caching.
    fn build_streaming(
        &self,
        params: &StudyParams,
        sink: &mut dyn EventSink,
        req: RequestInfo,
        phases: &mut Phases,
    ) -> Result<StudyDoc, StudyError> {
        let scale = params.scale();
        let arts = self.artifacts(params, phases);
        let lane = self.next_lane.fetch_add(1, Ordering::Relaxed);
        let tag = format!("study-{lane}");
        let header = timed(&mut phases.render_us, || render::header_md(&scale));
        sink.event(&ev_header(&tag, &header))
            .map_err(StudyError::Disconnected)?;

        // Units in submission order: the offline study's plan, its
        // three groups back to back.
        let [(_, crawls), (_, recrawls), (_, idles)] =
            params.study().plan(&Phase::ALL, &arts.profiles, &arts.config);
        let (n, n_incog) = (crawls.len(), recrawls.len());
        let units: Vec<FleetUnit> = crawls.into_iter().chain(recrawls).chain(idles).collect();
        let total = units.len();

        self.pool.open_lane(lane, self.credits);
        let mut lane_guard = LaneGuard {
            pool: &self.pool,
            lane,
            completed: false,
        };
        let (tx, rx) = mpsc::channel::<(usize, UnitOutput)>();
        // The pool workers are long-lived threads with no thread-local
        // context of their own: the request's trace context is captured
        // here (it is `Copy`) and re-entered inside each job, so unit
        // spans land on the request that scheduled them.
        let ctx = panoptes_obs::ctx::current();
        for (idx, unit) in units.into_iter().enumerate() {
            let world = Arc::clone(&arts.world);
            let config = arts.config.clone();
            let tx = tx.clone();
            let label = unit.label();
            let tag_for_job = tag.clone();
            let narrate = self.narrate;
            let accepted = self.pool.push(
                lane,
                Box::new(move || {
                    let _ctx = ctx.map(panoptes_obs::ctx::enter);
                    let _span = panoptes_obs::trace::span_with("serve.unit", None, || {
                        format!("[{tag_for_job}] {label}")
                    });
                    let output = fleet::run_unit(&world, &world.sites, &config, &unit);
                    if narrate {
                        panoptes_obs::progress::emit(
                            "serve",
                            &format!("[{tag_for_job}] {label}: sealed"),
                        );
                    }
                    // A dropped receiver means the client disconnected
                    // and the lane is being torn down; the result is
                    // simply discarded.
                    let _ = tx.send((idx, output));
                }),
            );
            if !accepted {
                return Err(StudyError::Fleet("pool rejected study unit".to_string()));
            }
        }
        drop(tx);

        // Collect in completion order, analysing each capture as it
        // arrives; emit section groups in document order the moment
        // their inputs are complete.
        let mut crawl_analyses: Vec<Option<CampaignAnalysis>> = (0..n).map(|_| None).collect();
        let mut incog_analyses: Vec<Option<CampaignAnalysis>> =
            (0..n_incog).map(|_| None).collect();
        let mut idle_analyses: Vec<Option<IdleAnalysis>> = (0..n).map(|_| None).collect();
        let (mut crawls_done, mut incogs_done, mut idles_done) = (0usize, 0usize, 0usize);
        let (mut crawl_emitted, mut incog_emitted, mut idle_emitted) = (false, false, false);
        // The crawl group's analyses, kept for the §3.2 normal arms.
        let mut crawled: Vec<CampaignAnalysis> = Vec::new();
        let mut sections: Vec<(String, String)> = Vec::new();

        for received in 0..total {
            let Ok((idx, output)) = timed(&mut phases.capture_us, || rx.recv()) else {
                // A unit panicked (its sender died without sending) —
                // the lane guard cancels what's left.
                return Err(StudyError::Fleet(
                    "a campaign unit failed; study aborted".to_string(),
                ));
            };
            match output {
                UnitOutput::Crawl(result) => {
                    let analysis =
                        timed(&mut phases.analysis_us, || analyze_crawl(&result, &arts.res));
                    if idx < n {
                        crawl_analyses[idx] = Some(analysis);
                        crawls_done += 1;
                    } else {
                        incog_analyses[idx - n] = Some(analysis);
                        incogs_done += 1;
                    }
                }
                UnitOutput::Idle(result) => {
                    idle_analyses[idx - n - n_incog] =
                        Some(timed(&mut phases.analysis_us, || analyze_idle(&result)));
                    idles_done += 1;
                }
            }
            self.recorder.study_progress(req.id, received + 1, total);
            sink.event(&ev_progress(&tag, received + 1, total))
                .map_err(StudyError::Disconnected)?;

            if !crawl_emitted && crawls_done == n {
                crawled = crawl_analyses.drain(..).flatten().collect();
                let rendered =
                    timed(&mut phases.render_us, || render::crawl_sections(&[], &crawled));
                for (name, text) in rendered {
                    sink.event(&ev_section(name, &text))
                        .map_err(StudyError::Disconnected)?;
                    sections.push((name.to_string(), text));
                }
                crawl_emitted = true;
            }
            if crawl_emitted && !incog_emitted && incogs_done == n_incog {
                let incognito: Vec<_> = incog_analyses.drain(..).flatten().collect();
                let (name, text) = timed(&mut phases.render_us, || {
                    render::incognito_section(&incognito_pairs(&crawled, incognito))
                });
                sink.event(&ev_section(name, &text))
                    .map_err(StudyError::Disconnected)?;
                sections.push((name.to_string(), text));
                incog_emitted = true;
            }
            if incog_emitted && !idle_emitted && idles_done == n {
                let analyses: Vec<_> = idle_analyses.drain(..).flatten().collect();
                let rendered = timed(&mut phases.render_us, || render::idle_sections(&analyses));
                for (name, text) in rendered {
                    sink.event(&ev_section(name, &text))
                        .map_err(StudyError::Disconnected)?;
                    sections.push((name.to_string(), text));
                }
                idle_emitted = true;
            }

            // Results held for a not-yet-complete group: the stream's
            // buffer occupancy.
            let buffered = (if crawl_emitted { 0 } else { crawls_done })
                + (if incog_emitted { 0 } else { incogs_done })
                + (if idle_emitted { 0 } else { idles_done });
            panoptes_obs::gauge_set!("serve.stream.buffered_units", buffered as i64);

            // The client drained everything due so far: release one
            // more unit into the pool (backpressure valve).
            self.pool.grant(lane, 1);
        }

        if !(crawl_emitted && incog_emitted && idle_emitted) {
            return Err(StudyError::Fleet(
                "study ended with incomplete groups".to_string(),
            ));
        }
        lane_guard.completed = true;
        drop(lane_guard);
        Ok(StudyDoc { header, sections })
    }
}

/// The per-study build inputs, shared across requests when the cache
/// is enabled.
struct Artifacts {
    world: Arc<World>,
    profiles: Arc<Vec<BrowserProfile>>,
    res: Arc<AnalysisResources>,
    /// The campaign config for this study (shared filterlist wired in
    /// when cached).
    config: CampaignConfig,
}

/// Cancels the study's lane unless the study completed — the
/// no-slot-leak guarantee on disconnect, unit failure, or panic.
struct LaneGuard<'a> {
    pool: &'a WorkPool,
    lane: u64,
    completed: bool,
}

impl Drop for LaneGuard<'_> {
    fn drop(&mut self) {
        if self.completed {
            self.pool.close_lane(self.lane);
        } else {
            self.pool.cancel(self.lane);
        }
    }
}

/// `{"event":"header",...}` — the study's first event (time-to-first-
/// event is measured to this line).
fn ev_header(tag: &str, data: &str) -> String {
    format!(
        "{{\"event\":\"header\",\"study\":{},\"data\":{}}}",
        json::quoted(tag),
        json::quoted(data)
    )
}

/// `{"event":"section",...}` — one document section's exact bytes.
fn ev_section(name: &str, data: &str) -> String {
    format!(
        "{{\"event\":\"section\",\"name\":{},\"data\":{}}}",
        json::quoted(name),
        json::quoted(data)
    )
}

/// `{"event":"progress",...}` — units completed so far.
fn ev_progress(tag: &str, done: usize, total: usize) -> String {
    format!(
        "{{\"event\":\"progress\",\"study\":{},\"done\":{done},\"total\":{total}}}",
        json::quoted(tag)
    )
}

/// `{"event":"timing",...}` — the non-deterministic latency-attribution
/// trailer, emitted immediately before `done`. `other_us` is the
/// unattributed remainder, so the seven phases plus `other_us` sum to
/// `total_us` exactly (modulo saturation when clock granularity makes
/// the phase sum overshoot by a few µs).
fn ev_timing(request: u64, cached: bool, total_us: u64, ttfe_us: u64, phases: &Phases) -> String {
    let other_us = total_us.saturating_sub(phases.sum());
    format!(
        "{{\"event\":\"timing\",\"request\":{request},\"cached\":{cached},\
         \"total_us\":{total_us},\"ttfe_us\":{ttfe_us},\
         \"admission_us\":{},\"cache_wait_us\":{},\"build_us\":{},\"capture_us\":{},\
         \"analysis_us\":{},\"render_us\":{},\"write_us\":{},\"other_us\":{other_us}}}",
        phases.admission_us,
        phases.cache_wait_us,
        phases.build_us,
        phases.capture_us,
        phases.analysis_us,
        phases.render_us,
        phases.write_us,
    )
}

/// Feeds one finished request's attribution into the `/metrics` log2
/// histograms (`serve.ttfe_us`, `serve.completion_us`, and one
/// `serve.phase.*` histogram per phase).
fn record_phase_histograms(total_us: u64, ttfe_us: u64, phases: &Phases) {
    panoptes_obs::record!("serve.ttfe_us", Runtime, ttfe_us);
    panoptes_obs::record!("serve.completion_us", Runtime, total_us);
    panoptes_obs::record!("serve.study.wall_us", Runtime, total_us);
    panoptes_obs::record!("serve.phase.admission_us", Runtime, phases.admission_us);
    panoptes_obs::record!("serve.phase.cache_wait_us", Runtime, phases.cache_wait_us);
    panoptes_obs::record!("serve.phase.build_us", Runtime, phases.build_us);
    panoptes_obs::record!("serve.phase.capture_us", Runtime, phases.capture_us);
    panoptes_obs::record!("serve.phase.analysis_us", Runtime, phases.analysis_us);
    panoptes_obs::record!("serve.phase.render_us", Runtime, phases.render_us);
    panoptes_obs::record!("serve.phase.write_us", Runtime, phases.write_us);
}

/// `{"event":"done",...}` — the stream's terminal event.
fn ev_done(outcome: &StudyOutcome) -> String {
    format!(
        "{{\"event\":\"done\",\"cached\":{},\"bytes\":{},\"sections\":{}}}",
        outcome.cached, outcome.bytes, outcome.sections
    )
}

/// `{"event":"error",...}` — emitted before closing on a failed study.
pub fn ev_error(message: &str) -> String {
    format!(
        "{{\"event\":\"error\",\"message\":{}}}",
        json::quoted(message)
    )
}
