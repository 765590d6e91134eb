//! The streamed study runner: parameters → shared artifacts → study
//! units on the pool → incremental section events, byte-identical to
//! `repro`.
//!
//! A study at parameters `(seed, sites, population, idle)` is exactly
//! the offline reproduction document: header, the crawl-derived
//! sections, the §3.2 incognito section, and the idle sections. The
//! runner schedules every campaign unit of the study's plan
//! ([`Study::plan`]: the crawls, the §3.2 incognito crawls, the idles)
//! as individual jobs on the server's shared [`WorkPool`] lane for this
//! request. Each job is `repro`'s unit job ([`analyse_unit`]): the
//! worker that captures a crawl folds it into the analysis as it is
//! captured, and hands back only the analysis. The request's handler
//! thread feeds the analyses to `repro`'s re-sequencer ([`Assembly`]),
//! which hands each phase over the moment its last unit arrives, then
//! renders and streams it. Concatenating the streamed `header`/`section`
//! payload bytes reproduces `repro`'s stdout exactly (enforced by
//! `tests/serve_determinism.rs`).
//!
//! Write schedule: events are handed to the sink as they are due, and
//! the sink is flushed each time the runner is about to wait — after
//! the header (before the first unit arrives) and after each received
//! unit's events (before its credit goes back) — then finished after
//! `done`. The HTTP sink sends each flush in one write, so a cached
//! replay, which never waits, leaves in a single write.
//!
//! Backpressure: the lane is opened with a small credit allowance and
//! a credit is granted back only after a received unit's due events
//! have been flushed to the client socket. A client that stops reading
//! therefore stalls its own lane's dispatch — bounded buffered results
//! — while other studies keep the workers busy (the pool is
//! work-conserving).
//!
//! Cancellation: every event write can fail (client went away). The
//! runner then drops its lane — pending units are discarded, in-flight
//! units finish and their results are dropped — and, when it was the
//! single-flight builder of a cached document, abandons the cache slot
//! so a later request rebuilds cleanly. No slot, thread, or cache key
//! leaks.
//!
//! Failure: a unit job that panics is caught on its worker, which sends
//! the unit's [`FleetFailure`] in place of its analysis. The runner
//! ends the study at the first failure it receives with
//! `unit <label> failed: <message>`, the error `repro` gives, and drops
//! its lane as on a disconnect. A job that died without sending would
//! hold its credit for good, so a lane whose credits all went to
//! panicking units would never dispatch again.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use panoptes::config::CampaignConfig;
use panoptes::fleet::{panic_message, FleetFailure, FleetOptions, FleetUnit, WorkPool};
use panoptes_analysis::engine::AnalysisResources;
use panoptes_bench::experiments::Scale;
use panoptes_bench::render;
use panoptes_bench::study::{analyse_unit, Analysed, Assembly, Phase, Study, UnitAnalysis};
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
                format!("--sites {}", self.scale().sites())
            } else {
                String::new()
            }
        )
        .trim_end()
        .to_string()
    }
}

/// Where study events go: the server's chunked HTTP stream, or a
/// buffer in tests. An `Err` from any method means the consumer is
/// gone; the runner cancels the study's lane.
///
/// A sink may hold events back until [`EventSink::flush`], which the
/// runner calls each time it is about to wait (for a unit, or before it
/// returns a unit's credit), and [`EventSink::finish`], which ends the
/// stream after `done`. A sink that delivers each event as it arrives
/// needs neither.
pub trait EventSink {
    /// Delivers (or queues) one event line (without trailing newline).
    fn event(&mut self, line: &str) -> io::Result<()>;

    /// Delivers every queued event.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Delivers every queued event and ends the stream.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
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
    /// Waiting for campaign units: capturing and analysing them on the
    /// pool, overlapped across its workers.
    pub capture_us: u64,
    /// Rendering document sections.
    pub render_us: u64,
    /// Handing events to the sink and flushing them to the client
    /// socket — includes backpressure stalls when the client reads
    /// slowly. The HTTP sink only frames an event into its buffer; the
    /// socket time falls in the flushes, one before each wait. The
    /// stream's last write (`finish`) follows the `timing` trailer, so
    /// a replay, whose only write that is, reads ~0 here.
    pub write_us: u64,
}

impl Phases {
    /// Sum of every attributed phase.
    pub fn sum(&self) -> u64 {
        self.admission_us
            + self.cache_wait_us
            + self.build_us
            + self.capture_us
            + self.render_us
            + self.write_us
    }
}

/// Wraps the caller's sink to observe every call: accumulates sink
/// time (the `write_us` phase, backpressure included), pins
/// time-to-first-event when the first event is handed over, and bumps
/// the flight recorder's progress clock on every successful call so a
/// slowly-draining study is not mistaken for a wedged one.
struct TimedSink<'a> {
    inner: &'a mut dyn EventSink,
    recorder: &'a FlightRecorder,
    request: u64,
    started: Instant,
    write_us: u64,
    first_event_us: Option<u64>,
}

impl TimedSink<'_> {
    fn timed_call(&mut self, call: impl FnOnce(&mut dyn EventSink) -> io::Result<()>) -> io::Result<()> {
        let write_start = Instant::now();
        let result = call(&mut *self.inner);
        self.write_us += write_start.elapsed().as_micros() as u64;
        if result.is_ok() {
            self.recorder.touch(self.request);
        }
        result
    }
}

impl EventSink for TimedSink<'_> {
    fn event(&mut self, line: &str) -> io::Result<()> {
        let result = self.timed_call(|sink| sink.event(line));
        if self.first_event_us.is_none() {
            self.first_event_us = Some(self.started.elapsed().as_micros() as u64);
        }
        result
    }

    fn flush(&mut self) -> io::Result<()> {
        self.timed_call(|sink| sink.flush())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.timed_call(|sink| sink.finish())
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
/// kept as the events that stream it.
pub struct StudyDoc {
    /// The header block (`render::header_md`).
    pub header: String,
    /// Each section's `section` event line, in document order, escaped
    /// once while the study was built.
    pub sections: Vec<String>,
    /// The document's length: the header's bytes plus every section's.
    pub bytes: usize,
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

/// The job that runs one planned unit on a pool worker:
/// [`analyse_unit`]'s signature.
type UnitJob = fn(
    &World,
    &CampaignConfig,
    &AnalysisResources,
    &FleetUnit,
    bool,
    &FleetOptions,
) -> UnitAnalysis;

/// The shared study engine: one per server process. Owns the worker
/// pool every study's units interleave on, and (optionally) the
/// shared-artifact cache. With `cache: None` every request builds its
/// world, population, filterlist and document from scratch.
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
    /// Runs each unit: [`analyse_unit`], the job `repro` runs.
    unit_job: UnitJob,
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
            unit_job: analyse_unit,
        }
    }

    /// An engine whose units run `unit_job` in place of
    /// [`analyse_unit`], so a test can make chosen units fail.
    #[cfg(test)]
    fn with_unit_job(
        workers: usize,
        cache_budget_bytes: Option<u64>,
        unit_job: UnitJob,
    ) -> StudyEngine {
        StudyEngine { unit_job, ..StudyEngine::new(workers, cache_budget_bytes) }
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
    /// ([`Phases`]). The sink is finished after `done`, before the
    /// study is reported finished to the flight recorder. Callers
    /// without a front-end server pass [`RequestInfo::local()`].
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
        let result = self
            .run_streaming_inner(params, &mut timed_sink, req, &mut phases)
            .and_then(|outcome| {
                phases.write_us = timed_sink.write_us;
                let total_us = req.started.elapsed().as_micros() as u64;
                let ttfe_us = timed_sink.first_event_us.unwrap_or(total_us);
                let trailer = ev_timing(req.id, outcome.cached, total_us, ttfe_us, &phases);
                // Traced before the trailer leaves: a client that has
                // read the whole stream may already have switched
                // tracing on or off, and a point recorded after
                // `finish` would follow that switch, not this request.
                panoptes_obs::trace::point_with("serve.timing", None, || trailer.clone());
                timed_sink.event(&trailer).map_err(StudyError::Disconnected)?;
                timed_sink.event(&ev_done(&outcome)).map_err(StudyError::Disconnected)?;
                // Finished before `study_finished`: a client that stops
                // reading stalls here, where the watchdog still sees
                // the study as active.
                timed_sink.finish().map_err(StudyError::Disconnected)?;
                record_phase_histograms(total_us, ttfe_us, &phases);
                Ok((outcome, total_us))
            });
        panoptes_obs::gauge_add!("serve.studies.inflight", -1);
        match result {
            Ok((outcome, total_us)) => {
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
                bytes: doc.bytes,
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
            bytes: doc.bytes,
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

    /// Streams an already-built document (cache-hit replay). Nothing
    /// here waits, so nothing is flushed: the whole replay leaves with
    /// the stream's finish.
    fn emit_doc(&self, doc: &StudyDoc, sink: &mut dyn EventSink) -> io::Result<()> {
        sink.event(&ev_header("cached", &doc.header))?;
        for line in &doc.sections {
            sink.event(line)?;
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
        let sites = scale.sites();
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

    /// Runs the study's units on the pool and streams each phase's
    /// sections as the phase completes. Returns the finished document
    /// for caching.
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
        // Flushed at once: the header is the live study's first event,
        // and everything after it waits on units.
        sink.event(&ev_header(&tag, &header))
            .and_then(|()| sink.flush())
            .map_err(StudyError::Disconnected)?;

        // Units in submission order: the offline study's plan.
        let plan = params.study().plan(&Phase::ALL, &arts.profiles, &arts.config);
        let total: usize = plan.iter().map(|(_, units)| units.len()).sum();
        let mut assembly = Assembly::new(&plan);

        self.pool.open_lane(lane, self.credits);
        let mut lane_guard = LaneGuard {
            pool: &self.pool,
            lane,
            completed: false,
        };
        let (tx, rx) = mpsc::channel::<Result<(usize, UnitAnalysis), FleetFailure>>();
        // The pool workers are long-lived threads with no thread-local
        // context of their own: the request's trace context is captured
        // here (it is `Copy`) and re-entered inside each job, so unit
        // spans land on the request that scheduled them.
        let ctx = panoptes_obs::ctx::current();
        let options = FleetOptions {
            jobs: None,
            progress: self.narrate,
            tag: Some(tag.clone()),
        };
        let job = self.unit_job;
        for (index, unit) in plan.into_iter().flat_map(|(_, units)| units).enumerate() {
            let (world, res) = (Arc::clone(&arts.world), Arc::clone(&arts.res));
            let (config, options, tx) = (arts.config.clone(), options.clone(), tx.clone());
            let accepted = self.pool.push(
                lane,
                Box::new(move || {
                    let _ctx = ctx.map(panoptes_obs::ctx::enter);
                    let _span = panoptes_obs::trace::span_with("serve.unit", None, || {
                        options.decorate(&unit.label())
                    });
                    // A panic is caught here and reported, so every job
                    // sends exactly once (see the module doc).
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        job(&world, &config, &res, &unit, false, &options)
                    }))
                    .map(|analysis| (index, analysis))
                    .map_err(|payload| FleetFailure {
                        unit: unit.label(),
                        index,
                        message: panic_message(payload.as_ref()),
                    });
                    // A dropped receiver means the study ended (client
                    // gone or another unit failed) and the lane is being
                    // torn down; the outcome is simply discarded.
                    let _ = tx.send(outcome);
                }),
            );
            if !accepted {
                return Err(StudyError::Fleet("pool rejected study unit".to_string()));
            }
        }
        drop(tx);

        let mut sections: Vec<String> = Vec::new();
        let mut bytes = header.len();
        for received in 0..total {
            // On a failure the lane guard cancels what is left.
            let (index, analysis) = match timed(&mut phases.capture_us, || rx.recv()) {
                Ok(Ok(unit)) => unit,
                Ok(Err(failure)) => return Err(StudyError::Fleet(failure.to_string())),
                Err(_) => {
                    return Err(StudyError::Fleet(
                        "the pool dropped a study unit unrun".to_string(),
                    ))
                }
            };
            self.recorder.study_progress(req.id, received + 1, total);
            sink.event(&ev_progress(&tag, received + 1, total))
                .map_err(StudyError::Disconnected)?;
            let rendered: Vec<_> = timed(&mut phases.render_us, || {
                assembly.accept(index, analysis).iter().flat_map(Analysed::sections).collect()
            });
            for (name, text) in rendered {
                let line = ev_section(name, &text);
                sink.event(&line).map_err(StudyError::Disconnected)?;
                bytes += text.len();
                sections.push(line);
            }
            // Results held for a not-yet-complete phase: the stream's
            // buffer occupancy.
            panoptes_obs::gauge_set!("serve.stream.buffered_units", assembly.buffered() as i64);

            // Everything due so far leaves before the next wait, and the
            // credit comes back only once the client has taken it: a
            // client that stops reading blocks this flush, so its lane
            // dispatches no further units (backpressure valve).
            sink.flush().map_err(StudyError::Disconnected)?;
            self.pool.grant(lane, 1);
        }

        lane_guard.completed = true;
        drop(lane_guard);
        Ok(StudyDoc { header, sections, bytes })
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
/// unattributed remainder, so the phases plus `other_us` sum to
/// `total_us` exactly (modulo saturation when clock granularity makes
/// the phase sum overshoot by a few µs). Units are analysed where they
/// are captured, inside `capture_us`; `analysis_us` stays in the
/// trailer, always 0, because trailer parsers require every key.
/// `ttfe_us` is stamped when the first event (the header) is handed to
/// the sink: a live study flushes it at once, while a replay's header
/// leaves with the rest in the one write after this trailer.
/// `write_us` times the sink calls before the trailer, flushes
/// included, so it reads ~0 on a replay.
fn ev_timing(request: u64, cached: bool, total_us: u64, ttfe_us: u64, phases: &Phases) -> String {
    let other_us = total_us.saturating_sub(phases.sum());
    format!(
        "{{\"event\":\"timing\",\"request\":{request},\"cached\":{cached},\
         \"total_us\":{total_us},\"ttfe_us\":{ttfe_us},\
         \"admission_us\":{},\"cache_wait_us\":{},\"build_us\":{},\"capture_us\":{},\
         \"analysis_us\":0,\"render_us\":{},\"write_us\":{},\"other_us\":{other_us}}}",
        phases.admission_us,
        phases.cache_wait_us,
        phases.build_us,
        phases.capture_us,
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Records each call the runner makes on its sink: an event by its
    /// `event` name, then `flush` and `finish`. A finish must come
    /// while the flight recorder still lists the study as active.
    struct CallLog(Vec<String>, Arc<FlightRecorder>);

    impl EventSink for CallLog {
        fn event(&mut self, line: &str) -> io::Result<()> {
            self.0.push(json::field(line, "event").unwrap_or_default());
            Ok(())
        }

        fn flush(&mut self) -> io::Result<()> {
            self.0.push("flush".to_string());
            Ok(())
        }

        fn finish(&mut self) -> io::Result<()> {
            let dump = self.1.dump_to_string("probe", "");
            assert!(dump.contains("\"active\":1,"), "finished after study_finished: {dump}");
            self.0.push("finish".to_string());
            Ok(())
        }
    }

    #[test]
    fn a_build_flushes_before_each_wait_and_a_replay_only_finishes() {
        let engine = StudyEngine::new(2, Some(16 << 20));
        let params =
            StudyParams { popular: 2, sensitive: 1, population: 2, ..StudyParams::default() };

        let mut build = CallLog(Vec::new(), Arc::clone(engine.recorder()));
        let built = engine.run_streaming(&params, &mut build, RequestInfo::local()).expect("build");
        assert!(!built.cached);
        let calls = &build.0;
        assert_eq!(calls[..2], ["header", "flush"], "the header leaves before any unit is awaited");
        let (body, tail) = calls[2..].split_at(calls.len() - 5);
        assert_eq!(tail, ["timing", "done", "finish"]);
        let units: Vec<&[String]> = body.split_inclusive(|call| call == "flush").collect();
        assert_eq!(units.len(), params.study().unit_count(&Phase::ALL), "one flush per unit");
        for unit in &units {
            let (first, rest) = unit.split_first().expect("non-empty");
            assert_eq!(first, "progress", "{unit:?}");
            assert_eq!(rest.last().map(String::as_str), Some("flush"), "{unit:?}");
            assert!(rest[..rest.len() - 1].iter().all(|call| call == "section"), "{unit:?}");
        }
        let sections = calls.iter().filter(|call| *call == "section").count();
        assert_eq!(sections, built.sections);

        let mut replay = CallLog(Vec::new(), Arc::clone(engine.recorder()));
        let replayed =
            engine.run_streaming(&params, &mut replay, RequestInfo::local()).expect("replay");
        assert!(replayed.cached);
        assert_eq!(replayed.bytes, built.bytes);
        let mut want = vec!["header"];
        want.extend(std::iter::repeat_n("section", sections));
        want.extend(["timing", "done", "finish"]);
        assert_eq!(replay.0, want, "a replay never flushes before its one finish");
    }

    /// The study the failure test runs: population 6 plans 16 units.
    fn six_browsers() -> StudyParams {
        StudyParams { popular: 2, sensitive: 1, population: 6, ..StudyParams::default() }
    }

    /// The labels of the units at plan indices `range` of `params`' plan.
    fn plan_labels(params: &StudyParams, range: std::ops::Range<usize>) -> Vec<String> {
        let profiles = population(params.seed, params.population);
        let plan = params.study().plan(&Phase::ALL, &profiles, &params.scale().config());
        let units = plan.into_iter().flat_map(|(_, units)| units);
        units.skip(range.start).take(range.len()).map(|u| u.label()).collect()
    }

    /// [`analyse_unit`], except that the units at plan indices
    /// `FROM..TO` of [`six_browsers`]' plan panic.
    fn units_panic<const FROM: usize, const TO: usize>(
        world: &World,
        config: &CampaignConfig,
        res: &AnalysisResources,
        unit: &FleetUnit,
        keep: bool,
        options: &FleetOptions,
    ) -> UnitAnalysis {
        if plan_labels(&six_browsers(), FROM..TO).contains(&unit.label()) {
            panic!("injected failure");
        }
        analyse_unit(world, config, res, unit, keep, options)
    }

    #[test]
    fn a_panicking_unit_ends_its_study_with_an_error_naming_it() {
        let params = six_browsers();
        assert_eq!(params.study().unit_count(&Phase::ALL), 16);
        let labels: std::collections::BTreeSet<String> =
            plan_labels(&params, 0..16).into_iter().collect();
        assert_eq!(labels.len(), 16, "a label names one unit, so one index panics one unit");
        let deadline = Instant::now() + Duration::from_secs(10);
        // The first unit; the first 4 (exactly the lane's 4 credits) and
        // the first 5 (more than them); the last unit; a middle one.
        let jobs: [(std::ops::Range<usize>, UnitJob); 5] = [
            (0..1, units_panic::<0, 1>),
            (0..4, units_panic::<0, 4>),
            (0..5, units_panic::<0, 5>),
            (15..16, units_panic::<15, 16>),
            (7..8, units_panic::<7, 8>),
        ];
        let runs: Vec<_> = jobs
            .into_iter()
            .map(|(panicking, job)| {
                let engine = Arc::new(StudyEngine::with_unit_job(2, Some(16 << 20), job));
                let (tx, rx) = mpsc::channel();
                let runner = Arc::clone(&engine);
                let thread = std::thread::spawn(move || {
                    let result =
                        runner.run_streaming(&params, &mut Vec::new(), RequestInfo::local());
                    let _ = tx.send(result.map(|_| ()).map_err(|e| e.to_string()));
                });
                (panicking, engine, rx, thread)
            })
            .collect();
        // Every study must end before any is checked: a study that hangs
        // fails the test at the deadline, and its thread is left behind.
        let ended: Vec<_> = runs
            .into_iter()
            .map(|(panicking, engine, rx, thread)| {
                let timeout = deadline.saturating_duration_since(Instant::now());
                let Ok(result) = rx.recv_timeout(timeout) else {
                    panic!("with units {panicking:?} panicking the study did not end within 10 s");
                };
                thread.join().expect("the study thread returns");
                (panicking, engine, result)
            })
            .collect();
        for (panicking, engine, result) in ended {
            let message = result.expect_err("a study with a panicking unit fails");
            let named = plan_labels(&params, panicking.clone())
                .iter()
                .any(|label| message.contains(&format!("unit {label} failed: injected failure")));
            assert!(named, "with units {panicking:?} panicking: {message}");
            // The lane is reaped once its in-flight units drain.
            while engine.lanes() > 0 {
                assert!(
                    Instant::now() < deadline,
                    "{panicking:?}: lane still open at the deadline"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}
