//! The fleet executor: runs campaign units across a bounded worker pool.
//!
//! The paper's study is 15 browsers × (crawl + idle) = 30 campaign
//! units, and every unit assembles its own isolated [`Testbed`] — its
//! own simulated tablet, network, proxy, capture database, and clock.
//! Units therefore share **no mutable state** (the [`World`] is read
//! concurrently but never written after construction), which makes the
//! fleet embarrassingly parallel *and* observation-preserving:
//!
//! * every unit computes exactly what the sequential path computes —
//!   same flows, same ids, same virtual timestamps — because nothing a
//!   unit observes depends on which worker ran it or when;
//! * results are re-ordered into the submission order ([`execute`]) or
//!   by the caller ([`execute_each`]), so downstream renderers and
//!   exporters see the byte-exact sequential output.
//!
//! `tests/fleet_determinism.rs` (workspace root) enforces the guarantee
//! end-to-end: the full-study export is byte-identical for any worker
//! count.
//!
//! Panics are isolated per unit: a panicking campaign is reported as a
//! failed unit (with its browser name and the panic message) and the
//! remaining units still complete. The fleet returns
//! `Result<Vec<_>, FleetError<_>>` rather than poisoning the study;
//! completed results stay available inside the error.
//!
//! [`Testbed`]: crate::testbed::Testbed
//! [`World`]: panoptes_web::World

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex as StdMutex};
use std::thread::JoinHandle;
use std::time::Instant;

use panoptes_browsers::{BrowserProfile, BrowsingMode};
use panoptes_simnet::clock::SimDuration;
use panoptes_web::site::SiteSpec;
use panoptes_web::World;

use crate::campaign::{run_crawl, CampaignResult};
use crate::config::CampaignConfig;
use crate::idle::{run_idle, IdleResult};

/// How wide the fleet runs, and whether it narrates to stderr.
#[derive(Debug, Clone, Default)]
pub struct FleetOptions {
    /// Worker count. `None` uses the machine's available parallelism;
    /// `Some(1)` forces the sequential path (no worker threads at all).
    pub jobs: Option<usize>,
    /// Per-unit progress lines on stderr (started / finished / failed).
    /// Lines go through the structured [`panoptes_obs::progress`] sink:
    /// written atomically (no tearing under high `jobs`), coloured only
    /// on a tty with `NO_COLOR` unset.
    pub progress: bool,
    /// Request/study tag prefixed to every progress line this fleet
    /// emits (`[study-7] Chrome crawl: started`), so interleaved
    /// concurrent studies sharing one stderr narrate unambiguously.
    /// `None` keeps the historical untagged lines.
    pub tag: Option<String>,
}

impl FleetOptions {
    /// An option set running `jobs` workers, silent.
    pub fn with_jobs(jobs: usize) -> FleetOptions {
        FleetOptions {
            jobs: Some(jobs),
            progress: false,
            tag: None,
        }
    }

    /// An option set running `jobs` workers with progress reporting on.
    pub fn with_progress(jobs: usize) -> FleetOptions {
        FleetOptions::with_jobs(jobs).verbose()
    }

    /// Enables stderr progress reporting.
    pub fn verbose(mut self) -> FleetOptions {
        self.progress = true;
        self
    }

    /// Tags every progress line with a request/study id.
    pub fn with_tag(mut self, tag: impl Into<String>) -> FleetOptions {
        self.tag = Some(tag.into());
        self
    }

    /// Applies the options' tag to one progress message:
    /// `"Chrome crawl: started"` becomes `"[study-7] Chrome crawl:
    /// started"` under `with_tag("study-7")`, and stays untouched when
    /// no tag is set.
    pub fn decorate(&self, msg: &str) -> String {
        match &self.tag {
            Some(tag) => format!("[{tag}] {msg}"),
            None => msg.to_string(),
        }
    }

    /// The effective worker count for `n_units` units.
    pub fn effective_jobs(&self, n_units: usize) -> usize {
        let requested = self.jobs.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        requested.clamp(1, n_units.max(1))
    }
}

/// One failed campaign unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetFailure {
    /// The unit's label (browser name + experiment kind).
    pub unit: String,
    /// The unit's position in the submission order.
    pub index: usize,
    /// The panic message, as well as it could be extracted.
    pub message: String,
}

/// `unit <label> failed: <message>`: how `repro` and the study server
/// both report a failed unit.
impl fmt::Display for FleetFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unit {} failed: {}", self.unit, self.message)
    }
}

/// The fleet's error: which units failed, plus every completed result
/// (in submission order, `None` at the failed slots) so a caller can
/// salvage the rest of the study.
pub struct FleetError<T> {
    /// The failed units, in submission order.
    pub failures: Vec<FleetFailure>,
    /// Results of the units that completed, in submission order.
    pub completed: Vec<Option<T>>,
}

impl<T> fmt::Display for FleetError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.completed.len();
        write!(f, "{}/{} fleet units failed:", self.failures.len(), total)?;
        for failure in &self.failures {
            write!(
                f,
                " [{}] {} ({});",
                failure.index, failure.unit, failure.message
            )?;
        }
        Ok(())
    }
}

impl<T> fmt::Debug for FleetError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetError")
            .field("failures", &self.failures)
            .field(
                "completed_units",
                &self.completed.iter().filter(|c| c.is_some()).count(),
            )
            .finish()
    }
}

impl<T> std::error::Error for FleetError<T> {}

/// Extracts the human-readable message from a caught panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// [`execute_each`], collected: the results **in submission order**.
pub fn execute<T, F>(
    labels: &[String],
    options: &FleetOptions,
    runner: F,
) -> Result<Vec<T>, FleetError<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut completed: Vec<Option<T>> = labels.iter().map(|_| None).collect();
    let mut failures: Vec<FleetFailure> = Vec::new();
    execute_each(labels, options, runner, |index, outcome| match outcome {
        Ok(value) => completed[index] = Some(value),
        Err(failure) => failures.push(failure),
    });
    if failures.is_empty() {
        return Ok(completed.into_iter().flatten().collect());
    }
    failures.sort_by_key(|failure| failure.index);
    Err(FleetError { failures, completed })
}

/// Runs `runner(0..labels.len())` across a bounded worker pool, which
/// claims units in submission order, and hands each unit's outcome to
/// `on_outcome` on the calling thread as it completes — the fleet's
/// generic engine, also usable for fault injection in tests.
///
/// With one effective worker the units run in order on the calling
/// thread, in its malloc arena, which measured faster than a worker
/// thread's own. Panic isolation applies in both modes.
pub fn execute_each<T, F>(
    labels: &[String],
    options: &FleetOptions,
    runner: F,
    mut on_outcome: impl FnMut(usize, Result<T, FleetFailure>),
) where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let n = labels.len();
    let jobs = options.effective_jobs(n);
    let started_at = Instant::now();
    let _fleet_span =
        panoptes_obs::trace::span_with("fleet.execute", None, || format!("{n} units, {jobs} jobs"));
    // Runtime-class: which work runs through the fleet (vs the serving
    // layer's pool) is a property of the execution mode, not the
    // workload.
    panoptes_obs::count!("fleet.units.submitted", Runtime, n as u64);
    if options.progress {
        panoptes_obs::progress::emit(
            "fleet",
            &options.decorate(&format!("{n} units across {jobs} worker(s)")),
        );
    }

    let failed = AtomicUsize::new(0);
    let run_one = |index: usize| -> Result<T, FleetFailure> {
        let _unit_span =
            panoptes_obs::trace::span_with("fleet.unit", None, || labels[index].clone());
        if options.progress {
            panoptes_obs::progress::emit(
                "fleet",
                &options.decorate(&format!("{}: started", labels[index])),
            );
        }
        let unit_start = Instant::now();
        match catch_unwind(AssertUnwindSafe(|| runner(index))) {
            Ok(value) => {
                panoptes_obs::count!("fleet.units.completed", Runtime);
                panoptes_obs::record!(
                    "fleet.unit.wall_us",
                    Runtime,
                    unit_start.elapsed().as_micros() as u64
                );
                if options.progress {
                    panoptes_obs::progress::emit(
                        "fleet",
                        &options.decorate(&format!(
                            "{}: finished in {:?}",
                            labels[index],
                            unit_start.elapsed()
                        )),
                    );
                }
                Ok(value)
            }
            Err(payload) => {
                let failure = FleetFailure {
                    unit: labels[index].clone(),
                    index,
                    message: panic_message(payload.as_ref()),
                };
                failed.fetch_add(1, Ordering::Relaxed);
                panoptes_obs::count!("fleet.units.failed", Runtime);
                if options.progress {
                    panoptes_obs::progress::emit(
                        "fleet",
                        &options
                            .decorate(&format!("{}: FAILED ({})", failure.unit, failure.message)),
                    );
                }
                Err(failure)
            }
        }
    };

    if jobs <= 1 {
        for index in 0..n {
            on_outcome(index, run_one(index));
        }
    } else {
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel();
        // Hand the caller's request context (if any) across the worker
        // thread boundary, so units run for a served study keep carrying
        // its request id.
        let ctx = panoptes_obs::ctx::current();
        crossbeam::thread::scope(|s| {
            let handles: Vec<_> = (0..jobs)
                .map(|_| {
                    let (tx, next, run_one) = (tx.clone(), &next, &run_one);
                    s.spawn(move |_| {
                        let _ctx = ctx.map(panoptes_obs::ctx::enter);
                        panoptes_obs::gauge_add!("fleet.workers.active", 1);
                        let mut claimed = 0u64;
                        let mut idle_us = 0u64;
                        loop {
                            // Time between finishing one unit and having
                            // the next in hand: the steal/queue wait.
                            let wait_start = Instant::now();
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            if index >= n {
                                break;
                            }
                            idle_us += wait_start.elapsed().as_micros() as u64;
                            claimed += 1;
                            // The receiver is gone only if the caller panicked.
                            if tx.send((index, run_one(index))).is_err() {
                                break;
                            }
                        }
                        // Per-worker balance: how many units this worker
                        // stole, and how long it spent waiting for work.
                        panoptes_obs::record!("fleet.worker.units_claimed", Runtime, claimed);
                        panoptes_obs::record!("fleet.worker.steal_wait_us", Runtime, idle_us);
                        panoptes_obs::gauge_add!("fleet.workers.active", -1);
                    })
                })
                .collect();
            drop(tx);
            for (index, outcome) in rx {
                on_outcome(index, outcome);
            }
            for handle in handles {
                // A worker never panics (it catches unit panics). Join
                // each one: its trace ring flushes on thread exit, after
                // the scope's own join would return.
                handle.join().expect("fleet worker survived");
            }
        })
        .expect("fleet scope");
    }

    if options.progress {
        panoptes_obs::progress::emit(
            "fleet",
            &options.decorate(&format!(
                "{}/{} units completed in {:?}",
                n - failed.into_inner(),
                n,
                started_at.elapsed()
            )),
        );
    }
}

/// The experiment a [`FleetUnit`] runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnitKind {
    /// The §2.1 crawl campaign over the fleet's site list.
    Crawl,
    /// The §3.5 idle experiment for the given window.
    Idle(SimDuration),
}

/// One campaign unit: a browser profile plus the experiment to run,
/// optionally under a unit-specific configuration (e.g. incognito).
#[derive(Debug, Clone)]
pub struct FleetUnit {
    /// The browser to run.
    pub profile: BrowserProfile,
    /// Crawl or idle.
    pub kind: UnitKind,
    /// Overrides the fleet-wide [`CampaignConfig`] when set.
    pub config: Option<CampaignConfig>,
}

impl FleetUnit {
    /// A crawl unit under the fleet-wide config.
    pub fn crawl(profile: BrowserProfile) -> FleetUnit {
        FleetUnit {
            profile,
            kind: UnitKind::Crawl,
            config: None,
        }
    }

    /// An idle unit under the fleet-wide config.
    pub fn idle(profile: BrowserProfile, duration: SimDuration) -> FleetUnit {
        FleetUnit {
            profile,
            kind: UnitKind::Idle(duration),
            config: None,
        }
    }

    /// Overrides this unit's campaign configuration.
    pub fn with_config(mut self, config: CampaignConfig) -> FleetUnit {
        self.config = Some(config);
        self
    }

    /// The configuration this unit runs under: its own override, or
    /// else the fleet-wide `config`.
    pub fn config_or<'a>(&'a self, config: &'a CampaignConfig) -> &'a CampaignConfig {
        self.config.as_ref().unwrap_or(config)
    }

    /// The unit's progress label: browser name + experiment kind, with
    /// a crawl whose own config is incognito (§3.2's incognito arm)
    /// named "<browser> incognito crawl".
    pub fn label(&self) -> String {
        let incognito =
            self.config.as_ref().is_some_and(|config| config.mode == BrowsingMode::Incognito);
        match self.kind {
            UnitKind::Crawl if incognito => format!("{} incognito crawl", self.profile.name),
            UnitKind::Crawl => format!("{} crawl", self.profile.name),
            UnitKind::Idle(_) => format!("{} idle", self.profile.name),
        }
    }
}

/// One unit's output, in the same position the unit was submitted.
pub enum UnitOutput {
    /// Output of a [`UnitKind::Crawl`] unit.
    Crawl(CampaignResult),
    /// Output of a [`UnitKind::Idle`] unit.
    Idle(IdleResult),
}

impl UnitOutput {
    /// The crawl result, if this unit was a crawl.
    pub fn into_crawl(self) -> Option<CampaignResult> {
        match self {
            UnitOutput::Crawl(result) => Some(result),
            UnitOutput::Idle(_) => None,
        }
    }

    /// The idle result, if this unit was an idle run.
    pub fn into_idle(self) -> Option<IdleResult> {
        match self {
            UnitOutput::Idle(result) => Some(result),
            UnitOutput::Crawl(_) => None,
        }
    }
}

/// Runs one campaign unit to completion — the single execution core
/// shared by [`run_units`] and the serving layer's interleaved
/// scheduler. The unit's own config override wins over the fleet-wide
/// `config`; no progress is emitted here (callers narrate with their
/// own [`FleetOptions`] tag).
pub fn run_unit(
    world: &World,
    sites: &[SiteSpec],
    config: &CampaignConfig,
    unit: &FleetUnit,
) -> UnitOutput {
    let unit_config = unit.config_or(config);
    match unit.kind {
        UnitKind::Crawl => UnitOutput::Crawl(run_crawl(world, &unit.profile, sites, unit_config)),
        UnitKind::Idle(duration) => {
            UnitOutput::Idle(run_idle(world, &unit.profile, duration, unit_config))
        }
    }
}

/// Reports a finished unit's capture size on the progress sink when
/// `options` narrate: flows, visits and simulated time of a crawl, flows
/// and window of an idle run.
pub fn narrate_capture(unit: &FleetUnit, output: &UnitOutput, options: &FleetOptions) {
    if !options.progress {
        return;
    }
    match output {
        UnitOutput::Crawl(result) => narrate_crawl(unit, result, result.store.len(), options),
        UnitOutput::Idle(result) => {
            let duration = match unit.kind {
                UnitKind::Idle(d) => d,
                UnitKind::Crawl => unreachable!("idle output from crawl unit"),
            };
            panoptes_obs::progress::emit(
                "fleet",
                &options.decorate(&format!(
                    "{}: {} flows captured, sim {}",
                    unit.label(),
                    result.store.len(),
                    duration,
                )),
            );
        }
    }
}

/// [`narrate_capture`] for a finished crawl `unit` that captured `flows`
/// flows: its store's length, or the number folded as the crawl went
/// (its store is then empty).
pub fn narrate_crawl(
    unit: &FleetUnit,
    result: &CampaignResult,
    flows: usize,
    options: &FleetOptions,
) {
    if !options.progress {
        return;
    }
    let sim: SimDuration =
        result.visits.iter().map(|v| v.dwell).fold(SimDuration::ZERO, |a, b| a + b);
    panoptes_obs::progress::emit(
        "fleet",
        &options.decorate(&format!(
            "{}: {} flows captured, {} visits, sim {}",
            unit.label(),
            flows,
            result.visits.len(),
            sim,
        )),
    );
}

/// Runs a mixed list of campaign units over the worker pool, returning
/// their outputs in submission order.
pub fn run_units(
    world: &World,
    sites: &[SiteSpec],
    config: &CampaignConfig,
    units: &[FleetUnit],
    options: &FleetOptions,
) -> Result<Vec<UnitOutput>, FleetError<UnitOutput>> {
    let labels: Vec<String> = units.iter().map(FleetUnit::label).collect();
    execute(&labels, options, |index| {
        let output = run_unit(world, sites, config, &units[index]);
        narrate_capture(&units[index], &output, options);
        output
    })
}

/// Crawls `sites` with every browser in `profiles` across the worker
/// pool. Results come back in profile order whatever the execution
/// order; a panicking campaign fails only its own unit.
pub fn run_crawl_jobs_with(
    world: &World,
    sites: &[SiteSpec],
    config: &CampaignConfig,
    options: &FleetOptions,
    profiles: &[BrowserProfile],
) -> Result<Vec<CampaignResult>, FleetError<UnitOutput>> {
    let units: Vec<_> = profiles.iter().cloned().map(FleetUnit::crawl).collect();
    let outputs = run_units(world, sites, config, &units, options)?;
    Ok(outputs.into_iter().filter_map(UnitOutput::into_crawl).collect())
}

/// Runs the §3.5 idle experiment for every browser in `profiles` across
/// the worker pool, results in profile order.
pub fn run_idle_jobs_with(
    world: &World,
    duration: SimDuration,
    config: &CampaignConfig,
    options: &FleetOptions,
    profiles: &[BrowserProfile],
) -> Result<Vec<IdleResult>, FleetError<UnitOutput>> {
    let units: Vec<_> = profiles
        .iter()
        .cloned()
        .map(|profile| FleetUnit::idle(profile, duration))
        .collect();
    let outputs = run_units(world, &world.sites, config, &units, options)?;
    Ok(outputs.into_iter().filter_map(UnitOutput::into_idle).collect())
}

// ---------------------------------------------------------------------
// WorkPool: the long-lived, multi-tenant fleet scheduler.
//
// `execute` above is a batch pool: it is born with its unit list and
// dies when the list drains — exactly right for one offline study, and
// exactly wrong for a server juggling many. The `WorkPool` keeps a
// fixed set of workers alive across requests and multiplexes *lanes*
// (one per study/request) over them:
//
// * **work-conserving round-robin** — each dispatch takes the next
//   lane (in rotation) that has a queued job *and* a credit; a stalled
//   or credit-starved lane never blocks the others, so workers idle
//   only when no lane anywhere is dispatchable;
// * **credit-gated backpressure** — a lane's credits bound how many of
//   its jobs may be queued-or-running downstream at once. The serving
//   layer grants a credit when the client drains an event, so a slow
//   reader throttles *its own* study's production instead of ballooning
//   buffered results;
// * **cancellation** — `cancel` drops a lane's pending jobs on the
//   floor (in-flight jobs finish; units are pure compute and cheap at
//   serve scale) and frees its slot as soon as the last one drains;
// * **panic isolation** — a panicking job is counted and contained
//   with the same `catch_unwind` backstop as the batch fleet; the
//   worker thread survives.

/// One queued unit of work: a boxed closure that owns everything it
/// needs (the serving layer closes over its study context and result
/// channel).
pub type PoolJob = Box<dyn FnOnce() + Send + 'static>;

struct Lane {
    pending: VecDeque<PoolJob>,
    /// Dispatch allowance: decremented when a job starts, topped up by
    /// [`WorkPool::grant`]. A lane with zero credits holds its queue.
    credits: usize,
    /// Jobs currently running on a worker.
    inflight: usize,
    cancelled: bool,
    closed: bool,
}

impl Lane {
    fn dispatchable(&self) -> bool {
        !self.cancelled && self.credits > 0 && !self.pending.is_empty()
    }

    fn drained(&self) -> bool {
        self.pending.is_empty() && self.inflight == 0 && (self.closed || self.cancelled)
    }
}

struct PoolState {
    lanes: HashMap<u64, Lane>,
    /// Round-robin rotation over open lane ids; the dispatched lane
    /// moves to the back so service order stays fair under contention.
    rr: VecDeque<u64>,
    /// Total pending jobs across all lanes (the queue-depth gauge).
    queued: usize,
    /// Total in-flight jobs across all lanes.
    running: usize,
    shutdown: bool,
}

impl PoolState {
    /// Picks the next dispatchable lane in rotation and pops one job,
    /// rotating that lane to the back. `None` when nothing anywhere is
    /// runnable.
    fn next_job(&mut self) -> Option<(u64, PoolJob)> {
        for _ in 0..self.rr.len() {
            let id = self.rr.pop_front().expect("rr non-empty in loop");
            self.rr.push_back(id);
            let lane = self.lanes.get_mut(&id).expect("rr lane exists");
            if lane.dispatchable() {
                let job = lane.pending.pop_front().expect("dispatchable lane has job");
                lane.credits -= 1;
                lane.inflight += 1;
                self.queued -= 1;
                self.running += 1;
                return Some((id, job));
            }
        }
        None
    }

    /// Removes a fully drained lane from the map and rotation.
    fn reap(&mut self, id: u64) {
        if self.lanes.get(&id).is_some_and(Lane::drained) {
            self.lanes.remove(&id);
            self.rr.retain(|&lane_id| lane_id != id);
        }
    }
}

/// A long-lived worker pool multiplexing per-request lanes: the
/// scheduling substrate of the study server. See the module notes
/// above for the fairness / backpressure / cancellation contract.
pub struct WorkPool {
    state: Arc<(StdMutex<PoolState>, Condvar)>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkPool {
    /// Spawns `workers` long-lived worker threads (clamped to ≥ 1).
    pub fn new(workers: usize) -> WorkPool {
        let state = Arc::new((
            StdMutex::new(PoolState {
                lanes: HashMap::new(),
                rr: VecDeque::new(),
                queued: 0,
                running: 0,
                shutdown: false,
            }),
            Condvar::new(),
        ));
        let workers = (0..workers.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || Self::worker_loop(&state))
            })
            .collect();
        WorkPool { state, workers }
    }

    fn worker_loop(state: &(StdMutex<PoolState>, Condvar)) {
        let (lock, cvar) = state;
        let mut guard = lock.lock().expect("pool lock");
        loop {
            if let Some((lane_id, job)) = guard.next_job() {
                drop(guard);
                panoptes_obs::gauge_add!("pool.queue.depth", -1);
                panoptes_obs::gauge_add!("pool.jobs.inflight", 1);
                let outcome = catch_unwind(AssertUnwindSafe(job));
                if outcome.is_ok() {
                    panoptes_obs::count!("pool.jobs.completed", Runtime);
                } else {
                    panoptes_obs::count!("pool.jobs.panicked", Runtime);
                }
                panoptes_obs::gauge_add!("pool.jobs.inflight", -1);
                guard = lock.lock().expect("pool lock");
                if let Some(lane) = guard.lanes.get_mut(&lane_id) {
                    lane.inflight -= 1;
                }
                guard.running -= 1;
                guard.reap(lane_id);
                // Wake both idle workers (a credit may have been
                // granted while we ran) and `wait_idle` callers.
                cvar.notify_all();
            } else if guard.shutdown {
                return;
            } else {
                guard = cvar.wait(guard).expect("pool wait");
            }
        }
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, PoolState> {
        self.state.0.lock().expect("pool lock")
    }

    /// Opens a lane with an initial credit allowance. Re-opening a live
    /// lane id is a caller bug and panics.
    pub fn open_lane(&self, id: u64, credits: usize) {
        let mut state = self.locked();
        assert!(!state.lanes.contains_key(&id), "lane {id} already open");
        state.lanes.insert(
            id,
            Lane {
                pending: VecDeque::new(),
                credits,
                inflight: 0,
                cancelled: false,
                closed: false,
            },
        );
        state.rr.push_back(id);
        panoptes_obs::count!("pool.lanes.opened", Runtime);
        self.state.1.notify_all();
    }

    /// Queues a job on a lane. Returns `false` (dropping the job) if
    /// the lane is unknown, cancelled, closed, or the pool is shutting
    /// down — the serving layer treats that as "request gone".
    pub fn push(&self, lane_id: u64, job: PoolJob) -> bool {
        let mut state = self.locked();
        if state.shutdown {
            return false;
        }
        let Some(lane) = state.lanes.get_mut(&lane_id) else {
            return false;
        };
        if lane.cancelled || lane.closed {
            return false;
        }
        lane.pending.push_back(job);
        state.queued += 1;
        panoptes_obs::gauge_add!("pool.queue.depth", 1);
        self.state.1.notify_all();
        true
    }

    /// Grants `n` more dispatch credits to a lane (the backpressure
    /// release valve: called as the client drains events).
    pub fn grant(&self, lane_id: u64, n: usize) {
        let mut state = self.locked();
        if let Some(lane) = state.lanes.get_mut(&lane_id) {
            if !lane.cancelled {
                lane.credits = lane.credits.saturating_add(n);
            }
        }
        self.state.1.notify_all();
    }

    /// Cancels a lane: drops every pending job, blocks further pushes,
    /// and reaps the lane once in-flight jobs drain. Returns how many
    /// pending jobs were dropped.
    pub fn cancel(&self, lane_id: u64) -> usize {
        let mut state = self.locked();
        let Some(lane) = state.lanes.get_mut(&lane_id) else {
            return 0;
        };
        let dropped = lane.pending.len();
        lane.pending.clear();
        lane.cancelled = true;
        state.queued -= dropped;
        if dropped > 0 {
            panoptes_obs::gauge_add!("pool.queue.depth", -(dropped as i64));
        }
        panoptes_obs::count!("pool.lanes.cancelled", Runtime);
        state.reap(lane_id);
        self.state.1.notify_all();
        dropped
    }

    /// Marks a lane closed (no further pushes); it is reaped once its
    /// queue and in-flight work drain.
    pub fn close_lane(&self, lane_id: u64) {
        let mut state = self.locked();
        if let Some(lane) = state.lanes.get_mut(&lane_id) {
            lane.closed = true;
        }
        state.reap(lane_id);
        self.state.1.notify_all();
    }

    /// Total queued (not yet dispatched) jobs across all lanes.
    pub fn queue_depth(&self) -> usize {
        self.locked().queued
    }

    /// Open lane count (cancelled-but-draining lanes included).
    pub fn lane_count(&self) -> usize {
        self.locked().lanes.len()
    }

    /// Blocks until no job is queued-or-running anywhere. Queued jobs
    /// held by credit starvation do **not** count as idle — grant or
    /// cancel first.
    pub fn wait_idle(&self) {
        let (lock, cvar) = &*self.state;
        let mut guard = lock.lock().expect("pool lock");
        loop {
            let dispatchable = guard.lanes.values().any(Lane::dispatchable);
            if guard.running == 0 && !dispatchable {
                return;
            }
            guard = cvar.wait(guard).expect("pool wait");
        }
    }

    /// Stops accepting work, lets in-flight jobs finish, drops whatever
    /// is still queued, and joins every worker.
    pub fn shutdown(mut self) {
        {
            let mut state = self.locked();
            state.shutdown = true;
            let still_queued = state.queued;
            for lane in state.lanes.values_mut() {
                lane.pending.clear();
            }
            state.queued = 0;
            if still_queued > 0 {
                panoptes_obs::gauge_add!("pool.queue.depth", -(still_queued as i64));
            }
        }
        self.state.1.notify_all();
        for handle in self.workers.drain(..) {
            handle.join().expect("pool worker survived");
        }
    }
}

impl Drop for WorkPool {
    fn drop(&mut self) {
        // Best-effort: a dropped (not shut-down) pool still stops its
        // workers instead of leaking threads.
        if let Ok(mut state) = self.state.0.lock() {
            state.shutdown = true;
            for lane in state.lanes.values_mut() {
                lane.pending.clear();
            }
            state.queued = 0;
        }
        self.state.1.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panoptes_browsers::registry::profile_by_name;
    use panoptes_web::generator::GeneratorConfig;

    fn small_world() -> World {
        World::build(&GeneratorConfig {
            popular: 4,
            sensitive: 2,
            ..Default::default()
        })
    }

    fn labels(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("unit-{i}")).collect()
    }

    #[test]
    fn execute_preserves_submission_order() {
        for jobs in [1, 2, 5, 16] {
            let out = execute(&labels(17), &FleetOptions::with_jobs(jobs), |i| i * 10)
                .expect("no failures");
            assert_eq!(
                out,
                (0..17).map(|i| i * 10).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn execute_each_hands_every_outcome_to_the_calling_thread() {
        let caller = std::thread::current().id();
        for jobs in [1, 3] {
            let mut seen = Vec::new();
            let runner = |i: usize| (i, std::thread::current().id());
            execute_each(&labels(7), &FleetOptions::with_jobs(jobs), runner, |index, outcome| {
                assert_eq!(std::thread::current().id(), caller, "jobs={jobs}");
                let (i, ran_on) = outcome.expect("no failures");
                assert_eq!(i, index);
                if jobs == 1 {
                    assert_eq!(ran_on, caller, "one worker runs units on the calling thread");
                }
                seen.push(index);
            });
            seen.sort_unstable();
            assert_eq!(seen, (0..7).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn execute_isolates_panicking_units() {
        for jobs in [1, 4] {
            let err = execute(&labels(6), &FleetOptions::with_jobs(jobs), |i| {
                if i == 2 {
                    panic!("injected fault in unit 2");
                }
                i
            })
            .expect_err("unit 2 panics");
            assert_eq!(err.failures.len(), 1, "jobs={jobs}");
            assert_eq!(err.failures[0].index, 2);
            assert_eq!(err.failures[0].unit, "unit-2");
            assert!(err.failures[0].message.contains("injected fault"));
            // The other five units still completed, in order.
            let salvaged: Vec<usize> = err.completed.iter().flatten().copied().collect();
            assert_eq!(salvaged, vec![0, 1, 3, 4, 5]);
            assert!(err.completed[2].is_none());
        }
    }

    #[test]
    fn fleet_error_display_names_units() {
        let err = execute(
            &["Chrome crawl".to_string()],
            &FleetOptions::with_jobs(1),
            |_| {
                panic!("boom");
                #[allow(unreachable_code)]
                ()
            },
        )
        .expect_err("panics");
        let text = err.to_string();
        assert!(text.contains("Chrome crawl"), "{text}");
        assert!(text.contains("boom"), "{text}");
    }

    #[test]
    fn crawl_units_match_direct_run() {
        let world = small_world();
        let config = CampaignConfig::default();
        let profile = profile_by_name("Yandex").unwrap();
        let direct = run_crawl(&world, &profile, &world.sites, &config);

        let units = vec![FleetUnit::crawl(profile.clone()), FleetUnit::crawl(profile)];
        let out = run_units(
            &world,
            &world.sites,
            &config,
            &units,
            &FleetOptions::with_jobs(2),
        )
        .expect("no failures");
        for output in out {
            let result = output.into_crawl().expect("crawl unit");
            assert_eq!(result.store.export_jsonl(), direct.store.export_jsonl());
            assert_eq!(result.visits, direct.visits);
        }
    }

    #[test]
    fn unit_config_override_is_respected() {
        let world = small_world();
        let config = CampaignConfig::default();
        let reseeded = CampaignConfig {
            seed: 999,
            ..config.clone()
        };
        let profile = profile_by_name("Yandex").unwrap();
        let units = vec![
            FleetUnit::crawl(profile.clone()),
            FleetUnit::crawl(profile.clone()).with_config(reseeded.clone()),
        ];
        let out = run_units(
            &world,
            &world.sites,
            &config,
            &units,
            &FleetOptions::with_jobs(2),
        )
        .expect("no failures");
        let [default_unit, reseeded_unit]: [UnitOutput; 2] = out.try_into().ok().expect("two");
        let default_unit = default_unit.into_crawl().expect("crawl");
        let reseeded_unit = reseeded_unit.into_crawl().expect("crawl");
        // The override took effect: a different seed mints different
        // persistent identifiers, so the captures differ...
        assert_ne!(
            default_unit.store.export_jsonl(),
            reseeded_unit.store.export_jsonl()
        );
        // ...and each unit matches a direct run under its own config.
        let direct = run_crawl(&world, &profile, &world.sites, &reseeded);
        assert_eq!(
            reseeded_unit.store.export_jsonl(),
            direct.store.export_jsonl()
        );
        assert_eq!(default_unit.store.export_jsonl(), {
            let d = run_crawl(&world, &profile, &world.sites, &config);
            d.store.export_jsonl()
        });
    }

    #[test]
    fn run_unit_matches_run_units_output() {
        let world = small_world();
        let config = CampaignConfig::default();
        let profile = profile_by_name("Yandex").unwrap();
        let unit = FleetUnit::crawl(profile);
        let direct = run_unit(&world, &world.sites, &config, &unit)
            .into_crawl()
            .expect("crawl output");
        let pooled = run_units(
            &world,
            &world.sites,
            &config,
            std::slice::from_ref(&unit),
            &FleetOptions::with_jobs(1),
        )
        .expect("no failures")
        .remove(0)
        .into_crawl()
        .expect("crawl output");
        assert_eq!(direct.store.export_jsonl(), pooled.store.export_jsonl());
    }

    // ----- WorkPool -----

    /// Order log shared by pool-test jobs.
    fn order_log() -> (Arc<StdMutex<Vec<u64>>>, impl Fn(u64) -> PoolJob) {
        let log = Arc::new(StdMutex::new(Vec::new()));
        let for_jobs = Arc::clone(&log);
        let make = move |lane: u64| -> PoolJob {
            let log = Arc::clone(&for_jobs);
            Box::new(move || log.lock().expect("log lock").push(lane))
        };
        (log, make)
    }

    #[test]
    fn pool_round_robin_interleaves_lanes() {
        let pool = WorkPool::new(1);
        let (log, job) = order_log();
        // Pin the single worker on a blocking job while both lanes are
        // queued and funded, so the observed service order is exactly
        // the scheduler's rotation (no dispatch races the setup).
        let (release, gate) = std::sync::mpsc::channel::<()>();
        pool.open_lane(0, 1);
        assert!(pool.push(0, Box::new(move || gate.recv().expect("release signal"))));
        pool.open_lane(1, 4);
        pool.open_lane(2, 2);
        for _ in 0..4 {
            assert!(pool.push(1, job(1)));
        }
        for _ in 0..2 {
            assert!(pool.push(2, job(2)));
        }
        release.send(()).expect("worker waiting");
        pool.wait_idle();
        // Fair rotation: lane 2 is serviced between lane-1 jobs while
        // it has work, then lane 1 drains alone.
        assert_eq!(*log.lock().expect("log lock"), vec![1, 2, 1, 2, 1, 1]);
        pool.shutdown();
    }

    #[test]
    fn pool_credits_gate_dispatch() {
        let pool = WorkPool::new(2);
        let (log, job) = order_log();
        pool.open_lane(7, 0);
        for _ in 0..3 {
            assert!(pool.push(7, job(7)));
        }
        pool.wait_idle(); // credit-starved queue counts as idle
        assert_eq!(log.lock().expect("log lock").len(), 0);
        assert_eq!(pool.queue_depth(), 3);
        pool.grant(7, 1);
        pool.wait_idle();
        assert_eq!(log.lock().expect("log lock").len(), 1);
        assert_eq!(pool.queue_depth(), 2);
        pool.grant(7, 2);
        pool.wait_idle();
        assert_eq!(log.lock().expect("log lock").len(), 3);
        assert_eq!(pool.queue_depth(), 0);
        pool.shutdown();
    }

    #[test]
    fn pool_cancel_drops_pending_and_frees_lane() {
        let pool = WorkPool::new(1);
        let (log, job) = order_log();
        pool.open_lane(3, 0);
        for _ in 0..5 {
            assert!(pool.push(3, job(3)));
        }
        assert_eq!(pool.cancel(3), 5);
        assert_eq!(pool.queue_depth(), 0);
        // The cancelled lane is reaped (no in-flight work held it) and
        // rejects further pushes.
        assert_eq!(pool.lane_count(), 0);
        assert!(!pool.push(3, job(3)));
        pool.wait_idle();
        assert_eq!(log.lock().expect("log lock").len(), 0);
        pool.shutdown();
    }

    #[test]
    fn pool_is_work_conserving_under_starved_lane() {
        let pool = WorkPool::new(1);
        let (log, job) = order_log();
        pool.open_lane(1, 0); // never granted a credit
        pool.open_lane(2, 8);
        for _ in 0..3 {
            assert!(pool.push(1, job(1)));
        }
        for _ in 0..3 {
            assert!(pool.push(2, job(2)));
        }
        pool.wait_idle();
        // The starved lane holds its own queue; lane 2 ran everything.
        assert_eq!(*log.lock().expect("log lock"), vec![2, 2, 2]);
        assert_eq!(pool.queue_depth(), 3);
        pool.shutdown();
    }

    #[test]
    fn pool_survives_panicking_job() {
        let pool = WorkPool::new(1);
        let (log, job) = order_log();
        pool.open_lane(1, 4);
        assert!(pool.push(1, Box::new(|| panic!("injected pool fault"))));
        assert!(pool.push(1, job(1)));
        pool.wait_idle();
        assert_eq!(*log.lock().expect("log lock"), vec![1]);
        pool.shutdown();
    }

    #[test]
    fn pool_close_lane_reaps_after_drain() {
        let pool = WorkPool::new(2);
        let (log, job) = order_log();
        pool.open_lane(9, 10);
        for _ in 0..4 {
            assert!(pool.push(9, job(9)));
        }
        pool.close_lane(9);
        assert!(!pool.push(9, job(9)), "closed lane rejects new work");
        pool.wait_idle();
        assert_eq!(log.lock().expect("log lock").len(), 4);
        assert_eq!(pool.lane_count(), 0, "drained closed lane is reaped");
        pool.shutdown();
    }
}
