//! The HTTP front: accept loop, routing, admission control, and the
//! event-stream framing (JSONL or SSE) over chunked transfer.
//!
//! Endpoints:
//!
//! * `GET /study?seed=S&popular=N&sensitive=N&sites=N&population=N&idle=N[&format=sse]`
//!   — runs (or replays from cache) one study, streaming events as
//!   JSON lines (default) or SSE frames. The concatenated
//!   `header`/`section` payloads are byte-identical to offline
//!   `repro` stdout for the same parameters.
//! * `GET /healthz` — liveness probe.
//! * `GET /metrics` — the panoptes-obs run report (Deterministic /
//!   Runtime split) plus cache counters, as plain text.
//!
//! Admission control bounds memory: at most `max_active` studies run
//! concurrently and at most `max_waiting` sit in the admission queue;
//! beyond that the server answers `503 Busy` immediately instead of
//! buffering unbounded work.
//!
//! Connections go to warm handler threads: the accept loop hands each
//! one to a parked handler and spawns a thread only when none is
//! parked; after its connection a handler parks again unless
//! `max_active` already are. Busy handlers are not capped: a burst
//! still gets one thread per connection beyond the parked ones.
//!
//! A study's events are framed into one buffer and flushed in one write
//! each time the study runner is about to wait (see
//! [`crate::study`]), not eagerly per event; a cached replay, which
//! never waits, is one write. Every other response is one write too.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::flightrec::{install_panic_hook, Watchdog};
use crate::http::{read_request, respond, ChunkedWriter, Request};
use crate::study::{ev_error, EventSink, RequestInfo, StudyEngine, StudyError, StudyParams};

/// The stall deadline used when flight recording is on but no explicit
/// deadline was configured.
pub const DEFAULT_WATCHDOG_DEADLINE: Duration = Duration::from_secs(30);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Pool worker threads shared by all studies.
    pub workers: usize,
    /// Shared-artifact cache budget; `None` disables the cache.
    pub cache_budget: Option<u64>,
    /// Studies allowed to run concurrently.
    pub max_active: usize,
    /// Studies allowed to wait for an active slot; further requests
    /// get `503`.
    pub max_waiting: usize,
    /// Tagged per-unit narration on stderr.
    pub narrate: bool,
    /// Directory for flight-recorder post-mortems. When set, the stall
    /// watchdog runs and the panic hook dumps here; the in-memory ring
    /// itself is always on.
    pub flightrec_dir: Option<PathBuf>,
    /// How long a study may go without progress before the watchdog
    /// declares it stalled ([`DEFAULT_WATCHDOG_DEADLINE`] when unset).
    pub watchdog_deadline: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cache_budget: Some(256 << 20),
            max_active: 8,
            max_waiting: 128,
            narrate: false,
            flightrec_dir: None,
            watchdog_deadline: None,
        }
    }
}

/// A running server: accept loop + warm handler threads. Dropping the
/// handle leaves the server running (detached); call
/// [`ServerHandle::shutdown`] to stop accepting.
pub struct ServerHandle {
    /// The bound address (useful with port 0).
    pub addr: SocketAddr,
    engine: Arc<StudyEngine>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    watchdog: Option<Watchdog>,
}

impl ServerHandle {
    /// The shared study engine (cache stats, queue depth).
    pub fn engine(&self) -> &Arc<StudyEngine> {
        &self.engine
    }

    /// Stops accepting new connections and joins the accept loop.
    /// In-flight studies run to completion on their handler threads;
    /// parked handlers, and each busy one once it is done, exit.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        if let Some(watchdog) = self.watchdog.take() {
            watchdog.stop();
        }
    }
}

/// One line of lane/queue/cache state for flight-recorder dumps. Weak
/// so the watchdog never keeps a stopped server's engine alive.
fn engine_snapshot(engine: &std::sync::Weak<StudyEngine>) -> String {
    match engine.upgrade() {
        Some(engine) => {
            let cache = match engine.cache() {
                Some(cache) => {
                    let stats = cache.stats();
                    format!(
                        "cache_hits={} cache_misses={} cache_evictions={} cache_bytes={}",
                        stats.hits,
                        stats.misses,
                        stats.evictions,
                        cache.used_bytes()
                    )
                }
                None => "cache=off".to_string(),
            };
            format!(
                "lanes={} queued={} {cache}",
                engine.lanes(),
                engine.queue_depth()
            )
        }
        None => "engine=gone".to_string(),
    }
}

/// Binds `127.0.0.1:port` (0 = ephemeral) and spawns the accept loop.
pub fn spawn(port: u16, config: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let addr = listener.local_addr()?;
    panoptes_obs::enable(panoptes_obs::METRICS);
    let mut engine = StudyEngine::new(config.workers, config.cache_budget);
    if config.narrate {
        engine = engine.with_narration();
    }
    let engine = Arc::new(engine);
    let watchdog = config.flightrec_dir.as_ref().map(|dir| {
        install_panic_hook(engine.recorder(), dir.clone());
        let snapshot_engine = Arc::downgrade(&engine);
        Watchdog::spawn(
            Arc::clone(engine.recorder()),
            config
                .watchdog_deadline
                .unwrap_or(DEFAULT_WATCHDOG_DEADLINE),
            dir.clone(),
            Box::new(move || engine_snapshot(&snapshot_engine)),
        )
    });
    let admission = Arc::new(Admission::new(config.max_active, config.max_waiting));
    let stop = Arc::new(AtomicBool::new(false));

    let (handoff, parked) = mpsc::channel();
    let handlers = Arc::new(Handlers {
        engine: Arc::clone(&engine),
        admission,
        parked: AtomicUsize::new(0),
        max_parked: config.max_active.max(1),
        handoff: Mutex::new(parked),
    });
    let accept_stop = Arc::clone(&stop);
    let accept_thread = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_stop.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            if handlers.claim() {
                // The receiver lives in `handlers`, so this cannot fail.
                let _ = handoff.send(stream);
            } else {
                let handlers = Arc::clone(&handlers);
                std::thread::spawn(move || handlers.serve(stream));
            }
        }
        // Dropping `handoff` here wakes every parked handler to exit.
    });

    Ok(ServerHandle {
        addr,
        engine,
        stop,
        accept_thread: Some(accept_thread),
        watchdog,
    })
}

/// The connection handlers' shared state, and the hand-off through which
/// the accept loop gives a connection to a parked handler instead of
/// spawning a thread for it.
struct Handlers {
    engine: Arc<StudyEngine>,
    admission: Arc<Admission>,
    /// Handlers parked on `handoff`, each committed to receive exactly
    /// one more connection. Both sides move it by compare-and-swap, so
    /// it never counts a handler that will not receive: a claim never
    /// takes it below zero and a park never lifts it above the cap. It
    /// publishes no data (the connection travels through `handoff`),
    /// so its operations are `Relaxed`.
    parked: AtomicUsize,
    /// At most this many handlers park (the server's `max_active`).
    max_parked: usize,
    /// Connections for parked handlers; closed when the accept loop
    /// ends.
    handoff: Mutex<mpsc::Receiver<TcpStream>>,
}

impl Handlers {
    /// Claims a parked handler for the next connection.
    fn claim(&self) -> bool {
        self.parked
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
    }

    /// Commits the calling handler to park, unless `max_parked` are
    /// parked already.
    fn park(&self) -> bool {
        self.parked
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < self.max_parked).then_some(n + 1)
            })
            .is_ok()
    }

    /// Serves `stream` and then each connection handed over while
    /// parked, until the cap leaves no room to park or the accept loop
    /// ends.
    fn serve(&self, mut stream: TcpStream) {
        loop {
            handle_connection(stream, &self.engine, &self.admission);
            // A parked handler lives on, so its trace ring would
            // otherwise reach the flush list only at shutdown.
            panoptes_obs::trace::flush_thread();
            if !self.park() {
                return;
            }
            // Only `recv` runs under this lock, and it changes nothing a
            // panic could leave half-done, so a poisoned guard is sound.
            let next = self.handoff.lock().unwrap_or_else(PoisonError::into_inner).recv();
            let Ok(next) = next else {
                return;
            };
            stream = next;
        }
    }
}

fn handle_connection(stream: TcpStream, engine: &StudyEngine, admission: &Arc<Admission>) {
    // All IO failures here mean the client is gone or speaking
    // something other than HTTP; the connection is simply dropped.
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut stream = stream;
    let Some(request) = read_request(&mut reader) else {
        return;
    };
    if request.method != "GET" {
        let _ = respond(
            &mut stream,
            405,
            "Method Not Allowed",
            "text/plain",
            "GET only\n",
        );
        return;
    }
    match request.path.as_str() {
        "/healthz" => {
            let _ = respond(&mut stream, 200, "OK", "text/plain", "ok\n");
        }
        "/metrics" => {
            let report = panoptes_obs::report::render(&panoptes_obs::metrics::snapshot());
            let _ = respond(&mut stream, 200, "OK", "text/plain; charset=utf-8", &report);
        }
        "/study" => handle_study(&request, stream, engine, admission),
        _ => {
            let _ = respond(&mut stream, 404, "Not Found", "text/plain", "not found\n");
        }
    }
}

fn handle_study(
    request: &Request,
    mut stream: TcpStream,
    engine: &StudyEngine,
    admission: &Arc<Admission>,
) {
    let params = match parse_params(request) {
        Ok(p) => p,
        Err(msg) => {
            let _ = respond(
                &mut stream,
                400,
                "Bad Request",
                "text/plain",
                &format!("{msg}\n"),
            );
            return;
        }
    };
    let sse = request.param("format") == Some("sse");

    // Request identity: minted before admission so even a rejected
    // request has an id in the flight-recorder ring, and the root
    // `serve.request` span covers the admission wait.
    let req_started = Instant::now();
    let req_id = panoptes_obs::ctx::next_request_id();
    let _ctx = panoptes_obs::ctx::enter(panoptes_obs::ctx::TraceCtx {
        request: req_id,
        parent_span: 0,
    });
    let root = panoptes_obs::trace::span_with("serve.request", None, || params.repro_args());
    panoptes_obs::ctx::set_parent(root.id().unwrap_or(0));

    let admission_started = Instant::now();
    let permit = {
        let _wait = panoptes_obs::trace::span("serve.admission.wait");
        admission.acquire()
    };
    let admission_us = admission_started.elapsed().as_micros() as u64;
    let Some(_permit) = permit else {
        panoptes_obs::count!("serve.requests.rejected", Runtime);
        engine
            .recorder()
            .record(req_id, "request.rejected", params.repro_args());
        let _ = respond(
            &mut stream,
            503,
            "Busy",
            "text/plain",
            "study capacity exhausted; retry later\n",
        );
        return;
    };
    panoptes_obs::count!("serve.requests.accepted", Runtime);
    engine
        .recorder()
        .record(req_id, "request.accepted", params.repro_args());
    let req = RequestInfo {
        id: req_id,
        admission_us,
        started: req_started,
    };
    let content_type = if sse {
        "text/event-stream"
    } else {
        "application/x-ndjson"
    };
    let mut sink = HttpSink {
        writer: Some(ChunkedWriter::start(stream, content_type)),
        sse,
    };
    match engine.run_streaming(&params, &mut sink, req) {
        // The runner finished the stream.
        Ok(_) => {}
        Err(StudyError::Disconnected(_)) => {
            panoptes_obs::count!("serve.requests.disconnected", Runtime);
            // Lane already cancelled by the runner; nothing to send.
        }
        Err(StudyError::Fleet(msg)) => {
            let _ = sink.event(&ev_error(&msg));
            let _ = sink.finish();
        }
    }
}

fn parse_params(request: &Request) -> Result<StudyParams, String> {
    let mut params = StudyParams::default();
    if let Some(seed) = request.param("seed") {
        params.seed = parse_u64(seed).ok_or_else(|| format!("bad seed {seed:?}"))?;
    }
    if let Some(popular) = request.param("popular") {
        params.popular = popular
            .parse()
            .map_err(|_| format!("bad popular {popular:?}"))?;
    }
    if let Some(sensitive) = request.param("sensitive") {
        params.sensitive = sensitive
            .parse()
            .map_err(|_| format!("bad sensitive {sensitive:?}"))?;
    }
    if let Some(population) = request.param("population") {
        params.population = population
            .parse()
            .map_err(|_| format!("bad population {population:?}"))?;
    }
    if let Some(idle) = request.param("idle") {
        params.idle_secs = idle.parse().map_err(|_| format!("bad idle {idle:?}"))?;
    }
    if let Some(sites) = request.param("sites") {
        let n: u32 = sites.parse().map_err(|_| format!("bad sites {sites:?}"))?;
        params.tail = params.scale().with_sites(n).tail;
    }
    params.study().validate(None)?;
    Ok(params)
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// The event sink over the chunked HTTP response: one chunk per event,
/// JSONL (`{...}\n`) or SSE (`data: {...}\n\n`), framed into the
/// writer's buffer and sent on flush.
struct HttpSink {
    writer: Option<ChunkedWriter<TcpStream>>,
    sse: bool,
}

fn stream_finished() -> io::Error {
    io::Error::new(io::ErrorKind::NotConnected, "stream finished")
}

impl EventSink for HttpSink {
    fn event(&mut self, line: &str) -> io::Result<()> {
        let writer = self.writer.as_mut().ok_or_else(stream_finished)?;
        if self.sse {
            writer.chunk(&["data: ", line, "\n\n"]);
        } else {
            writer.chunk(&[line, "\n"]);
        }
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writer.as_mut().ok_or_else(stream_finished)?.flush()
    }

    fn finish(&mut self) -> io::Result<()> {
        self.writer.take().ok_or_else(stream_finished)?.finish()
    }
}

/// Bounded study admission: `max_active` running, `max_waiting`
/// queued, the rest turned away with `503`.
struct Admission {
    state: Mutex<AdmissionState>,
    freed: Condvar,
    max_active: usize,
    max_waiting: usize,
}

struct AdmissionState {
    active: usize,
    waiting: usize,
}

impl Admission {
    fn new(max_active: usize, max_waiting: usize) -> Admission {
        Admission {
            state: Mutex::new(AdmissionState {
                active: 0,
                waiting: 0,
            }),
            freed: Condvar::new(),
            max_active: max_active.max(1),
            max_waiting,
        }
    }

    /// Blocks until an active slot frees (fair-enough condvar order);
    /// `None` when the waiting room is full.
    fn acquire(self: &Arc<Self>) -> Option<AdmissionPermit> {
        let mut state = self.state.lock().ok()?;
        if state.active >= self.max_active {
            if state.waiting >= self.max_waiting {
                return None;
            }
            state.waiting += 1;
            panoptes_obs::gauge_add!("serve.admission.waiting", 1);
            while state.active >= self.max_active {
                state = self.freed.wait(state).ok()?;
            }
            state.waiting -= 1;
            panoptes_obs::gauge_add!("serve.admission.waiting", -1);
        }
        state.active += 1;
        panoptes_obs::gauge_add!("serve.admission.active", 1);
        Some(AdmissionPermit {
            admission: Arc::clone(self),
        })
    }
}

/// RAII active-slot: released (and a waiter woken) on drop, whatever
/// path the handler exits through.
struct AdmissionPermit {
    admission: Arc<Admission>,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        if let Ok(mut state) = self.admission.state.lock() {
            state.active -= 1;
        }
        panoptes_obs::gauge_add!("serve.admission.active", -1);
        self.admission.freed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(query: &[(&str, &str)]) -> Request {
        Request {
            method: "GET".to_string(),
            path: "/study".to_string(),
            query: query.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
        }
    }

    #[test]
    fn handlers_park_up_to_the_cap_and_claim_only_what_is_parked() {
        let (_handoff, parked) = mpsc::channel();
        let handlers = Handlers {
            engine: Arc::new(StudyEngine::new(1, None)),
            admission: Arc::new(Admission::new(2, 0)),
            parked: AtomicUsize::new(0),
            max_parked: 2,
            handoff: Mutex::new(parked),
        };
        assert!(!handlers.claim(), "nothing is parked yet");
        assert!(handlers.park() && handlers.park());
        assert!(!handlers.park(), "no more than `max_active` park");
        assert!(handlers.claim() && handlers.claim());
        assert!(!handlers.claim(), "a claim never takes the count below zero");
    }

    #[test]
    fn parse_params_rejects_a_site_count_that_overflows() {
        let head = [("popular", "4294967295"), ("sensitive", "1")];
        assert!(parse_params(&request(&head)).is_err());
        assert!(parse_params(&request(&[head[0], head[1], ("sites", "5")])).is_err());
        let sites = parse_params(&request(&[("popular", "3"), ("sensitive", "2"), ("sites", "9")]));
        assert_eq!(sites.map(|params| params.tail), Ok(4));
    }
}
