//! Request-scoped tracing, end-to-end over real TCP: turning the trace
//! layer and flight recorder on must not change a single served byte,
//! every `serve.*` trace event must carry the id of the request it
//! served (across the admission queue, the pool's worker threads, which
//! capture and analyse each unit, and the handler's assemble/render
//! path), and the `timing` trailer's phase attribution must reconcile
//! with the measured completion.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use panoptes_obs::trace::{self, EventKind, TraceEvent};
use panoptes_serve::client;
use panoptes_serve::server::{self, ServerConfig};
use panoptes_serve::study::StudyParams;

/// The trace layer and its flush list are process-global; tests that
/// enable tracing or drain events serialise here.
static SERIAL: Mutex<()> = Mutex::new(());

fn params(seed: u64) -> StudyParams {
    StudyParams { seed, popular: 6, sensitive: 4, tail: 0, population: 5, idle_secs: 60 }
}

fn query(p: &StudyParams) -> String {
    format!(
        "/study?seed={:#x}&popular={}&sensitive={}&population={}&idle={}",
        p.seed, p.popular, p.sensitive, p.population, p.idle_secs
    )
}

/// Accumulates drained trace events until `done` is satisfied or the
/// deadline passes. Needed because a handler flushes its ring after its
/// connection ends (or, once tracing is off, when it exits at shutdown)
/// and pool workers flush theirs on engine drop, all of which trail the
/// client seeing `done` by a few scheduler ticks.
fn drain_until(done: impl Fn(&[TraceEvent]) -> bool) -> Vec<TraceEvent> {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut events = Vec::new();
    loop {
        events.extend(trace::drain());
        if done(&events) || Instant::now() >= deadline {
            return events;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn tracing_and_flightrec_change_no_served_byte_and_scope_every_event() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let p = params(0x7ACE);

    // Baseline first (tracing still globally off): one build, one
    // cached replay.
    let baseline = server::spawn(
        0,
        ServerConfig { workers: 2, cache_budget: Some(64 << 20), ..ServerConfig::default() },
    )
    .expect("bind baseline server");
    let base_built = client::collect_study(baseline.addr, &query(&p)).expect("baseline build");
    let base_replay = client::collect_study(baseline.addr, &query(&p)).expect("baseline replay");
    baseline.shutdown();
    assert!(!base_built.cached && base_replay.cached);

    // Same load with tracing AND the flight recorder + watchdog armed.
    let flight_dir = std::env::temp_dir().join(format!("panoptes-trace-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&flight_dir);
    drop(trace::drain());
    let traced = server::spawn(
        0,
        ServerConfig {
            workers: 2,
            cache_budget: Some(64 << 20),
            trace: true,
            flightrec_dir: Some(flight_dir.clone()),
            watchdog_deadline: Some(Duration::from_secs(120)),
            ..ServerConfig::default()
        },
    )
    .expect("bind traced server");
    let traced_built = client::collect_study(traced.addr, &query(&p)).expect("traced build");
    let traced_replay = client::collect_study(traced.addr, &query(&p)).expect("traced replay");
    traced.shutdown();
    panoptes_obs::disable(panoptes_obs::TRACE);

    // Byte identity: tracing/flightrec must be invisible in the
    // deterministic stream.
    assert_eq!(traced_built.doc, base_built.doc, "tracing changed served bytes (build path)");
    assert_eq!(traced_replay.doc, base_replay.doc, "tracing changed served bytes (replay path)");
    assert!(!traced_built.cached && traced_replay.cached);

    // Both requests' full span trees must have landed: two root spans,
    // their units, and the timing trailers.
    let events = drain_until(|events| {
        let roots =
            events.iter().filter(|e| e.name == "serve.request" && e.kind == EventKind::End).count();
        let units = events.iter().filter(|e| e.name == "serve.unit").count();
        let trailers = events.iter().filter(|e| e.name == "serve.timing").count();
        roots >= 2 && units >= 2 && trailers >= 2
    });

    // Every serve-path event carries the request it served — including
    // the ones recorded on pool worker threads after an explicit
    // context hand-off.
    let serve_events: Vec<&TraceEvent> =
        events.iter().filter(|e| e.name.starts_with("serve.")).collect();
    assert!(serve_events.len() >= 6, "expected a full serve trace, got {}", serve_events.len());
    for e in &serve_events {
        assert!(
            e.req.is_some(),
            "unscoped serve event {} (kind {:?}) — context lost across a thread boundary",
            e.name,
            e.kind
        );
    }

    // The two roots are distinct requests, and each unit span points
    // back at its request's root span across the pool hand-off.
    let roots: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.name == "serve.request" && e.kind == EventKind::Start)
        .collect();
    assert_eq!(roots.len(), 2, "one root span per request");
    assert_ne!(roots[0].req, roots[1].req, "each request has its own id");
    for unit in events.iter().filter(|e| e.name == "serve.unit" && e.kind == EventKind::Start) {
        let root = roots
            .iter()
            .find(|r| r.req == unit.req)
            .unwrap_or_else(|| panic!("unit {:?} has no matching root", unit.req));
        assert_eq!(
            unit.parent,
            Some(root.span),
            "unit span must parent on its request's root across the pool hand-off"
        );
        assert_ne!(unit.thread, root.thread, "units run on pool threads, not the handler");
    }

    // The doctor reconstructs the run: both requests present, phases
    // reconciling, and whole-document cache causality (request 1 built
    // the doc key, request 2 replayed it).
    let report = panoptes_serve::doctor::analyze(&events);
    assert_eq!(report.requests.len(), 2);
    report.validate(2_000).expect("doctor: timing attribution reconciles");
    let doc_causality = report.cache.get(&p.doc_key()).expect("doc key causality");
    assert_eq!(doc_causality.builders.len(), 1, "one single-flight builder");
    assert_eq!(doc_causality.hits.len(), 1, "the replay request hit the ready doc");

    let _ = std::fs::remove_dir_all(&flight_dir);
}

#[test]
fn timing_trailer_reconciles_with_completion_on_both_paths() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let p = params(0x71E0);
    let handle = server::spawn(
        0,
        ServerConfig { workers: 2, cache_budget: Some(64 << 20), ..ServerConfig::default() },
    )
    .expect("bind study server");

    let built = client::collect_study(handle.addr, &query(&p)).expect("build completes");
    let replay = client::collect_study(handle.addr, &query(&p)).expect("replay completes");
    handle.shutdown();

    for (label, capture) in [("built", &built), ("replay", &replay)] {
        let t = capture.timing.unwrap_or_else(|| panic!("{label}: stream carried no trailer"));
        assert_eq!(t.cached, capture.cached, "{label}: trailer cached flag");
        // The trailer's phases + explicit remainder reconcile exactly
        // with the measured completion (other_us saturates at zero, so
        // any overshoot is clock granularity, bounded tightly here).
        let sum = t.phases().iter().map(|&(_, us)| us).sum::<u64>();
        assert!(
            sum == t.total_us || (t.other_us == 0 && sum - t.total_us <= 2_000),
            "{label}: phases sum {sum}us vs total {}us",
            t.total_us
        );
        assert!(t.ttfe_us <= t.total_us, "{label}: ttfe exceeds completion");
        // Server-measured completion is bounded by the client's
        // connect-to-close window (which includes the network).
        assert!(
            t.total_us <= capture.total.as_micros() as u64 + 5_000,
            "{label}: server total {}us exceeds client window {}us",
            t.total_us,
            capture.total.as_micros()
        );
    }
    // The build did real work; the replay skipped capture entirely.
    let built_t = built.timing.expect("trailer");
    let replay_t = replay.timing.expect("trailer");
    assert!(built_t.capture_us > 0, "building a study waits on units");
    assert_eq!(replay_t.capture_us, 0, "a cache replay schedules no units");
    assert!(!replay_t.cached || replay_t.build_us == 0, "a replay builds nothing");
}
