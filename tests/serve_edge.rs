//! The HTTP edge's warm connection handlers, over real TCP with tracing
//! on. Sequential replays must reuse parked handlers instead of
//! spawning a thread per connection, each finished request's trace
//! events must be drainable while the server still runs (a parked
//! handler flushes its ring after every connection), and a burst of
//! concurrent requests larger than the parking cap must get every byte.
//!
//! Tracing is process-global, so this file is its own test binary and
//! holds one test.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use panoptes::fleet::FleetOptions;
use panoptes_bench::render;
use panoptes_bench::study::Phase;
use panoptes_obs::trace::{self, EventKind, TraceEvent};
use panoptes_serve::client;
use panoptes_serve::server::{self, ServerConfig};
use panoptes_serve::study::StudyParams;

fn params() -> StudyParams {
    StudyParams { seed: 0xED6E, popular: 2, sensitive: 1, tail: 0, population: 2, idle_secs: 60 }
}

fn query(p: &StudyParams) -> String {
    format!(
        "/study?seed={:#x}&popular={}&sensitive={}&population={}&idle={}",
        p.seed, p.popular, p.sensitive, p.population, p.idle_secs
    )
}

/// The document offline `repro` prints for the same study.
fn offline_doc(p: &StudyParams) -> String {
    let study = p.study();
    let mut doc = render::header_md(&study.scale);
    study
        .run(&Phase::ALL, false, &FleetOptions::with_jobs(1), |phase| {
            for (_, text) in phase.sections() {
                doc.push_str(&text);
            }
        })
        .expect("offline study");
    doc
}

/// The `serve.request` end events drained so far, polling until `want`
/// have arrived or the deadline passes.
fn drain_request_ends(want: usize) -> Vec<TraceEvent> {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut ends = Vec::new();
    loop {
        ends.extend(
            trace::drain()
                .into_iter()
                .filter(|e| e.name == "serve.request" && e.kind == EventKind::End),
        );
        if ends.len() >= want || Instant::now() >= deadline {
            return ends;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn replays_reuse_parked_handlers_flush_their_rings_and_a_burst_gets_every_byte() {
    let p = params();
    let offline = offline_doc(&p);
    let max_active = 4;
    panoptes_obs::enable(panoptes_obs::TRACE);
    let handle = server::spawn(
        0,
        ServerConfig {
            workers: 2,
            cache_budget: Some(16 << 20),
            max_active,
            ..ServerConfig::default()
        },
    )
    .expect("bind study server");
    let (addr, q) = (handle.addr, query(&p));
    drop(trace::drain());

    let built = client::collect_study(addr, &q).expect("build");
    assert!(!built.cached);
    assert_eq!(built.doc, offline, "built stream differs from offline repro");
    let replays = 30;
    for _ in 0..replays {
        let replay = client::collect_study(addr, &q).expect("replay");
        assert!(replay.cached);
        assert_eq!(replay.doc, offline, "replayed stream differs from offline repro");
    }

    // Drained before shutdown: no handler has exited yet.
    let ends = drain_request_ends(1 + replays);
    assert_eq!(
        ends.len(),
        1 + replays,
        "a finished request's root span must be drainable while its handler is parked"
    );
    let threads: HashSet<u64> = ends.iter().map(|e| e.thread).collect();
    assert!(
        threads.len() <= max_active + 1,
        "{} sequential requests ran on {} handler threads; parked handlers were not reused",
        ends.len(),
        threads.len()
    );

    // More concurrent connections than handlers may park: each is
    // handed to a thread that receives it.
    let burst: Vec<_> = (0..3 * max_active)
        .map(|_| {
            let q = q.clone();
            std::thread::spawn(move || client::collect_study(addr, &q))
        })
        .collect();
    for client in burst {
        let replay = client.join().expect("client thread").expect("burst replay");
        assert!(replay.cached);
        assert_eq!(replay.doc, offline, "burst replay differs from offline repro");
    }

    handle.shutdown();
    panoptes_obs::disable(panoptes_obs::TRACE);
}
