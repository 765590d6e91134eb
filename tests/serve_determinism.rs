//! The study server's headline guarantee, enforced end-to-end over
//! real TCP: the bytes a served study streams (concatenated
//! `header`/`section` event payloads) are **identical** to what the
//! offline `repro` pipeline prints for the same parameters — for
//! concurrent requests with distinct seeds, with the shared cache on or
//! off, whichever offline worker count (`--jobs 1` or `--jobs 8`) is
//! used as the reference — and a client that disconnects mid-stream
//! neither poisons the shared cache nor leaks worker-pool lanes.

use std::time::{Duration, Instant};

use panoptes::fleet::FleetOptions;
use panoptes_bench::render;
use panoptes_bench::study::Phase;
use panoptes_serve::client;
use panoptes_serve::server::{self, ServerConfig};
use panoptes_serve::study::StudyParams;

/// A small-but-complete study: every section renders, runs in
/// milliseconds.
fn params(seed: u64) -> StudyParams {
    StudyParams { seed, popular: 6, sensitive: 4, tail: 0, population: 5, idle_secs: 60 }
}

fn query(p: &StudyParams) -> String {
    format!(
        "/study?seed={:#x}&popular={}&sensitive={}&population={}&idle={}",
        p.seed, p.popular, p.sensitive, p.population, p.idle_secs
    )
}

/// The offline reference: the document `repro --jobs N` prints for the
/// same study.
fn offline_doc(p: &StudyParams, jobs: usize) -> String {
    let study = p.study();
    let mut doc = render::header_md(&study.scale);
    study
        .run(&Phase::ALL, false, &FleetOptions::with_jobs(jobs), |phase| {
            for (_, text) in phase.sections() {
                doc.push_str(&text);
            }
        })
        .expect("offline study");
    doc
}

#[test]
fn concurrent_served_studies_match_offline_repro_at_jobs_1_and_8() {
    let seeds = [0x51u64, 0x52, 0x53];

    // Offline references, sequential (`--jobs 1`) and eight-worker
    // (`--jobs 8`): already byte-identical to each other, and the
    // bytes the server must reproduce.
    let references: Vec<String> = seeds
        .iter()
        .map(|&seed| {
            let p = params(seed);
            let sequential = offline_doc(&p, 1);
            assert_eq!(
                sequential,
                offline_doc(&p, 8),
                "offline jobs=1 vs jobs=8 diverged at seed {seed:#x}"
            );
            sequential
        })
        .collect();

    // The shared cache must be invisible in the bytes: the same load
    // against a server with the cache off builds every document.
    for cache_budget in [Some(64 << 20), None] {
        let handle =
            server::spawn(0, ServerConfig { workers: 3, cache_budget, ..ServerConfig::default() })
                .expect("bind study server");
        let addr = handle.addr;

        // Two concurrent requests per seed: exercises cross-study pool
        // interleaving AND, with the cache on, whole-document
        // single-flight (the second request for a seed replays the
        // first's document).
        let clients: Vec<_> = seeds
            .iter()
            .flat_map(|&seed| [seed, seed])
            .map(|seed| {
                std::thread::spawn(move || {
                    (seed, client::collect_study(addr, &query(&params(seed))))
                })
            })
            .collect();
        for thread in clients {
            let (seed, capture) = thread.join().expect("client thread");
            let capture = capture.expect("served study completes");
            let reference = &references[seeds.iter().position(|&s| s == seed).expect("known seed")];
            assert_eq!(
                &capture.doc, reference,
                "served bytes diverged from offline repro at seed {seed:#x} \
                 (cache budget {cache_budget:?})"
            );
            if cache_budget.is_none() {
                assert!(!capture.cached, "a server without a cache replays nothing");
            }
        }
        handle.shutdown();
    }
}

#[test]
fn sse_framing_carries_the_same_bytes() {
    let p = params(0x5E);
    let reference = offline_doc(&p, 1);
    let handle = server::spawn(0, ServerConfig { workers: 2, ..ServerConfig::default() })
        .expect("bind study server");
    let capture = client::collect_study(handle.addr, &format!("{}&format=sse", query(&p)))
        .expect("served study completes");
    assert_eq!(capture.doc, reference, "SSE-framed bytes diverged from offline repro");
    handle.shutdown();
}

#[test]
fn mid_stream_disconnect_does_not_poison_cache_or_leak_pool_slots() {
    let p = params(0xD15C);
    let reference = offline_doc(&p, 1);
    let handle = server::spawn(
        0,
        ServerConfig { workers: 2, cache_budget: Some(64 << 20), ..ServerConfig::default() },
    )
    .expect("bind study server");
    let addr = handle.addr;

    // Connect, read a couple of events, hang up mid-stream.
    {
        let mut stream = client::open_stream(addr, &query(&p)).expect("open stream");
        assert_eq!(stream.status(), 200);
        let first = stream.next_event().expect("first event").expect("header event");
        assert!(first.contains("\"event\":\"header\""), "stream starts with the header");
        let _ = stream.next_event();
        // Dropping the stream closes the socket: the server's next
        // event write fails and the study's lane is cancelled.
    }

    // The no-leak invariant: the cancelled study's lane drains and is
    // reaped; nothing stays queued. Polled because cancellation is
    // detected on the server's next write after the hangup.
    let settle_deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let engine = handle.engine();
        if engine.lanes() == 0 && engine.queue_depth() == 0 {
            break;
        }
        assert!(
            Instant::now() < settle_deadline,
            "disconnected study failed to settle: {} lanes, {} queued",
            engine.lanes(),
            engine.queue_depth()
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // The no-poison invariant: the aborted build abandoned its cache
    // slot, so a retry rebuilds from scratch (not a cache replay) and
    // still streams the exact offline bytes.
    let retry = client::collect_study(addr, &query(&p)).expect("retry completes");
    assert!(!retry.cached, "half-built study must not have been cached");
    assert_eq!(retry.doc, reference, "post-disconnect retry diverged from offline repro");

    // And the rebuilt document IS cached for the next request.
    let replay = client::collect_study(addr, &query(&p)).expect("replay completes");
    assert!(replay.cached, "completed study should replay from the document cache");
    assert_eq!(replay.doc, reference);
    handle.shutdown();
}
