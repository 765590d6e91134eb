//! The served load: seed plans, one closed-loop client per worker, and
//! the checks every served response must pass.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use panoptes_serve::client;
use panoptes_serve::doctor::{Report, RequestSummary, Timing};
use panoptes_serve::json;

use crate::stats::{Failure, P90_MIN_SAMPLES};
use crate::study::served_params;

/// Seeds served-replay primes during set-up and then replays.
pub const PRIMED_SEEDS: u64 = 4;

/// Clock slack the `timing` trailer may overshoot its total by, as the
/// study server's own trace validation allows.
const TIMING_SLACK_US: u64 = 2_000;

/// Warm-up seeds are drawn from indices at or above this offset, which
/// measured requests never reach.
const WARMUP_OFFSET: u64 = 1 << 63;

/// The splitmix64 finalizer: a bijection on `u64`.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The seeds one run requests, all derived from the workload seed.
/// Distinct indices give distinct seeds because [`mix`] is a bijection.
#[derive(Debug, Clone, Copy)]
pub struct SeedPlan {
    base: u64,
}

impl SeedPlan {
    /// The plan for workload seed `seed`.
    pub fn new(seed: u64) -> SeedPlan {
        SeedPlan { base: mix(seed) }
    }

    /// The `i`-th measured served-cold seed: new to the server.
    pub fn cold(&self, i: u64) -> u64 {
        mix(self.base.wrapping_add(i))
    }

    /// The `i`-th warm-up seed, never one of the measured seeds.
    pub fn warmup(&self, i: u64) -> u64 {
        self.cold(WARMUP_OFFSET + i)
    }

    /// The seeds served-replay primes.
    pub fn primed(&self) -> Vec<u64> {
        (0..PRIMED_SEEDS).map(|i| self.cold(i)).collect()
    }

    /// The seed of the `i`-th served-replay request.
    pub fn replay(&self, i: u64) -> u64 {
        self.cold(i % PRIMED_SEEDS)
    }
}

/// The request path of a served study.
fn query(seed: u64) -> String {
    let p = served_params(seed);
    format!(
        "/study?seed={}&popular={}&sensitive={}&population={}&idle={}",
        p.seed, p.popular, p.sensitive, p.population, p.idle_secs
    )
}

/// One served request, as the client saw it.
#[derive(Debug, Clone)]
pub struct Response {
    /// The requested seed.
    pub seed: u64,
    /// Connect → first event.
    pub ttfe: Duration,
    /// Connect → `done` event.
    pub completion: Duration,
    /// The server's trailer (present whenever `failure` is `None`).
    pub timing: Option<Timing>,
    /// Index of this response's document among the distinct documents
    /// its client received for the seed.
    pub variant: usize,
    /// Why the request failed, if it did; a byte mismatch is only known
    /// once the references exist.
    pub failure: Option<Failure>,
}

/// Every response one client received, with each seed's distinct
/// documents kept once.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Responses in request order.
    pub responses: Vec<Response>,
    /// Distinct documents per seed.
    pub docs: HashMap<u64, Vec<String>>,
}

impl ClientLog {
    /// Sends one study request and records it.
    pub fn request(&mut self, addr: SocketAddr, seed: u64) {
        let started = Instant::now();
        let mut response = Response {
            seed,
            ttfe: Duration::ZERO,
            completion: Duration::ZERO,
            timing: None,
            variant: 0,
            failure: None,
        };
        let mut stream = match client::open_stream(addr, &query(seed)) {
            Ok(stream) => stream,
            Err(_) => {
                response.failure = Some(Failure::Connect);
                self.responses.push(response);
                return;
            }
        };
        if stream.status() != 200 {
            response.failure = Some(Failure::Status);
            self.responses.push(response);
            return;
        }
        let mut events = Vec::new();
        while let Ok(Some(line)) = stream.next_event() {
            let elapsed = started.elapsed();
            if events.is_empty() {
                response.ttfe = elapsed;
            }
            if json::field(&line, "event").as_deref() == Some("done") {
                response.completion = elapsed;
            }
            events.push(line);
        }
        match check_stream(&events) {
            Ok((doc, timing)) => {
                response.timing = Some(timing);
                let docs = self.docs.entry(seed).or_default();
                response.variant = docs.iter().position(|d| *d == doc).unwrap_or_else(|| {
                    docs.push(doc);
                    docs.len() - 1
                });
            }
            Err(failure) => response.failure = Some(failure),
        }
        self.responses.push(response);
    }

    /// Marks every response whose document differs from its seed's
    /// reference as a byte mismatch.
    pub fn check_docs(&mut self, references: &HashMap<u64, String>) {
        for r in self.responses.iter_mut().filter(|r| r.failure.is_none()) {
            if references.get(&r.seed) != Some(&self.docs[&r.seed][r.variant]) {
                r.failure = Some(Failure::Mismatch);
            }
        }
    }
}

/// Checks one stream's event lines: no `error` event, a `done` event, and
/// a `timing` trailer that reconciles. Returns the concatenated
/// `header` + `section` payload and the trailer, or the first failure
/// found, so a stream that is wrong in several ways counts once.
pub fn check_stream(events: &[String]) -> Result<(String, Timing), Failure> {
    let kind = |line: &String| json::field(line, "event");
    if events.iter().any(|e| kind(e).as_deref() == Some("error")) {
        return Err(Failure::ErrorEvent);
    }
    if !events.iter().any(|e| kind(e).as_deref() == Some("done")) {
        return Err(Failure::MissingDone);
    }
    let timing = events
        .iter()
        .find_map(|e| Timing::parse(e))
        .ok_or(Failure::Timing)?;
    let summary = RequestSummary {
        request: timing.request,
        label: String::new(),
        start_ns: 0,
        end_ns: 0,
        spans: Vec::new(),
        points: 0,
        timing: Some(timing),
    };
    Report {
        requests: vec![summary],
        ..Report::default()
    }
    .validate(TIMING_SLACK_US)
    .map_err(|_| Failure::Timing)?;
    let mut doc = String::new();
    for e in events {
        if matches!(kind(e).as_deref(), Some("header" | "section")) {
            doc.push_str(&json::field(e, "data").unwrap_or_default());
        }
    }
    Ok((doc, timing))
}

/// Runs `clients` clients against `addr`, each sending its next request
/// when its previous one completes. The `i`-th request overall asks for
/// `seed_of(i)`; a client stops at the first `i` for which that is `None`.
pub fn drive(
    addr: SocketAddr,
    clients: usize,
    seed_of: impl Fn(u64) -> Option<u64> + Sync,
) -> Vec<ClientLog> {
    let next = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut log = ClientLog::default();
                    while let Some(seed) = seed_of(next.fetch_add(1, Ordering::Relaxed)) {
                        log.request(addr, seed);
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client panicked"))
            .collect()
    })
}

/// Requests each of `seeds` once, `clients` at a time.
pub fn batch(addr: SocketAddr, clients: usize, seeds: &[u64]) -> Vec<ClientLog> {
    drive(addr, clients, |i| {
        usize::try_from(i).ok().and_then(|i| seeds.get(i)).copied()
    })
}

/// The measured closed loop: clients keep sending until `window` has
/// passed and at least [`P90_MIN_SAMPLES`] requests went out. Returns the
/// logs and the time until the last response completed.
pub fn closed_loop(
    addr: SocketAddr,
    clients: usize,
    window: Duration,
    seed_of: impl Fn(u64) -> u64 + Sync,
) -> (Vec<ClientLog>, Duration) {
    let started = Instant::now();
    let logs = drive(addr, clients, |i| {
        (started.elapsed() < window || i < P90_MIN_SAMPLES as u64).then(|| seed_of(i))
    });
    (logs, started.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn served_cold_never_repeats_a_seed_and_never_meets_a_warmup_seed() {
        for workload_seed in [0, 1, 42, u64::MAX] {
            let plan = SeedPlan::new(workload_seed);
            let cold: HashSet<u64> = (0..100_000).map(|i| plan.cold(i)).collect();
            assert_eq!(cold.len(), 100_000, "a repeated seed would be a cache hit");
            assert!((0..64).all(|i| !cold.contains(&plan.warmup(i))));
        }
        assert_ne!(
            SeedPlan::new(1).cold(0),
            SeedPlan::new(2).cold(0),
            "the workload seed picks the inputs"
        );
    }

    #[test]
    fn served_replay_only_requests_primed_seeds() {
        let plan = SeedPlan::new(7);
        let primed: HashSet<u64> = plan.primed().into_iter().collect();
        assert_eq!(primed.len(), PRIMED_SEEDS as usize);
        let requested: HashSet<u64> = (0..10_000).map(|i| plan.replay(i)).collect();
        assert_eq!(requested, primed);
    }

    fn timing(total_us: u64, other_us: u64) -> String {
        format!(
            "{{\"event\":\"timing\",\"request\":1,\"cached\":false,\"total_us\":{total_us},\"ttfe_us\":5,\
             \"admission_us\":0,\"cache_wait_us\":0,\"build_us\":40,\"capture_us\":30,\"analysis_us\":10,\
             \"render_us\":5,\"write_us\":5,\"other_us\":{other_us}}}"
        )
    }

    fn stream(lines: &[&str]) -> Vec<String> {
        lines.iter().map(|l| l.to_string()).collect()
    }

    #[test]
    fn a_good_stream_yields_its_document() {
        let trailer = timing(100, 10);
        let events = stream(&[
            r#"{"event":"header","study":"study-0","data":"head\n"}"#,
            r#"{"event":"section","name":"fig2","data":"a\tb\n"}"#,
            &trailer,
            r#"{"event":"done","cached":false,"bytes":11,"sections":1}"#,
        ]);
        let (doc, t) = check_stream(&events).expect("valid");
        assert_eq!(doc, "head\na\tb\n");
        assert_eq!(t.total_us, 100);
    }

    #[test]
    fn a_stream_wrong_in_several_ways_fails_once_under_the_first_kind() {
        let error = r#"{"event":"error","message":"boom"}"#;
        assert_eq!(
            check_stream(&stream(&[error])),
            Err(Failure::ErrorEvent),
            "no done and no trailer either"
        );
        let header = r#"{"event":"header","study":"s","data":"x"}"#;
        assert_eq!(check_stream(&stream(&[header])), Err(Failure::MissingDone));
        let done = r#"{"event":"done","cached":false,"bytes":1,"sections":0}"#;
        assert_eq!(
            check_stream(&stream(&[header, done])),
            Err(Failure::Timing),
            "no trailer"
        );
        let unreconciled = timing(500, 10);
        assert_eq!(
            check_stream(&stream(&[header, &unreconciled, done])),
            Err(Failure::Timing)
        );
    }
}
