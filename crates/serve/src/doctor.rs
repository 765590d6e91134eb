//! The offline trace analyst behind `panoptes-doctor`: per-request
//! waterfalls, latency attribution, slow-study ranking, and cache
//! causality, reconstructed from trace JSONL or flight-recorder dumps.
//!
//! The serve path emits two kinds of post-hoc evidence:
//!
//! * **request-scoped traces** — `panoptes_obs::trace` JSONL where
//!   every event carries the request it served (`req`) and, across
//!   thread hand-offs, the spawning side's span (`parent`). The
//!   `serve.timing` point's detail is the same latency-attribution
//!   trailer the client saw on the stream.
//! * **flight-recorder dumps** — the post-mortem JSONL written by
//!   [`crate::flightrec`] on a stall, a panic, or on demand.
//!
//! [`analyze`] groups trace events by request and pairs span starts
//! with ends; [`render_report`] draws one waterfall per request (bars
//! scaled to the request's own wall-clock window), the phase
//! attribution from the `timing` trailer with the critical (largest)
//! phase called out, the top-N slowest studies, and which request
//! built each cache key versus which requests replayed it.
//! [`Report::validate`] cross-checks every trailer: the seven phases
//! plus `other_us` must reconcile with `total_us` — the acceptance
//! gate for the attribution math. [`check_trace`] checks the trace
//! document itself: it re-emits byte for byte, and its spans balance
//! and stay within their request.
//!
//! Everything here is read-only over strings: the doctor never loads
//! the pipeline, so it can dissect a dump from a wedged or crashed
//! server without reproducing the wedge.

use std::collections::BTreeMap;

use panoptes_obs::trace::{parse_jsonl, to_jsonl, EventKind, TraceEvent};

use crate::json;

/// One latency-attribution trailer (`{"event":"timing",...}`), parsed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Timing {
    /// The request the trailer describes.
    pub request: u64,
    /// Served from the whole-document cache (replay, zero units).
    pub cached: bool,
    /// Request wall time, socket-read to final event, microseconds.
    pub total_us: u64,
    /// Time to first streamed event, microseconds.
    pub ttfe_us: u64,
    /// Blocked in the admission queue.
    pub admission_us: u64,
    /// Blocked on another request's in-flight cache build.
    pub cache_wait_us: u64,
    /// Building shared artifacts (world, population, filterlist,
    /// resources).
    pub build_us: u64,
    /// Waiting for campaign units: capturing and analysing them on the
    /// pool.
    pub capture_us: u64,
    /// Analysing on the request's handler thread: always 0, since each
    /// unit is analysed on the worker that captures it (inside
    /// `capture_us`). Kept because the trailer carries the key.
    pub analysis_us: u64,
    /// Rendering document sections.
    pub render_us: u64,
    /// Writing to the client socket (backpressure included).
    pub write_us: u64,
    /// Unattributed remainder, so phases + other == total.
    pub other_us: u64,
}

/// The phase names and values, in trailer order.
impl Timing {
    /// `(name, microseconds)` for each attributed phase plus `other`.
    pub fn phases(&self) -> [(&'static str, u64); 8] {
        [
            ("admission", self.admission_us),
            ("cache_wait", self.cache_wait_us),
            ("build", self.build_us),
            ("capture", self.capture_us),
            ("analysis", self.analysis_us),
            ("render", self.render_us),
            ("write", self.write_us),
            ("other", self.other_us),
        ]
    }

    /// Sum of [`Timing::phases`].
    pub fn phase_sum(&self) -> u64 {
        self.phases().iter().map(|&(_, us)| us).sum()
    }

    /// The largest phase — the critical attribution target.
    pub fn critical_phase(&self) -> (&'static str, u64) {
        self.phases()
            .into_iter()
            .max_by_key(|&(_, us)| us)
            .unwrap_or(("other", 0))
    }

    /// Parses the trailer out of its flat-JSON line. `None` when the
    /// line is not a timing trailer.
    pub fn parse(line: &str) -> Option<Timing> {
        if json::field(line, "event").as_deref() != Some("timing") {
            return None;
        }
        Some(Timing {
            request: json::uint_field(line, "request")?,
            cached: line.contains("\"cached\":true"),
            total_us: json::uint_field(line, "total_us")?,
            ttfe_us: json::uint_field(line, "ttfe_us")?,
            admission_us: json::uint_field(line, "admission_us")?,
            cache_wait_us: json::uint_field(line, "cache_wait_us")?,
            build_us: json::uint_field(line, "build_us")?,
            capture_us: json::uint_field(line, "capture_us")?,
            analysis_us: json::uint_field(line, "analysis_us")?,
            render_us: json::uint_field(line, "render_us")?,
            write_us: json::uint_field(line, "write_us")?,
            other_us: json::uint_field(line, "other_us")?,
        })
    }
}

/// One completed (or still-open) span inside a request.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Span name (`serve.request`, `serve.unit`, …).
    pub name: String,
    /// Wall-clock start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Wall-clock end; `None` when the end event was never recorded
    /// (crash, ring overwrite).
    pub end_ns: Option<u64>,
    /// The recording thread.
    pub thread: u64,
    /// The spawning side's span across a thread hand-off.
    pub parent: Option<u64>,
    /// Start-event annotation (unit label, cache key, params).
    pub detail: Option<String>,
}

impl SpanRec {
    fn duration_ns(&self, fallback_end: u64) -> u64 {
        self.end_ns
            .unwrap_or(fallback_end)
            .saturating_sub(self.start_ns)
    }
}

/// Everything one request did, reconstructed from its trace events.
#[derive(Debug, Clone)]
pub struct RequestSummary {
    /// The request id.
    pub request: u64,
    /// The root span's detail — the equivalent `repro` invocation.
    pub label: String,
    /// Earliest event, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Latest event.
    pub end_ns: u64,
    /// The request's spans in start order.
    pub spans: Vec<SpanRec>,
    /// Point-event count (annotations, cache hits, the trailer).
    pub points: usize,
    /// The parsed `serve.timing` trailer, when present.
    pub timing: Option<Timing>,
}

/// One cache key's causality: who built it, who reused it.
#[derive(Debug, Clone, Default)]
pub struct CacheCausality {
    /// Requests that built this key (normally one; several under
    /// eviction-and-rebuild), with the build duration when the span
    /// closed.
    pub builders: Vec<(u64, Option<u64>)>,
    /// Requests served by a ready entry (`serve.cache.hit`).
    pub hits: Vec<u64>,
    /// Requests that waited on an in-flight build
    /// (`serve.cache.waited`).
    pub waiters: Vec<u64>,
}

/// The analyzed trace: requests plus cross-request cache causality.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Per-request reconstruction, by request id.
    pub requests: Vec<RequestSummary>,
    /// Per-cache-key causality, by key.
    pub cache: BTreeMap<String, CacheCausality>,
    /// Events with no request id (offline spans, pool idle churn).
    pub unscoped_events: usize,
}

impl Report {
    /// Cross-checks every request's timing trailer: phases must
    /// reconcile with the measured total. `other_us` is computed by
    /// saturating subtraction at emit time, so either the eight parts
    /// sum to `total_us` exactly, or `other_us` is zero and the seven
    /// measured phases overshoot by at most `slack_us` (clock
    /// granularity). TTFE can never exceed completion.
    pub fn validate(&self, slack_us: u64) -> Result<(), String> {
        for r in &self.requests {
            let Some(t) = &r.timing else { continue };
            let sum = t.phase_sum();
            let reconciles = sum == t.total_us
                || (t.other_us == 0 && sum >= t.total_us && sum - t.total_us <= slack_us);
            if !reconciles {
                return Err(format!(
                    "request {}: phases sum to {}us but total is {}us (slack {}us)",
                    r.request, sum, t.total_us, slack_us
                ));
            }
            if t.ttfe_us > t.total_us {
                return Err(format!(
                    "request {}: ttfe {}us exceeds total {}us",
                    r.request, t.ttfe_us, t.total_us
                ));
            }
        }
        Ok(())
    }
}

/// Groups trace events by request and reconstructs each request's
/// spans, trailer, and the cache-causality table.
pub fn analyze(events: &[TraceEvent]) -> Report {
    // Request id -> (label, span-id -> index into spans, spans, points,
    // timing, start, end).
    struct Acc {
        label: String,
        spans: Vec<SpanRec>,
        open: BTreeMap<u64, usize>,
        points: usize,
        timing: Option<Timing>,
        start_ns: u64,
        end_ns: u64,
    }
    let mut requests: BTreeMap<u64, Acc> = BTreeMap::new();
    let mut cache: BTreeMap<String, CacheCausality> = BTreeMap::new();
    // Span id -> request, for attributing cache-build ends.
    let mut unscoped = 0usize;

    for e in events {
        let Some(req) = e.req else {
            unscoped += 1;
            continue;
        };
        let acc = requests.entry(req).or_insert_with(|| Acc {
            label: String::new(),
            spans: Vec::new(),
            open: BTreeMap::new(),
            points: 0,
            timing: None,
            start_ns: e.wall_ns,
            end_ns: e.wall_ns,
        });
        acc.start_ns = acc.start_ns.min(e.wall_ns);
        acc.end_ns = acc.end_ns.max(e.wall_ns);
        match e.kind {
            EventKind::Start => {
                if e.name == "serve.request" {
                    if let Some(detail) = &e.detail {
                        acc.label = detail.clone();
                    }
                }
                acc.open.insert(e.span, acc.spans.len());
                acc.spans.push(SpanRec {
                    name: e.name.clone(),
                    start_ns: e.wall_ns,
                    end_ns: None,
                    thread: e.thread,
                    parent: e.parent,
                    detail: e.detail.clone(),
                });
                if e.name == "serve.cache.build" {
                    if let Some(key) = &e.detail {
                        cache
                            .entry(key.clone())
                            .or_default()
                            .builders
                            .push((req, None));
                    }
                }
            }
            EventKind::End => {
                if let Some(&i) = acc.open.get(&e.span) {
                    acc.spans[i].end_ns = Some(e.wall_ns);
                    acc.open.remove(&e.span);
                    if acc.spans[i].name == "serve.cache.build" {
                        if let Some(key) = &acc.spans[i].detail {
                            let duration = e.wall_ns.saturating_sub(acc.spans[i].start_ns) / 1_000;
                            if let Some(c) = cache.get_mut(key) {
                                if let Some(b) = c.builders.iter_mut().rev().find(|b| b.0 == req) {
                                    b.1 = Some(duration);
                                }
                            }
                        }
                    }
                }
            }
            EventKind::Point => {
                acc.points += 1;
                match e.name.as_str() {
                    "serve.timing" => {
                        if let Some(detail) = &e.detail {
                            acc.timing = Timing::parse(detail);
                        }
                    }
                    "serve.cache.hit" => {
                        if let Some(key) = &e.detail {
                            cache.entry(key.clone()).or_default().hits.push(req);
                        }
                    }
                    "serve.cache.waited" => {
                        if let Some(key) = &e.detail {
                            cache.entry(key.clone()).or_default().waiters.push(req);
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    let requests = requests
        .into_iter()
        .map(|(request, acc)| RequestSummary {
            request,
            label: acc.label,
            start_ns: acc.start_ns,
            end_ns: acc.end_ns,
            spans: acc.spans,
            points: acc.points,
            timing: acc.timing,
        })
        .collect();
    Report {
        requests,
        cache,
        unscoped_events: unscoped,
    }
}

/// Parses a trace JSONL document and analyzes it.
pub fn analyze_jsonl(text: &str) -> Result<Report, String> {
    Ok(analyze(&parse_jsonl(text)?))
}

/// Checks a trace JSONL document: it parses and re-emits byte for byte,
/// every span that starts also ends, a span starts and ends in the same
/// request, and no span is its own parent. Rings overwrite their oldest
/// events under pressure, so a start can outlive its end in a huge
/// trace; in a smoke trace every span must balance.
pub fn check_trace(text: &str) -> Result<(), String> {
    let events = parse_jsonl(text)?;
    if to_jsonl(&events) != text {
        return Err("re-emit is not byte-identical to the input".to_string());
    }
    let count = |kind| events.iter().filter(|e| e.kind == kind).count();
    let (starts, ends) = (count(EventKind::Start), count(EventKind::End));
    if starts != ends {
        return Err(format!("{starts} span starts vs {ends} ends"));
    }
    let start_req: BTreeMap<u64, Option<u64>> = events
        .iter()
        .filter(|e| e.kind == EventKind::Start)
        .map(|e| (e.span, e.req))
        .collect();
    for e in &events {
        if e.kind == EventKind::End {
            if let Some(req) = start_req.get(&e.span).filter(|&&req| req != e.req) {
                return Err(format!(
                    "span {} ({}) starts in request {req:?} but ends in {:?}",
                    e.span, e.name, e.req
                ));
            }
        }
        if e.parent == Some(e.span) {
            return Err(format!("span {} ({}) parents on itself", e.span, e.name));
        }
    }
    Ok(())
}

/// True when `text` is a flight-recorder dump rather than a trace
/// (its first line is the `flightmeta` header).
pub fn is_flight_dump(text: &str) -> bool {
    text.lines()
        .find(|l| !l.trim().is_empty())
        .is_some_and(|l| l.contains("\"ev\":\"flightmeta\""))
}

fn ms(us_or_ns: u64, per_ms: u64) -> f64 {
    us_or_ns as f64 / per_ms as f64
}

fn bar(offset_ns: u64, duration_ns: u64, window_ns: u64, width: usize) -> String {
    let window = window_ns.max(1);
    let scale = |ns: u64| ((ns as u128 * width as u128) / window as u128) as usize;
    let lead = scale(offset_ns).min(width);
    let body = scale(duration_ns).clamp(1, width - lead.min(width - 1));
    let mut out = String::with_capacity(width + 2);
    out.push('|');
    for _ in 0..lead {
        out.push(' ');
    }
    for _ in 0..body {
        out.push('#');
    }
    for _ in 0..(width - lead - body) {
        out.push(' ');
    }
    out.push('|');
    out
}

/// Renders the report: top-N slowest requests (each with its phase
/// attribution and span waterfall), then the cache-causality table.
pub fn render_report(report: &Report, top: usize) -> String {
    let mut out = String::new();
    let mut by_cost: Vec<&RequestSummary> = report.requests.iter().collect();
    by_cost.sort_by_key(|r| {
        std::cmp::Reverse(
            r.timing
                .map(|t| t.total_us)
                .unwrap_or((r.end_ns - r.start_ns) / 1_000),
        )
    });

    out.push_str(&format!(
        "doctor: {} request(s), {} unscoped event(s)\n",
        report.requests.len(),
        report.unscoped_events
    ));
    out.push_str(&format!("top {} by completion:\n", top.min(by_cost.len())));
    for r in by_cost.iter().take(top) {
        let total_us = r
            .timing
            .map(|t| t.total_us)
            .unwrap_or((r.end_ns - r.start_ns) / 1_000);
        out.push_str(&format!(
            "  request {:<4} {:>9.1}ms  {}\n",
            r.request,
            ms(total_us, 1_000),
            if r.label.is_empty() {
                "(no root span)"
            } else {
                &r.label
            }
        ));
    }
    out.push('\n');

    for r in by_cost.iter().take(top) {
        let window_ns = (r.end_ns - r.start_ns).max(1);
        out.push_str(&format!(
            "request {} — {}\n",
            r.request,
            if r.label.is_empty() {
                "(no root span)"
            } else {
                &r.label
            }
        ));
        if let Some(t) = &r.timing {
            out.push_str(&format!(
                "  completion {:.1}ms  ttfe {:.1}ms  cached={}\n",
                ms(t.total_us, 1_000),
                ms(t.ttfe_us, 1_000),
                t.cached
            ));
            let (critical, critical_us) = t.critical_phase();
            out.push_str("  attribution:");
            for (name, us) in t.phases() {
                if us == 0 {
                    continue;
                }
                out.push_str(&format!(
                    " {name} {:.1}ms ({:.0}%)",
                    ms(us, 1_000),
                    100.0 * us as f64 / t.total_us.max(1) as f64
                ));
            }
            out.push('\n');
            out.push_str(&format!(
                "  critical path: {critical} ({:.0}% of completion)\n",
                100.0 * critical_us as f64 / t.total_us.max(1) as f64
            ));
        } else {
            out.push_str(&format!(
                "  window {:.1}ms (no timing trailer)\n",
                ms(window_ns, 1_000_000)
            ));
        }
        out.push_str(&format!(
            "  waterfall ({} spans, {} points):\n",
            r.spans.len(),
            r.points
        ));
        for s in &r.spans {
            let offset = s.start_ns - r.start_ns;
            let duration = s.duration_ns(r.end_ns);
            out.push_str(&format!(
                "    {:<24} {:>9.2}ms +{:>9.2}ms {} {}\n",
                s.name,
                ms(duration, 1_000_000),
                ms(offset, 1_000_000),
                bar(offset, duration, window_ns, 40),
                match (&s.detail, s.end_ns) {
                    (Some(d), Some(_)) => d.clone(),
                    (Some(d), None) => format!("{d} [unclosed]"),
                    (None, Some(_)) => String::new(),
                    (None, None) => "[unclosed]".to_string(),
                }
            ));
        }
        out.push('\n');
    }

    if !report.cache.is_empty() {
        out.push_str("cache causality:\n");
        for (key, c) in &report.cache {
            out.push_str(&format!("  {key}\n"));
            for (builder, duration) in &c.builders {
                match duration {
                    Some(us) => out.push_str(&format!(
                        "    built by request {builder} in {:.1}ms\n",
                        ms(*us, 1_000)
                    )),
                    None => out.push_str(&format!("    built by request {builder} [unclosed]\n")),
                }
            }
            if !c.waiters.is_empty() {
                out.push_str(&format!(
                    "    waited on in-flight build: requests {:?}\n",
                    c.waiters
                ));
            }
            if !c.hits.is_empty() {
                out.push_str(&format!("    replayed ready: requests {:?}\n", c.hits));
            }
        }
    }
    out
}

/// One active-study line from a flight dump.
#[derive(Debug, Clone)]
pub struct FlightStudy {
    /// The request id.
    pub request: u64,
    /// The study's parameters.
    pub params: String,
    /// When it registered, ms since recorder start.
    pub started_ms: u64,
    /// Last sign of life, ms since recorder start.
    pub last_progress_ms: u64,
    /// Units completed.
    pub done: u64,
    /// Units planned.
    pub total: u64,
    /// The watchdog had already flagged it.
    pub stalled: bool,
}

/// A parsed flight-recorder dump.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// Why the dump was written.
    pub reason: String,
    /// Dump time, ms since recorder start.
    pub at_ms: u64,
    /// Ring events lost to capacity before the dump.
    pub dropped: u64,
    /// The server's lane/queue/cache line at dump time.
    pub snapshot: String,
    /// Studies in flight at dump time.
    pub studies: Vec<FlightStudy>,
    /// `(t_ms, request, kind, detail)` ring events, oldest first.
    pub events: Vec<(u64, u64, String, String)>,
}

/// Parses a flight-recorder dump (the format
/// [`crate::flightrec::FlightRecorder::dump_to_string`] writes).
pub fn parse_flight_dump(text: &str) -> Result<FlightDump, String> {
    let mut dump: Option<FlightDump> = None;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let err = |what: &str| format!("flight line {}: missing {what}", i + 1);
        match json::field(line, "ev").as_deref() {
            Some("flightmeta") => {
                dump = Some(FlightDump {
                    reason: json::field(line, "reason").ok_or_else(|| err("reason"))?,
                    at_ms: json::uint_field(line, "at_ms").ok_or_else(|| err("at_ms"))?,
                    dropped: json::uint_field(line, "dropped").unwrap_or(0),
                    snapshot: json::field(line, "snapshot").unwrap_or_default(),
                    studies: Vec::new(),
                    events: Vec::new(),
                });
            }
            Some("study") => {
                let dump = dump.as_mut().ok_or_else(|| err("flightmeta header"))?;
                dump.studies.push(FlightStudy {
                    request: json::uint_field(line, "request").ok_or_else(|| err("request"))?,
                    params: json::field(line, "params").unwrap_or_default(),
                    started_ms: json::uint_field(line, "started_ms").unwrap_or(0),
                    last_progress_ms: json::uint_field(line, "last_progress_ms").unwrap_or(0),
                    done: json::uint_field(line, "done").unwrap_or(0),
                    total: json::uint_field(line, "total").unwrap_or(0),
                    stalled: line.contains("\"stalled\":true"),
                });
            }
            Some("flight") => {
                let dump = dump.as_mut().ok_or_else(|| err("flightmeta header"))?;
                dump.events.push((
                    json::uint_field(line, "t_ms").ok_or_else(|| err("t_ms"))?,
                    json::uint_field(line, "request").ok_or_else(|| err("request"))?,
                    json::field(line, "kind").ok_or_else(|| err("kind"))?,
                    json::field(line, "detail").unwrap_or_default(),
                ));
            }
            other => {
                return Err(format!("flight line {}: unknown ev {other:?}", i + 1));
            }
        }
    }
    dump.ok_or_else(|| "empty flight dump".to_string())
}

/// Renders a parsed flight dump as a post-mortem narrative.
pub fn render_flight_dump(dump: &FlightDump) -> String {
    let mut out = String::new();
    out.push_str(&format!("flight recorder post-mortem — {}\n", dump.reason));
    out.push_str(&format!(
        "at +{}ms  snapshot: {}  (ring dropped {} older events)\n",
        dump.at_ms, dump.snapshot, dump.dropped
    ));
    if dump.studies.is_empty() {
        out.push_str("no studies in flight\n");
    } else {
        out.push_str(&format!("{} study(ies) in flight:\n", dump.studies.len()));
        for s in &dump.studies {
            out.push_str(&format!(
                "  request {:<4} {}/{} units  started +{}ms  last progress +{}ms{}  {}\n",
                s.request,
                s.done,
                s.total,
                s.started_ms,
                s.last_progress_ms,
                if s.stalled { "  STALLED" } else { "" },
                s.params
            ));
        }
    }
    out.push_str(&format!("last {} ring event(s):\n", dump.events.len()));
    for (t_ms, request, kind, detail) in &dump.events {
        out.push_str(&format!(
            "  +{t_ms:>8}ms  request {request:<4} {kind:<20} {detail}\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_fixture() -> String {
        [
            // request 1: root span, admission, a unit handed to thread 2,
            // cache build of the world key, timing trailer.
            r#"{"ev":"start","name":"serve.request","span":10,"thread":1,"seq":0,"wall_ns":1000,"req":1,"detail":"--seed 81 --popular 6"}"#,
            r#"{"ev":"start","name":"serve.admission.wait","span":11,"thread":1,"seq":1,"wall_ns":1100,"req":1,"parent":10}"#,
            r#"{"ev":"end","name":"serve.admission.wait","span":11,"thread":1,"seq":2,"wall_ns":1200,"req":1,"parent":10}"#,
            r#"{"ev":"start","name":"serve.cache.build","span":12,"thread":1,"seq":3,"wall_ns":2000,"req":1,"parent":10,"detail":"world:seed=0x51"}"#,
            r#"{"ev":"end","name":"serve.cache.build","span":12,"thread":1,"seq":4,"wall_ns":52000,"req":1,"parent":10}"#,
            r#"{"ev":"start","name":"serve.unit","span":13,"thread":2,"seq":0,"wall_ns":60000,"req":1,"parent":10,"detail":"[study-1] Chrome crawl"}"#,
            r#"{"ev":"end","name":"serve.unit","span":13,"thread":2,"seq":1,"wall_ns":90000,"req":1,"parent":10}"#,
            r#"{"ev":"point","name":"serve.timing","span":0,"thread":1,"seq":5,"wall_ns":99000,"req":1,"detail":"{\"event\":\"timing\",\"request\":1,\"cached\":false,\"total_us\":98,\"ttfe_us\":2,\"admission_us\":1,\"cache_wait_us\":0,\"build_us\":50,\"capture_us\":30,\"analysis_us\":8,\"render_us\":4,\"write_us\":3,\"other_us\":2}"}"#,
            r#"{"ev":"end","name":"serve.request","span":10,"thread":1,"seq":6,"wall_ns":100000,"req":1}"#,
            // request 2: waited on request 1's world build.
            r#"{"ev":"start","name":"serve.request","span":20,"thread":3,"seq":0,"wall_ns":1500,"req":2,"detail":"--seed 81 --popular 6"}"#,
            r#"{"ev":"point","name":"serve.cache.waited","span":0,"thread":3,"seq":1,"wall_ns":52500,"req":2,"parent":20,"detail":"world:seed=0x51"}"#,
            r#"{"ev":"point","name":"serve.cache.hit","span":0,"thread":3,"seq":2,"wall_ns":52600,"req":2,"parent":20,"detail":"resources:standard"}"#,
            r#"{"ev":"end","name":"serve.request","span":20,"thread":3,"seq":3,"wall_ns":80000,"req":2}"#,
            // Unscoped offline event.
            r#"{"ev":"point","name":"fleet.idle","span":0,"thread":9,"seq":0,"wall_ns":5}"#,
        ]
        .join("\n")
    }

    #[test]
    fn analyze_reconstructs_requests_spans_and_cache_causality() {
        let report = analyze_jsonl(&trace_fixture()).expect("parses");
        assert_eq!(report.requests.len(), 2);
        assert_eq!(report.unscoped_events, 1);

        let r1 = &report.requests[0];
        assert_eq!(r1.request, 1);
        assert_eq!(r1.label, "--seed 81 --popular 6");
        assert_eq!(r1.spans.len(), 4);
        assert!(
            r1.spans.iter().all(|s| s.end_ns.is_some()),
            "all spans paired"
        );
        let unit = r1
            .spans
            .iter()
            .find(|s| s.name == "serve.unit")
            .expect("unit span");
        assert_eq!(unit.parent, Some(10), "hand-off preserved the root parent");
        assert_eq!(unit.thread, 2, "unit ran on the pool thread");

        let timing = r1.timing.expect("trailer parsed");
        assert_eq!(timing.total_us, 98);
        assert_eq!(timing.phase_sum(), 98, "phases + other == total");
        assert_eq!(timing.critical_phase().0, "build");

        let world = report.cache.get("world:seed=0x51").expect("world key");
        assert_eq!(
            world.builders,
            vec![(1, Some(50))],
            "request 1 built it in 50us"
        );
        assert_eq!(world.waiters, vec![2], "request 2 waited on the build");
        let resources = report
            .cache
            .get("resources:standard")
            .expect("resources key");
        assert_eq!(resources.hits, vec![2]);
        assert!(resources.builders.is_empty());
    }

    #[test]
    fn validate_accepts_reconciled_and_rejects_broken_trailers() {
        let mut report = analyze_jsonl(&trace_fixture()).expect("parses");
        assert!(report.validate(0).is_ok());
        // Saturated other_us with small overshoot passes under slack.
        let t = report.requests[0].timing.as_mut().expect("trailer");
        t.other_us = 0;
        t.total_us = t.phase_sum() - 3;
        assert!(report.validate(5).is_ok());
        assert!(report.validate(1).is_err(), "overshoot beyond slack fails");
        // A hole in the attribution fails.
        let t = report.requests[0].timing.as_mut().expect("trailer");
        t.total_us = t.phase_sum() + 1000;
        assert!(report.validate(5).is_err());
    }

    #[test]
    fn check_trace_passes_a_well_formed_trace_and_names_each_fault() {
        let text = format!("{}\n", trace_fixture());
        assert_eq!(check_trace(&text), Ok(()));
        assert!(check_trace(&trace_fixture()).is_err(), "no final newline: re-emit differs");

        let unit_end = r#"{"ev":"end","name":"serve.unit","span":13,"thread":2,"seq":1,"wall_ns":90000,"req":1"#;
        let unbalanced = text.replace(&format!("{unit_end},\"parent\":10}}\n"), "");
        assert_eq!(check_trace(&unbalanced), Err("5 span starts vs 4 ends".to_string()));

        let moved = text.replace(unit_end, &unit_end.replace("\"req\":1", "\"req\":2"));
        let fault = check_trace(&moved).unwrap_err();
        assert!(fault.contains("starts in request Some(1) but ends in Some(2)"), "{fault}");

        let wait_start = r#""span":11,"thread":1,"seq":1,"wall_ns":1100,"req":1"#;
        let self_parent = text.replace(
            &format!("{wait_start},\"parent\":10"),
            &format!("{wait_start},\"parent\":11"),
        );
        assert!(check_trace(&self_parent).unwrap_err().contains("parents on itself"));
    }

    #[test]
    fn render_report_draws_waterfall_attribution_and_causality() {
        let report = analyze_jsonl(&trace_fixture()).expect("parses");
        let text = render_report(&report, 10);
        assert!(text.contains("request 1 — --seed 81 --popular 6"));
        assert!(text.contains("critical path: build"));
        assert!(text.contains("serve.unit"));
        assert!(text.contains('#'), "waterfall bars render");
        assert!(text.contains("built by request 1"));
        assert!(text.contains("waited on in-flight build: requests [2]"));
        assert!(text.contains("2 request(s), 1 unscoped event(s)"));
    }

    #[test]
    fn flight_dump_roundtrip_through_recorder() {
        let rec = crate::flightrec::FlightRecorder::new(16);
        rec.record(1, "request.accepted", "--seed 81".into());
        rec.study_started(1, "--seed 81".into(), 14);
        rec.study_progress(1, 3, 14);
        let text = rec.dump_to_string("watchdog: request 1 stalled", "lanes=1 queued=2");
        assert!(is_flight_dump(&text));
        assert!(!is_flight_dump(&trace_fixture()));
        let dump = parse_flight_dump(&text).expect("parses");
        assert_eq!(dump.reason, "watchdog: request 1 stalled");
        assert_eq!(dump.snapshot, "lanes=1 queued=2");
        assert_eq!(dump.studies.len(), 1);
        assert_eq!(dump.studies[0].done, 3);
        assert_eq!(dump.events.len(), 2, "accepted + study.start");
        let rendered = render_flight_dump(&dump);
        assert!(rendered.contains("3/14 units"));
        assert!(rendered.contains("request.accepted"));
    }
}
