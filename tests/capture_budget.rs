//! The capture path's budget, as deterministic counts: the 15 pinned
//! crawls of a quick-scale study, captured and folded one after another
//! through `capture_crawl`, must stay under a ceiling of heap
//! allocations and of intern-table calls per captured flow.
//!
//! Both counts are identical from run to run (and in debug and release
//! builds), so a regression fails here without timing noise. Header
//! names and constant values are the static atoms of the header
//! vocabulary, empty bodies and sized filler bodies are static byte
//! views, DoH queries take their provider's static host, and
//! per-request values (referers, cookies, content lengths) are atoms
//! outside the intern table. A URL is serialised once, when it is
//! parsed: the flow copies its text and the fold reads the query pairs
//! from that text without parsing it again. A value's decodings are
//! held inline, and a value that is not Base64 allocates no decode
//! buffer. So what is left to intern per flow is the host `Url::parse`
//! reads, once per request.
//!
//! The allocator and the metrics are process-global, so the whole check
//! is one `#[test]`.

use panoptes_analysis::engine::{capture_crawl, AnalysisResources};
use panoptes_bench::experiments::Scale;
use panoptes_bench::mem::{self, CountingAlloc};
use panoptes_browsers::registry::all_profiles;
use panoptes_obs::metrics::{counter, MetricClass};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations per captured flow: 21.99 measured (451,020 for
/// 20,514 flows), plus 3.5 %.
const MAX_ALLOCATIONS_PER_FLOW: f64 = 22.76;
/// `atom.intern.calls` per captured flow: 1.18 measured (24,209), plus
/// 4.8 %.
const MAX_INTERNS_PER_FLOW: f64 = 1.24;

#[test]
fn quick_crawls_capture_within_the_allocation_and_intern_budget() {
    let scale = Scale::quick();
    let world = scale.world();
    let config = scale.config();
    let res = AnalysisResources::standard();
    let profiles = all_profiles();
    panoptes_obs::enable(panoptes_obs::METRICS);
    let interns = counter("atom.intern.calls", MetricClass::Deterministic);

    let (allocations_before, interns_before) = (mem::allocations(), interns.value());
    let mut flows = 0;
    for profile in &profiles {
        flows += capture_crawl(&world, profile, &world.sites, &config, &res).flows;
    }
    let allocations = mem::allocations() - allocations_before;
    let interns = interns.value() - interns_before;
    panoptes_obs::disable(panoptes_obs::METRICS);

    assert_eq!(profiles.len(), 15);
    assert!(flows > 20_000, "the quick crawls captured only {flows} flows");
    let per_flow = |n: u64| n as f64 / flows as f64;
    eprintln!(
        "{flows} flows: {allocations} allocations ({:.2} per flow), {interns} interns ({:.2} per flow)",
        per_flow(allocations),
        per_flow(interns),
    );
    assert!(
        per_flow(allocations) <= MAX_ALLOCATIONS_PER_FLOW,
        "{allocations} allocations for {flows} flows: {:.2} per flow, ceiling {MAX_ALLOCATIONS_PER_FLOW}",
        per_flow(allocations),
    );
    // A counter that reads 0 would pass any ceiling.
    assert!(interns > 0, "atom.intern.calls counted nothing");
    assert!(
        per_flow(interns) <= MAX_INTERNS_PER_FLOW,
        "{interns} interns for {flows} flows: {:.2} per flow, ceiling {MAX_INTERNS_PER_FLOW}",
        per_flow(interns),
    );
}
