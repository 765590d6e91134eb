//! The capture path's budget, as deterministic counts: the 15 pinned
//! crawls of a quick-scale study, captured and folded one after another
//! through `capture_crawl`, must stay under a ceiling of heap
//! allocations and of intern-table calls per captured flow.
//!
//! Both counts are identical from run to run (and in debug and release
//! builds), so a regression fails here without timing noise. Header
//! names and constant values are the static atoms of the header
//! vocabulary, empty bodies and sized filler bodies are static byte
//! views, and per-request values (referers, cookies, content lengths)
//! are atoms outside the intern table. The world builds every site and
//! resource URL once: a page load clones it into its request (whose
//! header vector is reserved once), copies its referer from the URL's
//! text, and parses only a redirect's `Location`. A URL holds its host
//! as text, so neither building nor cloning one interns; the DNS log
//! names a host by its route's atom. The flow copies the URL's text and
//! the fold reads the query pairs from it without parsing it again. A
//! value's decodings are held inline, and a value that is not Base64
//! allocates no decode buffer. So capture interns no host: the 83
//! interns left are crawl set-up, each crawl's taint header and token,
//! its browser's package name and user agent, and the domain anchors of
//! the one ad-blocking browser's filterlist.
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

/// Heap allocations per captured flow: 13.67 measured (280,362 for
/// 20,514 flows), plus 3.5 %.
const MAX_ALLOCATIONS_PER_FLOW: f64 = 14.15;
/// `atom.intern.calls` per captured flow, pinned at the measured count:
/// 83 for 20,514 flows (0.00405 admits 83 and not 84).
const MAX_INTERNS_PER_FLOW: f64 = 0.00405;

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
        "{flows} flows: {allocations} allocations ({:.2} per flow), {interns} interns ({:.4} per flow)",
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
        "{interns} interns for {flows} flows: {:.4} per flow, ceiling {MAX_INTERNS_PER_FLOW}",
        per_flow(interns),
    );
}
