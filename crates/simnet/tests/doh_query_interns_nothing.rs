//! Building a DoH query interns nothing: its URL holds the provider's
//! host as text, so `atom.intern.calls` does not move.
//!
//! The metrics counters are process-global, so this binary holds one
//! test and no other thread interns while it counts.

use panoptes_obs::metrics::{counter, MetricClass};
use panoptes_simnet::dns::DohProvider;

#[test]
fn building_a_doh_query_moves_no_intern_counter() {
    let interns = counter("atom.intern.calls", MetricClass::Deterministic);
    panoptes_obs::enable(panoptes_obs::METRICS);
    let before = interns.value();
    for provider in [DohProvider::Cloudflare, DohProvider::Google] {
        let req = provider.query_request("www.youtube.com");
        assert_eq!(req.url.host(), provider.host());
    }
    let after = interns.value();
    panoptes_obs::disable(panoptes_obs::METRICS);
    assert_eq!(after - before, 0, "building a DoH query interned");
}
