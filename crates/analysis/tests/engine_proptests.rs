//! Property-based tests for the fused study engine: for *arbitrary*
//! captures, folding each batch the proxy's store hands over while the
//! capture goes on reproduces the fold of the whole stored capture —
//! the invariant the live fold of every study crawl rests on
//! (`engine::capture_crawl` against `engine::analyze_crawl`).
//!
//! The flow generator deliberately embeds ground-truth leaks (visit
//! URLs at all three granularities, device properties, high-entropy
//! identifiers, sensitive URLs) so the order-sensitive detector paths
//! (first-match PII fields, first-IP transfers, leak buckets, the first
//! Listing 1 request) actually
//! fire rather than vacuously matching on empty accumulators, and a
//! batch handed over out of capture order shows.

use proptest::prelude::*;

use panoptes_analysis::engine::{CrawlContext, CrawlPartials};
use panoptes_analysis::idle::IdlePartial;
use panoptes_analysis::pii::PiiMatcher;
use panoptes_device::DeviceProperties;
use panoptes_http::hash::FastSet;
use panoptes_http::method::Method;
use panoptes_http::netaddr::IpAddr;
use panoptes_http::request::HttpVersion;
use panoptes_mitm::{Flow, FlowClass, FlowStore};

/// Fixed visit ground truth: two ordinary sites and one sensitive one.
const VISIT_URLS: [&str; 3] = [
    "http://news.site0.com/world/story?id=1",
    "http://shop.site1.net/cart",
    "http://clinic.site2.org/health/advice",
];
const VISIT_HOSTS: [&str; 3] = ["news.site0.com", "shop.site1.net", "clinic.site2.org"];
const VISIT_DOMAINS: [&str; 3] = ["site0.com", "site1.net", "site2.org"];

/// Destinations: a first-party host, a first-party sibling, trackers,
/// a DoH resolver (exercises the engine's DoH skip), and the Listing 1
/// ad-SDK host (exercises its first-occurrence field).
const HOSTS: [&str; 7] = [
    "news.site0.com",
    "cdn.site1.net",
    "tracker.adnet.io",
    "sba.collector.ru",
    "dns.google",
    "stats.example.xyz",
    "s-odx.oleads.com",
];

/// Query-parameter values spanning every detector's trigger: visit
/// leaks at each granularity (plain and percent-encoded), sensitive
/// URLs, device properties, a stable identifier, and noise.
const VALUES: [&str; 9] = [
    "http://news.site0.com/world/story?id=1",
    "http%3A%2F%2Fnews.site0.com%2Fworld%2Fstory%3Fid%3D1",
    "news.site0.com",
    "site0.com",
    "http://clinic.site2.org/health/advice",
    "1200x1920",
    "Europe/Athens",
    "a3f8c2d19b7e4f60a3f8c2d19b7e4f60",
    "hello",
];
const KEYS: [&str; 6] = ["u", "page", "tz", "screenWidth", "deviceId", "country"];

fn context() -> CrawlContext {
    let set = |items: &[&str]| items.iter().map(|s| s.to_string()).collect::<FastSet<_>>();
    CrawlContext {
        visited_urls: set(&VISIT_URLS),
        visited_hosts: set(&VISIT_HOSTS),
        visited_domains: set(&VISIT_DOMAINS),
        sensitive_urls: set(&VISIT_URLS[2..]),
        total_visits: VISIT_URLS.len(),
    }
}

fn arb_flow() -> impl Strategy<Value = Flow> {
    (
        0u64..(1 << 40),
        0u64..600_000_000,
        0usize..HOSTS.len(),
        0usize..4,
        proptest::collection::vec((0usize..KEYS.len(), 0usize..VALUES.len()), 0..4),
        (any::<u32>(), any::<u32>()),
    )
        .prop_map(|(id, time_us, host_idx, class, params, bytes)| {
            let host = HOSTS[host_idx];
            let query: Vec<String> = params
                .iter()
                .map(|&(k, v)| format!("{}={}", KEYS[k], VALUES[v]))
                .collect();
            Flow {
                id,
                time_us,
                uid: 10_200,
                package: "com.example.browser".into(),
                host: host.into(),
                dst_ip: IpAddr::new(203, 0, 113, (host_idx + 1) as u8),
                dst_port: 443,
                method: Method::Get,
                url: format!("https://{host}/collect?{}", query.join("&")),
                request_headers: Vec::new(),
                request_body: String::new(),
                status: 200,
                bytes_out: bytes.0 as u64,
                bytes_in: bytes.1 as u64,
                version: HttpVersion::H2,
                class: match class {
                    0 => FlowClass::Engine,
                    1 => FlowClass::Native,
                    2 => FlowClass::PinnedOpaque,
                    _ => FlowClass::Blocked,
                },
            }
        })
}

/// Folds `flows` into the crawl and idle accumulators, in order.
fn fold<'a>(
    flows: impl IntoIterator<Item = &'a Flow>,
    crawl: &mut CrawlPartials,
    idle: &mut IdlePartial,
    start_us: u64,
) {
    let ctx = context();
    let props = DeviceProperties::testbed_tablet();
    let matcher = PiiMatcher::new(&props);
    for flow in flows {
        crawl.observe(flow, &ctx, &matcher);
        idle.observe(flow, start_us);
    }
}

proptest! {
    /// The live fold — every flow drained from the proxy's store into
    /// the accumulators as the capture goes, sealed prefixes included —
    /// reproduces the fold of the whole stored capture: every detector,
    /// including the order-sensitive ones. After each flow the capture
    /// either goes on (step 0), seals a snapshot (step 1) or drains
    /// (step 2), and the last batch drains at the end.
    #[test]
    fn live_fold_of_drained_batches_matches_the_stored_fold(
        steps in proptest::collection::vec((arb_flow(), 0u8..3), 0..80),
        start_us in 0u64..400_000_000,
    ) {
        let live_store = FlowStore::new();
        let (mut live, mut live_idle) = (CrawlPartials::default(), IdlePartial::default());
        for (flow, step) in &steps {
            live_store.push(flow.clone());
            match step {
                0 => {}
                1 => drop(live_store.snapshot()),
                _ => fold(&live_store.drain(), &mut live, &mut live_idle, start_us),
            }
        }
        fold(&live_store.drain(), &mut live, &mut live_idle, start_us);

        let stored = FlowStore::new();
        for (flow, _) in &steps {
            stored.push(flow.clone());
        }
        let (mut whole, mut whole_idle) = (CrawlPartials::default(), IdlePartial::default());
        fold(stored.snapshot().iter(), &mut whole, &mut whole_idle, start_us);

        prop_assert_eq!(live, whole);
        prop_assert_eq!(live_idle, whole_idle);
    }
}
