//! Property-based tests for the fused study engine: for *arbitrary*
//! captures and any shard count, sharding the fused pass and merging
//! the per-shard partials in shard order reproduces the sequential
//! accumulator exactly — the invariant every byte-identity guarantee in
//! `engine.rs` rests on.
//!
//! The flow generator deliberately embeds ground-truth leaks (visit
//! URLs at all three granularities, device properties, high-entropy
//! identifiers, sensitive URLs) so the order-sensitive detector paths
//! (first-match PII fields, first-IP transfers, leak buckets, the first
//! Listing 1 request) actually
//! fire rather than vacuously matching on empty accumulators.

use std::collections::HashSet;

use proptest::prelude::*;

use panoptes::fleet::shard_ranges;
use panoptes_analysis::engine::{CrawlContext, CrawlPartials};
use panoptes_analysis::facts::capture_facts;
use panoptes_analysis::idle::IdlePartial;
use panoptes_analysis::pii::PiiMatcher;
use panoptes_device::DeviceProperties;
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
/// ad-SDK host (exercises its first-occurrence merge).
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

fn context() -> CrawlContext<'static> {
    CrawlContext {
        visited_urls: VISIT_URLS.iter().copied().collect(),
        visited_hosts: VISIT_HOSTS.iter().map(|h| h.to_string()).collect(),
        visited_domains: VISIT_DOMAINS.iter().copied().collect(),
        sensitive_urls: [VISIT_URLS[2]].into_iter().collect::<HashSet<_>>(),
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

proptest! {
    /// Splitting the fused crawl pass into any 1..=8 contiguous shards
    /// and merging in shard order reproduces the sequential partials —
    /// every detector, including the order-sensitive ones.
    #[test]
    fn crawl_partials_shard_merge_matches_sequential(
        flows in proptest::collection::vec(arb_flow(), 0..80),
        jobs in 1usize..=8,
    ) {
        let store = FlowStore::new();
        for f in &flows {
            store.push(f.clone());
        }
        let snap = store.snapshot();
        let facts = capture_facts(&snap);
        let ctx = context();
        let props = DeviceProperties::testbed_tablet();
        let matcher = PiiMatcher::new(&props);

        let mut sequential = CrawlPartials::default();
        for view in facts.views(snap.all()) {
            sequential.observe(&view, &ctx, &matcher);
        }

        let all = snap.all();
        let mut merged = CrawlPartials::default();
        for range in shard_ranges(all.len(), jobs) {
            let mut shard = CrawlPartials::default();
            for view in facts.views(all.slice(range)) {
                shard.observe(&view, &ctx, &matcher);
            }
            merged.merge(shard);
        }

        prop_assert_eq!(merged, sequential);
    }

    /// The idle accumulator's shard merge is likewise order-exact.
    #[test]
    fn idle_partial_shard_merge_matches_sequential(
        flows in proptest::collection::vec(arb_flow(), 0..80),
        jobs in 1usize..=8,
        start_us in 0u64..400_000_000,
    ) {
        let mut sequential = IdlePartial::default();
        for f in &flows {
            sequential.observe(f, start_us);
        }

        let mut merged = IdlePartial::default();
        for range in shard_ranges(flows.len(), jobs) {
            let mut shard = IdlePartial::default();
            for f in &flows[range] {
                shard.observe(f, start_us);
            }
            merged.merge(shard);
        }

        prop_assert_eq!(merged, sequential);
    }
}
