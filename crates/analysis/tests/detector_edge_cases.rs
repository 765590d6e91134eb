//! Edge-case behaviour of the leak/PII detectors on hand-crafted
//! captures — the adversarial situations a field deployment meets.

use std::sync::Arc;

use panoptes::campaign::{CampaignResult, VisitRecord};
use panoptes_analysis::engine::{analyze_crawl, AnalysisResources, CampaignAnalysis};
use panoptes_analysis::history::{HistoryLeak, LeakChannel, LeakEncoding, LeakGranularity};
use panoptes_analysis::scan::{decodings, observations};
use panoptes_browsers::registry::profile_by_name;
use panoptes_http::codec::{b64_encode, percent_encode_component};
use panoptes_http::method::Method;
use panoptes_http::netaddr::IpAddr;
use panoptes_http::request::HttpVersion;
use panoptes_mitm::{Flow, FlowClass, FlowStore};
use panoptes_simnet::clock::SimDuration;

/// Builds a synthetic campaign result around hand-written flows.
fn campaign(visits: &[&str], flows: Vec<Flow>) -> CampaignResult {
    let store = Arc::new(FlowStore::new());
    for f in flows {
        store.push(f);
    }
    CampaignResult {
        profile: profile_by_name("Chrome").unwrap(),
        uid: 10000,
        store,
        visits: visits
            .iter()
            .map(|url| {
                let parsed = panoptes_http::Url::parse(url).unwrap();
                VisitRecord {
                    url: url.to_string(),
                    domain: parsed.registrable_domain(),
                    sensitive: false,
                    dcl_fired: true,
                    dwell: SimDuration::from_secs(6),
                }
            })
            .collect(),
        dns_log: panoptes_simnet::dns::DnsLogSnapshot::default(),
        engine_sent: 0,
        native_sent: 0,
        adblocked: 0,
    }
}

fn analyze(result: &CampaignResult) -> CampaignAnalysis {
    analyze_crawl(result, &AnalysisResources::standard())
}

fn history_leaks(result: &CampaignResult) -> Vec<HistoryLeak> {
    analyze(result).history_leaks
}

fn native_flow(id: u64, host: &str, url: &str) -> Flow {
    Flow {
        id,
        time_us: id * 1000,
        uid: 10000,
        package: "com.android.chrome".into(),
        host: host.into(),
        dst_ip: IpAddr::new(23, 20, 0, 50),
        dst_port: 443,
        method: Method::Get,
        url: url.into(),
        request_headers: vec![],
        request_body: String::new(),
        status: 204,
        bytes_out: 300,
        bytes_in: 50,
        version: HttpVersion::H2,
        class: FlowClass::Native,
    }
}

#[test]
fn detects_standard_base64_with_padding() {
    // Some trackers use standard-alphabet Base64 with '=' padding. A
    // per-visit reporter leaks (at least) two distinct visits — the
    // detector's significance bar.
    let visit_a = "https://www.example.com/private?id=7";
    let visit_b = "https://www.second.org/page";
    let enc_a = percent_encode_component(&b64_encode(visit_a.as_bytes()));
    let enc_b = percent_encode_component(&b64_encode(visit_b.as_bytes()));
    let flows = vec![
        native_flow(1, "tracker.example-vendor.net", &format!("https://tracker.example-vendor.net/r?u={enc_a}")),
        native_flow(2, "tracker.example-vendor.net", &format!("https://tracker.example-vendor.net/r?u={enc_b}")),
    ];
    let result = campaign(&[visit_a, visit_b], flows);
    let leaks = history_leaks(&result);
    assert_eq!(leaks.len(), 1, "{leaks:?}");
    assert_eq!(leaks[0].granularity, LeakGranularity::FullUrl);
    assert_eq!(leaks[0].encoding, LeakEncoding::Base64);
    assert_eq!(leaks[0].visits_leaked, 2);
}

#[test]
fn detects_percent_encoded_leak() {
    let visit_a = "https://www.example.com/page?q=1";
    let visit_b = "https://www.elsewhere.net/doc";
    // Double-encoded in the raw URL text, so the stored query value is
    // the single-encoded URL.
    let double = |v: &str| percent_encode_component(&percent_encode_component(v));
    let flows = vec![
        native_flow(1, "t.vendor-x.com", &format!("https://t.vendor-x.com/r?dl={}", double(visit_a))),
        native_flow(2, "t.vendor-x.com", &format!("https://t.vendor-x.com/r?dl={}", double(visit_b))),
    ];
    let result = campaign(&[visit_a, visit_b], flows);
    let leaks = history_leaks(&result);
    assert_eq!(leaks.len(), 1, "{leaks:?}");
    assert_eq!(leaks[0].encoding, LeakEncoding::Percent);
}

#[test]
fn single_occurrence_is_not_reported() {
    // One-off appearances (e.g. a referer echo) — a single distinct
    // visited URL at one destination — don't constitute a per-visit
    // reporter. (This is the detector's ≥2-distinct-visits bar.)
    let visit = "https://www.example.com/";
    let flows = vec![native_flow(1, "cdn.misc.net", "https://cdn.misc.net/r?u=https://www.example.com/")];
    let result = campaign(&[visit, "https://two.com/", "https://three.com/"], flows);
    assert!(history_leaks(&result).is_empty());
}

#[test]
fn first_party_reporting_is_not_a_leak() {
    // A site reporting its own URL to its own domain is not browser
    // tracking.
    let visit = "https://www.example.com/page";
    let flows = vec![
        native_flow(1, "metrics.example.com", "https://metrics.example.com/r?u=https://www.example.com/page"),
        native_flow(2, "metrics.example.com", "https://metrics.example.com/r?u=https://www.example.com/page"),
    ];
    let result = campaign(&[visit], flows);
    assert!(history_leaks(&result).is_empty());
}

#[test]
fn engine_class_flow_needs_near_total_coverage() {
    // An engine-classified destination seeing one full URL out of many
    // visits is an embedded script, not a browser-injected collector.
    let visits = ["https://a.com/", "https://b.com/", "https://c.com/x", "https://d.com/y"];
    let mut flow = native_flow(1, "ga.example-analytics.com", "https://ga.example-analytics.com/c?dl=https://a.com/");
    flow.class = FlowClass::Engine;
    let result = campaign(&visits, vec![flow]);
    assert!(history_leaks(&result).is_empty());
}

#[test]
fn blocked_flows_are_not_leaks() {
    let visit = "https://www.example.com/";
    let mut f1 = native_flow(1, "sba.yandex.net", "https://sba.yandex.net/r?u=https://www.example.com/");
    let mut f2 = native_flow(2, "sba.yandex.net", "https://sba.yandex.net/r?u=https://www.example.com/");
    f1.class = FlowClass::Blocked;
    f2.class = FlowClass::Blocked;
    let result = campaign(&[visit], vec![f1, f2]);
    assert!(
        history_leaks(&result).is_empty(),
        "blocked requests never reached the destination"
    );
}

#[test]
fn hostname_beats_domain_in_worst_granularity_ordering() {
    assert!(LeakGranularity::FullUrl > LeakGranularity::Hostname);
    assert!(LeakGranularity::Hostname > LeakGranularity::Domain);
}

#[test]
fn channel_is_reported_per_destination() {
    let visits = ["https://a.com/p", "https://b.com/q"];
    let mut injected1 = native_flow(1, "collect.vendor-y.com", "https://collect.vendor-y.com/pv?url=https://a.com/p");
    let mut injected2 = native_flow(2, "collect.vendor-y.com", "https://collect.vendor-y.com/pv?url=https://b.com/q");
    injected1.class = FlowClass::Engine;
    injected2.class = FlowClass::Engine;
    let result = campaign(&visits, vec![injected1, injected2]);
    let leaks = history_leaks(&result);
    assert_eq!(leaks.len(), 1, "{leaks:?}");
    assert_eq!(leaks[0].channel, LeakChannel::InjectedScript);
}

#[test]
fn pii_scanner_ignores_lookalike_values_without_key_hints() {
    // "224" as an ad-slot count must not be flagged as the DPI; "GR" as
    // a random token must not be flagged as the country.
    let flows = vec![
        native_flow(1, "v.example-vendor.com", "https://v.example-vendor.com/t?slots=224&tag=GR"),
        native_flow(2, "v.example-vendor.com", "https://v.example-vendor.com/t?slots=224&tag=GR"),
    ];
    let result = campaign(&["https://a.com/"], flows);
    let row = analyze(&result).pii;
    assert!(row.leaked.is_empty(), "{:?}", row.leaked);
}

#[test]
fn scan_handles_malformed_bodies_gracefully() {
    let mut flow = native_flow(1, "v.example.com", "https://v.example.com/t?a=1");
    flow.request_body = "{not json at all".into();
    let obs = observations(&flow);
    assert_eq!(obs.len(), 1, "query observation only, body skipped quietly");
}

#[test]
fn decodings_do_not_explode_on_binary_base64() {
    // Base64 of binary (non-UTF-8) data must not produce garbage
    // decodings.
    let binary = panoptes_http::codec::b64_encode_url(&[0xff, 0xfe, 0x00, 0x01, 0x80, 0x99]);
    let d = decodings(&binary);
    assert_eq!(d.len(), 1, "only the literal survives: {d:?}");
}
