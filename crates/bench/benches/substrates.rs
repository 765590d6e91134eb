//! Microbenchmarks of the substrates the pipeline leans on: the taint
//! addon's per-request cost, codec/URL parsing throughput, blocklist and
//! CIDR-trie lookups, and JSON handling. These quantify the DESIGN.md
//! claim that the measurement layer adds negligible per-flow overhead.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use panoptes_blocklist::data::steven_black_excerpt;
use panoptes_blocklist::filterlist::easylist_excerpt;
use panoptes_geo::GeoDb;
use panoptes_http::codec::{b64_decode_url, b64_encode_url, percent_encode_component};
use panoptes_http::json;
use panoptes_http::netaddr::IpAddr;
use panoptes_http::url::Url;
use panoptes_http::Request;
use panoptes_mitm::addon::{Addon, Verdict};
use panoptes_mitm::{FlowClass, InterceptedRequest, TaintAddon, TAINT_HEADER};
use panoptes_simnet::net::FlowContext;
use panoptes_simnet::SimInstant;

fn flow_ctx() -> FlowContext {
    FlowContext {
        time: SimInstant::EPOCH,
        uid: 10001,
        app_package: "com.bench".into(),
        src_ip: IpAddr::new(192, 168, 1, 50),
        dst_ip: IpAddr::new(23, 20, 0, 11),
        dst_port: 443,
        sni: "www.example.com".into(),
        version: panoptes_http::request::HttpVersion::H2,
        intercepted: true,
    }
}

fn taint_addon_per_request(c: &mut Criterion) {
    let addon = TaintAddon::new("bench-token");
    let ctx = flow_ctx();
    let mut group = c.benchmark_group("taint_addon");
    group.throughput(Throughput::Elements(1));
    group.bench_function("tainted", |b| {
        b.iter(|| {
            let mut req = Request::get(Url::parse("https://www.example.com/a").unwrap())
                .with_header(TAINT_HEADER, "bench-token")
                .with_header("user-agent", "bench");
            let mut class = FlowClass::Native;
            let mut verdict = Verdict::Forward;
            addon.on_request(&mut InterceptedRequest {
                ctx: &ctx,
                request: &mut req,
                class: &mut class,
                verdict: &mut verdict,
            });
            black_box(class)
        })
    });
    group.bench_function("native", |b| {
        b.iter(|| {
            let mut req = Request::get(Url::parse("https://www.example.com/a").unwrap());
            let mut class = FlowClass::Native;
            let mut verdict = Verdict::Forward;
            addon.on_request(&mut InterceptedRequest {
                ctx: &ctx,
                request: &mut req,
                class: &mut class,
                verdict: &mut verdict,
            });
            black_box(class)
        })
    });
    group.finish();
}

fn url_parse(c: &mut Criterion) {
    let url = "https://www.youtube.com/watch?v=dQw4w9WgXcQ&t=42s&list=PL123";
    let mut group = c.benchmark_group("url");
    group.throughput(Throughput::Bytes(url.len() as u64));
    group.bench_function("parse", |b| b.iter(|| Url::parse(black_box(url)).unwrap()));
    let parsed = Url::parse(url).unwrap();
    group.bench_function("serialize", |b| b.iter(|| black_box(&parsed).as_str().to_owned()));
    group.finish();
}

fn base64_roundtrip(c: &mut Criterion) {
    let payload = "https://www.health-support013.org/health/depression-support?session=12345";
    let encoded = b64_encode_url(payload.as_bytes());
    let mut group = c.benchmark_group("base64");
    group.throughput(Throughput::Bytes(payload.len() as u64));
    group.bench_function("encode", |b| b.iter(|| b64_encode_url(black_box(payload.as_bytes()))));
    group.bench_function("decode", |b| b.iter(|| b64_decode_url(black_box(&encoded)).unwrap()));
    group.finish();
}

fn percent_encoding(c: &mut Criterion) {
    let value = "https://example.com/path?a=1&b=two three";
    c.bench_function("percent_encode_component", |b| {
        b.iter(|| percent_encode_component(black_box(value)))
    });
}

fn hosts_list_lookup(c: &mut Criterion) {
    let list = steven_black_excerpt();
    c.bench_function("hosts_list_contains", |b| {
        b.iter(|| {
            black_box(list.contains("stats.g.doubleclick.net"))
                ^ black_box(list.contains("www.wikipedia.org"))
        })
    });
}

fn filterlist_match(c: &mut Criterion) {
    let list = easylist_excerpt();
    c.bench_function("easylist_should_block", |b| {
        b.iter(|| {
            black_box(list.should_block(
                "fastlane.rubiconproject.com",
                "https://fastlane.rubiconproject.com/a/api/fastlane.json",
            )) ^ black_box(
                list.should_block("www.example.com", "https://www.example.com/article"),
            )
        })
    });
}

fn geo_lookup(c: &mut Criterion) {
    let db = GeoDb::standard();
    let ips = [
        IpAddr::new(77, 88, 0, 11),
        IpAddr::new(101, 226, 0, 20),
        IpAddr::new(23, 20, 0, 99),
        IpAddr::new(9, 9, 9, 9),
    ];
    c.bench_function("geo_country_of", |b| {
        b.iter(|| {
            let mut hits = 0;
            for ip in ips {
                if db.country_of(black_box(ip)).is_some() {
                    hits += 1;
                }
            }
            hits
        })
    });
}

fn json_parse_listing1(c: &mut Criterion) {
    let body = r#"{"channelId":"adxsdk_for_opera","appPackageName":"com.opera.browser","appVersion":"75.1.3978.72329","sdkVersion":"1.12.2","osType":"ANDROID","osVersion":"11","deviceVendor":"Samsung","deviceModel":"SM-T580","deviceScreenWidth":1200,"deviceScreenHeight":1920,"latitude":35.3387,"longitude":25.1442,"operaId":"2e5d1382f2dd484e9d035619c8a908ddd5de945b100bc9e66582e2ed4ab0b2ab","connectionType":"WIFI","userConsent":"false","timestamp":1683927615,"supportedAdTypes":["SINGLE"]}"#;
    let mut group = c.benchmark_group("json");
    group.throughput(Throughput::Bytes(body.len() as u64));
    group.bench_function("parse_listing1", |b| b.iter(|| json::parse(black_box(body)).unwrap()));
    let value = json::parse(body).unwrap();
    group.bench_function("serialize_listing1", |b| b.iter(|| json::to_string(black_box(&value))));
    group.finish();
}

criterion_group! {
    name = substrates;
    config = Criterion::default();
    targets =
        taint_addon_per_request,
        url_parse,
        base64_roundtrip,
        percent_encoding,
        hosts_list_lookup,
        filterlist_match,
        geo_lookup,
        json_parse_listing1,
}
criterion_main!(substrates);
