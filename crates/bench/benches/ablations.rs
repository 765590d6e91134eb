//! Ablation benchmarks for the design choices DESIGN.md calls out.
//!
//! Each target isolates one mechanism, runs the pipeline with it on and
//! off, asserts the qualitative effect, and reports the cost:
//!
//! * **taint token verification** — the spoofing defence vs a naive
//!   presence-only check,
//! * **engine-side ad blocking** — CocCoc's easylist and its effect on
//!   the engine/native split,
//! * **DoH vs stub resolution** — how the resolver choice inflates a
//!   browser's *native* footprint,
//! * **certificate pinning** — what the measurement loses to pinned
//!   flows (footnote 3's lower bound),
//! * **guard enforcement** — the per-campaign cost of the countermeasure.

use criterion::{criterion_group, criterion_main, Criterion};

use panoptes::campaign::{run_crawl, run_crawl_with, CampaignResult};
use panoptes::config::CampaignConfig;
use panoptes_analysis::engine::{analyze_crawl, AnalysisResources, CampaignAnalysis};
use panoptes_browsers::registry::profile_by_name;
use panoptes_browsers::BrowserProfile;
use panoptes_guard::{GuardAddon, GuardPolicy};
use panoptes_mitm::FlowClass;
use panoptes_simnet::dns::{DohProvider, ResolverKind};
use panoptes_web::generator::GeneratorConfig;
use panoptes_web::World;

fn world() -> World {
    World::build(&GeneratorConfig { popular: 10, sensitive: 6, ..Default::default() })
}

fn analyze(result: &CampaignResult) -> CampaignAnalysis {
    analyze_crawl(result, &AnalysisResources::standard())
}

/// Taint verification: the token-checking addon vs classifying on header
/// presence alone. Verification costs a string comparison per request;
/// the bench quantifies it.
fn ablation_taint_verification(c: &mut Criterion) {
    use panoptes_http::url::Url;
    use panoptes_http::Request;
    use panoptes_mitm::addon::{Addon, Verdict};
    use panoptes_mitm::{InterceptedRequest, TaintAddon, TAINT_HEADER};
    use panoptes_simnet::net::FlowContext;

    /// The naive variant: any taint header counts as engine traffic —
    /// spoofable by any web page.
    struct PresenceOnly;
    impl Addon for PresenceOnly {
        fn name(&self) -> &str {
            "presence-only"
        }
        fn on_request(&self, ir: &mut InterceptedRequest<'_>) {
            let values = ir.request.headers.remove(TAINT_HEADER);
            *ir.class =
                if values.is_empty() { FlowClass::Native } else { FlowClass::Engine };
        }
    }

    let ctx = FlowContext {
        time: panoptes_simnet::SimInstant::EPOCH,
        uid: 1,
        app_package: "b".into(),
        src_ip: panoptes_http::netaddr::IpAddr::new(10, 0, 0, 1),
        dst_ip: panoptes_http::netaddr::IpAddr::new(10, 0, 0, 2),
        dst_port: 443,
        sni: "x.com".into(),
        version: panoptes_http::request::HttpVersion::H2,
        intercepted: true,
    };
    // Correctness difference: a forged token fools the naive check.
    {
        let verified = TaintAddon::new("good-token");
        let naive = PresenceOnly;
        let mut forged = Request::get(Url::parse("https://x.com/").unwrap())
            .with_header(TAINT_HEADER, "forged");
        let mut class = FlowClass::Native;
        let mut verdict = Verdict::Forward;
        naive.on_request(&mut InterceptedRequest {
            ctx: &ctx,
            request: &mut forged,
            class: &mut class,
            verdict: &mut verdict,
        });
        assert_eq!(class, FlowClass::Engine, "the naive check is spoofable");
        let mut forged = Request::get(Url::parse("https://x.com/").unwrap())
            .with_header(TAINT_HEADER, "forged");
        let mut class = FlowClass::Native;
        verified.on_request(&mut InterceptedRequest {
            ctx: &ctx,
            request: &mut forged,
            class: &mut class,
            verdict: &mut verdict,
        });
        assert_eq!(class, FlowClass::Native, "verification resists spoofing");
        assert_eq!(verified.spoofed_count(), 1);
    }

    let mut group = c.benchmark_group("ablation_taint_verification");
    group.bench_function("verified", |b| {
        let addon = TaintAddon::new("good-token");
        b.iter(|| {
            let mut req = Request::get(Url::parse("https://x.com/").unwrap())
                .with_header(TAINT_HEADER, "good-token");
            let mut class = FlowClass::Native;
            let mut verdict = Verdict::Forward;
            addon.on_request(&mut InterceptedRequest {
                ctx: &ctx,
                request: &mut req,
                class: &mut class,
                verdict: &mut verdict,
            });
            class
        })
    });
    group.bench_function("presence_only", |b| {
        let addon = PresenceOnly;
        b.iter(|| {
            let mut req = Request::get(Url::parse("https://x.com/").unwrap())
                .with_header(TAINT_HEADER, "good-token");
            let mut class = FlowClass::Native;
            let mut verdict = Verdict::Forward;
            addon.on_request(&mut InterceptedRequest {
                ctx: &ctx,
                request: &mut req,
                class: &mut class,
                verdict: &mut verdict,
            });
            class
        })
    });
    group.finish();
}

/// CocCoc's engine-side ad blocking: with it on, engine requests shrink
/// and the native *ratio* climbs — the paper's irony quantified.
fn ablation_engine_adblock(c: &mut Criterion) {
    let world = world();
    let config = CampaignConfig::default();
    let coccoc = profile_by_name("CocCoc").unwrap();
    let unblocked = BrowserProfile { adblock: false, ..coccoc.clone() };

    let with_block = analyze(&run_crawl(&world, &coccoc, &world.sites, &config)).volume;
    let without = analyze(&run_crawl(&world, &unblocked, &world.sites, &config)).volume;
    assert!(
        with_block.engine_requests < without.engine_requests,
        "blocking must shrink the engine share"
    );
    assert!(with_block.request_ratio > without.request_ratio);

    let mut group = c.benchmark_group("ablation_engine_adblock");
    group.sample_size(10);
    group.bench_function("adblock_on", |b| {
        b.iter(|| run_crawl(&world, &coccoc, &world.sites, &config))
    });
    group.bench_function("adblock_off", |b| {
        b.iter(|| run_crawl(&world, &unblocked, &world.sites, &config))
    });
    group.finish();
}

/// DoH vs stub: the resolver choice alone adds native HTTPS flows.
fn ablation_doh_vs_stub(c: &mut Criterion) {
    let world = world();
    let config = CampaignConfig::default();
    let chrome = profile_by_name("Chrome").unwrap();
    let chrome_doh = BrowserProfile {
        resolver: ResolverKind::Doh(DohProvider::Google),
        ..chrome.clone()
    };

    let stub = analyze(&run_crawl(&world, &chrome, &world.sites, &config)).volume;
    let doh = analyze(&run_crawl(&world, &chrome_doh, &world.sites, &config)).volume;
    assert!(
        doh.native_requests > stub.native_requests * 2,
        "DoH inflates native traffic: {} vs {}",
        doh.native_requests,
        stub.native_requests
    );
    assert_eq!(doh.engine_requests, stub.engine_requests);

    let mut group = c.benchmark_group("ablation_doh_vs_stub");
    group.sample_size(10);
    group.bench_function("stub", |b| b.iter(|| run_crawl(&world, &chrome, &world.sites, &config)));
    group.bench_function("doh", |b| {
        b.iter(|| run_crawl(&world, &chrome_doh, &world.sites, &config))
    });
    group.finish();
}

/// Pinning: how much of a browser's native traffic the measurement loses
/// when the vendor pins its domains (footnote 3's lower bound).
fn ablation_pinning(c: &mut Criterion) {
    let world = world();
    let config = CampaignConfig::default();
    let samsung = profile_by_name("Samsung").unwrap();
    let unpinned = BrowserProfile { pinned_domains: Vec::new(), ..samsung.clone() };

    let pinned_run = run_crawl(&world, &samsung, &world.sites, &config);
    let open_run = run_crawl(&world, &unpinned, &world.sites, &config);
    let opaque = pinned_run.store.by_class(FlowClass::PinnedOpaque).len();
    assert!(opaque > 0, "pinned flows must appear as opaque");
    assert!(
        open_run.store.native_flows().len() > pinned_run.store.native_flows().len(),
        "unpinning reveals more native flows"
    );

    let mut group = c.benchmark_group("ablation_pinning");
    group.sample_size(10);
    group.bench_function("pinned", |b| {
        b.iter(|| run_crawl(&world, &samsung, &world.sites, &config))
    });
    group.bench_function("unpinned", |b| {
        b.iter(|| run_crawl(&world, &unpinned, &world.sites, &config))
    });
    group.finish();
}

/// The guard countermeasure: leak elimination and its overhead.
fn ablation_guard(c: &mut Criterion) {
    let world = world();
    let config = CampaignConfig::default();
    let yandex = profile_by_name("Yandex").unwrap();

    let unguarded = run_crawl(&world, &yandex, &world.sites, &config);
    assert!(!analyze(&unguarded).history_leaks.is_empty());
    let guarded = run_crawl_with(&world, &yandex, &world.sites, &config, |proxy| {
        let policy = GuardPolicy {
            redact_history: true,
            ..GuardPolicy::strict(&[], &[])
        };
        proxy.install_addon(Box::new(GuardAddon::new(policy)));
    });
    assert!(analyze(&guarded).history_leaks.is_empty(), "guard must eliminate the leaks");

    let mut group = c.benchmark_group("ablation_guard");
    group.sample_size(10);
    group.bench_function("unguarded", |b| {
        b.iter(|| run_crawl(&world, &yandex, &world.sites, &config))
    });
    group.bench_function("guarded", |b| {
        b.iter(|| {
            run_crawl_with(&world, &yandex, &world.sites, &config, |proxy| {
                let policy = GuardPolicy {
                    redact_history: true,
                    ..GuardPolicy::strict(&[], &[])
                };
                proxy.install_addon(Box::new(GuardAddon::new(policy)));
            })
        })
    });
    group.finish();
}

criterion_group! {
    name = ablations;
    config = Criterion::default().sample_size(10);
    targets =
        ablation_taint_verification,
        ablation_engine_adblock,
        ablation_doh_vs_stub,
        ablation_pinning,
        ablation_guard,
}
criterion_main!(ablations);
