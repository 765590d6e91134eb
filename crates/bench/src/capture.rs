//! Shared workload of the capture benchmark: a deterministic request
//! sweep through the full rig — packet filter → transparent proxy →
//! taint addon → flow store — driven once over the pre-refactor replica
//! path ([`crate::capture_baseline`]) and once over the zero-allocation
//! path (interned atoms, cached site plans, `Arc` route-table install).
//!
//! Both paths capture into the real [`FlowStore`], so the benchmark can
//! assert their `(host, url, status)` sequences are identical before it
//! reports any number.

use std::sync::Arc;

use panoptes_http::netaddr::IpAddr;
use panoptes_http::url::Url;
use panoptes_http::Request;
use panoptes_mitm::{FlowStore, TaintAddon, TransparentProxy, TAINT_HEADER};
use panoptes_simnet::clock::SimInstant;
use panoptes_simnet::net::{ClientCtx, Network};
use panoptes_simnet::tls::{CaId, CertificateAuthority, PinPolicy, TrustStore};
use panoptes_web::generator::GeneratorConfig;
use panoptes_web::World;

use crate::capture_baseline::{self, OldClientTemplate, OldFlowLog};

/// UID the sweep sends as (matches the installed diversion rules).
pub const BENCH_UID: u32 = 10001;
/// Package name the sweep sends as.
pub const BENCH_PACKAGE: &str = "com.bench.capture";
const PROXY_PORT: u16 = 8080;
const TOKEN: &str = "bench-token";

/// Generator configuration for a sweep over `popular` + `sensitive`
/// sites (default seed, like the study's quick scale).
pub fn generator_config(popular: u32, sensitive: u32) -> GeneratorConfig {
    GeneratorConfig { popular, sensitive, ..Default::default() }
}

/// Every URL the sweep requests: each site's landing page then its
/// subresources, in site order.
pub fn sweep_urls(world: &World) -> Vec<Url> {
    let mut urls = Vec::new();
    for site in &world.sites {
        urls.push(site.url.clone());
        urls.extend(site.page.resources.iter().map(|r| r.url.clone()));
    }
    urls
}

/// Assembles the capture rig — proxy, taint addon, store, diversion
/// rules — around a world installed by `install`.
pub fn capture_net(install: impl FnOnce(&Network)) -> (Network, Arc<FlowStore>) {
    let net = Network::new(
        CertificateAuthority::new(CaId::public_web_pki()),
        IpAddr::new(192, 168, 1, 50),
    );
    install(&net);
    let store = Arc::new(FlowStore::new());
    let mut proxy = TransparentProxy::new(store.clone());
    proxy.install_addon(Box::new(TaintAddon::new(TOKEN)));
    net.register_proxy(PROXY_PORT, Arc::new(proxy), TransparentProxy::certificate_authority());
    net.with_filter(|f| f.install_panoptes_rules(BENCH_UID, PROXY_PORT));
    (net, store)
}

/// The zero-allocation client template: atoms and `Arc`-backed stores,
/// so the per-request context is reference-count bumps.
pub fn client_template() -> ClientCtx {
    let mut trust = TrustStore::system();
    trust.install(CaId::mitm());
    ClientCtx {
        uid: BENCH_UID,
        app_package: BENCH_PACKAGE.into(),
        trust,
        pins: PinPolicy::none(),
        time: SimInstant::EPOCH,
    }
}

/// The request templates the sweep dispatches — prepared once, like the
/// browser profiles' fixed header sets. Each dispatch clones one: under
/// interned atoms that is a path copy plus reference-count bumps, where
/// the pre-refactor `Request::clone` deep-copied every header `String`
/// (replicated by [`capture_baseline::replicate_request_overhead`]).
pub fn sweep_requests(world: &World) -> Vec<Request> {
    sweep_urls(world)
        .iter()
        .map(|url| {
            Request::get(url.clone())
                .with_header("user-agent", "Mozilla/5.0 (Linux; Android 13) bench/1.0")
                .with_header("accept", "text/html,application/xhtml+xml,*/*;q=0.8")
                .with_header("accept-language", "en-GR,en;q=0.9,el;q=0.8")
                .with_header(TAINT_HEADER, TOKEN)
        })
        .collect()
}

/// Dispatches the sweep the pre-refactor way: deep client clone, deep
/// request clone and an owned-`String` record per request. The flow
/// statuses in the replica log are placeholders (the real store carries
/// the authoritative capture); its cost is the allocations, which match
/// the old path.
pub fn sweep_old_style(net: &Network, requests: &[Request]) {
    let template = OldClientTemplate::bench(BENCH_UID, BENCH_PACKAGE);
    let old_log = OldFlowLog::new();
    let ctx = client_template();
    for template_req in requests {
        let snapshot = template.deep_ctx();
        std::hint::black_box(snapshot.package.len());
        let req = template_req.clone();
        old_log.record(&template, &req, 200);
        capture_baseline::replicate_request_overhead(&req);
        let (resp, _) = net.send_http(&ctx, req).expect("baseline sweep request");
        capture_baseline::replicate_response_overhead(&resp);
    }
    assert_eq!(old_log.len(), requests.len());
    let dns = capture_baseline::export_dns_log_cloning(net);
    std::hint::black_box(dns.len());
}

/// Dispatches the sweep through the zero-allocation path: shared client
/// template, cheap request clones, atoms through the proxy record,
/// snapshot DNS export.
pub fn sweep_zero_alloc(net: &Network, requests: &[Request]) {
    let template = client_template();
    for template_req in requests {
        let ctx = template.clone();
        let req = template_req.clone();
        net.send_http(&ctx, req).expect("capture sweep request");
    }
    std::hint::black_box(net.dns_log().len());
}

/// One full pre-refactor capture run: cold world generation, per-host
/// dynamic install, then the cloning sweep.
pub fn run_baseline(config: &GeneratorConfig, requests: &[Request]) -> Arc<FlowStore> {
    let world = World::build(config);
    let (net, store) = capture_net(|net| capture_baseline::install_old_style(net, &world));
    sweep_old_style(&net, requests);
    store
}

/// One full zero-allocation capture run: cached shared world, one
/// `Arc` route-table install, then the clean sweep.
pub fn run_zero_alloc(config: &GeneratorConfig, requests: &[Request]) -> Arc<FlowStore> {
    let world = World::shared(config);
    let (net, store) = capture_net(|net| world.install(net));
    sweep_zero_alloc(&net, requests);
    store
}

/// The capture's `(host, url, status)` sequence, for asserting the two
/// paths recorded identical studies.
pub fn flow_signature(store: &FlowStore) -> Vec<(String, String, u16)> {
    store
        .snapshot()
        .iter()
        .map(|f| (f.host.to_string(), f.url.clone(), f.status))
        .collect()
}
