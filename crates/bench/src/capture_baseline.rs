//! Frozen replica of the pre-refactor capture path — the *baseline*
//! side of `bench_capture`.
//!
//! Before the zero-allocation rework the capture path paid, per run and
//! per request, costs that the atoms / plan cache / route table removed:
//!
//! * **world generation per run** — every process (fleet worker, bench
//!   iteration, repeated study invocation) called `World::build` and
//!   regenerated the full site population from scratch;
//! * **O(hosts) install** — `World::install` looped `register_host` +
//!   `register_endpoint` over every host, two locked map inserts each,
//!   instead of swapping in one shared `Arc<RouteTable>`;
//! * **deep client-context clones** — `ClientTemplate::ctx` cloned the
//!   trust-root `Vec`, the pin list and the package `String` for every
//!   single request;
//! * **owned-`String` flow records** — the proxy's `record` allocated
//!   fresh `String`s for the package, host and every header name of
//!   every captured flow;
//! * **clone-on-read DNS log** — `Network::dns_log` copied the whole
//!   log `Vec` under its lock on every read;
//! * **deep request clone at the forward** — the proxy called
//!   `origin_fetch(ctx, req.clone())` so it could still record the
//!   request after moving it upstream: every header name and value, the
//!   body bytes and the URL were duplicated per captured flow;
//! * **per-handshake certificate minting** — `CertificateAuthority::
//!   issue` allocated a fresh subject `String` plus an issuer-id clone
//!   on *both* hops (forged leaf at the proxy, genuine leaf at the
//!   origin) of every request, with no per-host cache;
//! * **owned flow-context strings** — the two `FlowContext`s built per
//!   diverted request (client→proxy, proxy→origin) each carried an
//!   owned package `String` and SNI `String`;
//! * **assorted per-request churn** — the origin directory was probed
//!   with owned `(host, path)` tuple keys, the DNS zone probe
//!   lowercased the queried name, the wire-size accounting re-serialized
//!   the URL, and `Response::sized` zero-filled a fresh filler body per
//!   response.
//!
//! The helpers here reproduce those exact allocation patterns on top of
//! today's substrate so the benchmark's before/after comparison stays
//! runnable forever. Every clone in this module is deliberate: it *is*
//! the baseline (hence the `clone-ok` markers for
//! `tools/check_no_cloning.sh`).

use std::sync::{Arc, Mutex};

use panoptes_simnet::dns::DnsLogEntry;
use panoptes_simnet::net::Network;
use panoptes_simnet::tls::CaId;
use panoptes_web::origin::{Directory, OriginServer};
use panoptes_web::World;

/// Replica of the pre-atom `ClientTemplate`: owned `String` package,
/// plain `Vec` trust roots and pins (the old `TrustStore` / `PinPolicy`
/// held their lists inline, so cloning them copied every element).
pub struct OldClientTemplate {
    /// Kernel UID of the sending process.
    pub uid: u32,
    /// Package name as an owned `String`.
    pub package: String,
    /// Trusted roots as a plain `Vec` (deep-cloned per request).
    pub roots: Vec<CaId>,
    /// Pinned domains as owned `String`s (deep-cloned per request).
    pub pins: Vec<String>,
}

/// What the old `ClientTemplate::ctx` materialised per request.
pub struct OldClientSnapshot {
    /// Cloned package name.
    pub package: String,
    /// Cloned trust roots.
    pub roots: Vec<CaId>,
    /// Cloned pin list.
    pub pins: Vec<String>,
}

impl OldClientTemplate {
    /// The testbed browser identity the benchmark sends as.
    pub fn bench(uid: u32, package: &str) -> OldClientTemplate {
        OldClientTemplate {
            uid,
            package: package.to_string(),
            roots: vec![CaId::public_web_pki(), CaId::mitm()],
            pins: Vec::new(),
        }
    }

    /// Deep-clones the client identity, exactly like the old per-request
    /// `ctx()` did.
    pub fn deep_ctx(&self) -> OldClientSnapshot {
        OldClientSnapshot {
            package: self.package.clone(), // clone-ok: pre-refactor baseline
            roots: self.roots.clone(),     // clone-ok: pre-refactor baseline
            pins: self.pins.clone(),       // clone-ok: pre-refactor baseline
        }
    }
}

/// One captured exchange with every field as an owned allocation — the
/// shape the old `TransparentProxy::record` built per flow.
pub struct OldFlowRecord {
    /// Cloned package name.
    pub package: String,
    /// Cloned destination host.
    pub host: String,
    /// Re-serialized full URL.
    pub url: String,
    /// Header names and values, each an owned `String`.
    pub headers: Vec<(String, String)>,
    /// Response status.
    pub status: u16,
}

/// The old capture store: one `Vec` behind one lock, owned records.
#[derive(Default)]
pub struct OldFlowLog(Mutex<Vec<OldFlowRecord>>);

impl OldFlowLog {
    /// An empty log.
    pub fn new() -> OldFlowLog {
        OldFlowLog::default()
    }

    /// Records an exchange with the old path's per-flow allocations.
    pub fn record(
        &self,
        template: &OldClientTemplate,
        req: &panoptes_http::Request,
        status: u16,
    ) {
        let record = OldFlowRecord {
            package: template.package.clone(), // clone-ok: pre-refactor baseline
            host: req.url.host().to_string(),
            url: req.url.as_str().to_owned(),
            headers: req
                .headers
                .iter()
                .map(|(n, v)| (n.to_string(), v.to_string()))
                .collect(),
            status,
        };
        self.0.lock().expect("old flow log").push(record);
    }

    /// Number of recorded flows.
    pub fn len(&self) -> usize {
        self.0.lock().expect("old flow log").len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Installs `world` on `net` the pre-refactor way: rebuild the origin
/// handler, then two dynamic-map registrations per host.
pub fn install_old_style(net: &Network, world: &World) {
    let origin = Arc::new(OriginServer::new(Directory::from_sites(&world.sites)));
    for (host, ip) in world.hosts() {
        net.register_host(host, ip);
        net.register_endpoint(ip, origin.clone());
    }
}

/// Reads the DNS log the pre-refactor way: a full deep copy of every
/// entry per read (the old accessor cloned the `Vec` under its lock).
pub fn export_dns_log_cloning(net: &Network) -> Vec<DnsLogEntry> {
    net.dns_log().iter().cloned().collect() // clone-ok: pre-refactor baseline
}

/// Replays the request-side allocations the old path paid between
/// building a request and receiving its response.
pub fn replicate_request_overhead(req: &panoptes_http::Request) {
    use std::hint::black_box;
    let host = req.url.host();
    let path = req.url.path();
    // Building the request allocated an owned name and value String per
    // header field (both halves are interned atoms now), and cloning
    // the pre-parsed URL copied its hostname.
    for (n, v) in req.headers.iter() {
        black_box((n.to_string(), v.to_string()));
    }
    black_box(host.to_string());
    // The taint addon collected the stripped header values into an
    // owned Vec<String> before verifying the token.
    let stripped: Vec<String> =
        req.headers.get_all("x-panoptes-taint").map(str::to_string).collect();
    black_box(stripped.len());
    // The flow record stored the destination as a dotted-quad String.
    black_box("23.20.0.99".to_string());
    // The forward deep-cloned the request so `record` could still read
    // it after the origin consumed the original.
    let headers: Vec<(String, String)> = req
        .headers
        .iter()
        .map(|(n, v)| (n.to_string(), v.to_string()))
        .collect();
    black_box(headers.len());
    black_box(req.body.to_vec().len());
    black_box(req.url.as_str().to_owned().len());
    // Wire-size accounting re-serialized the URL a second time.
    black_box(req.url.as_str().to_owned().len());
    // Two flow contexts (client→proxy, proxy→origin), each with an owned
    // package and SNI string.
    black_box((host.to_string(), host.to_string()));
    // The DNS zone probe lowercased the queried name.
    black_box(host.to_ascii_lowercase().len());
    // Certificate minting on both hops: fresh subject + issuer-id clone,
    // no per-host cache.
    black_box((host.to_string(), "panoptes-mitm-ca".to_string()));
    black_box((host.to_string(), "public-web-pki".to_string()));
    // The origin directory was probed with owned (host, path) tuple keys
    // — once for the page lookup, once for the resource lookup.
    black_box((host.to_string(), path.to_string()));
    black_box((host.to_string(), path.to_string()));
}

/// Replays the response-side allocations the old path paid:
/// `Response::sized` zero-filled a fresh filler body per response, and
/// the origin re-derived every response header per request (an owned
/// name and value String each — content-length digits, content-type,
/// session cookie) instead of cloning a pre-rendered template.
pub fn replicate_response_overhead(resp: &panoptes_http::Response) {
    use std::hint::black_box;
    black_box(vec![b'.'; resp.body.len()].len());
    for (n, v) in resp.headers.iter() {
        black_box((n.to_string(), v.to_string()));
    }
    black_box(resp.body.len().to_string());
}
