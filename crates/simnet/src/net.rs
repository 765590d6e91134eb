//! The network fabric: endpoint registry, transport decisions, latency
//! model and traffic statistics.
//!
//! [`Network`] is the simulated path between the tablet and the Internet.
//! Every HTTP request an app sends goes through [`Network::send_http`],
//! which replays the exact §2.2 mechanics:
//!
//! 1. resolve the destination (zone lookup; the *mechanism* — stub vs DoH
//!    — is the browser's business and recorded separately),
//! 2. evaluate the iptables-like [`FilterTable`]: QUIC is dropped, the
//!    browser's TCP 80/443 is transparently redirected to the MITM proxy,
//! 3. run the TLS handshake (origin cert on the direct path, forged cert
//!    on the intercepted path; pinning rejects the forged chain),
//! 4. deliver the request to the proxy or the origin server and account
//!    for bytes and virtual latency.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Mutex, RwLock};

use panoptes_http::hash::{fnv1a, FastMap};
use panoptes_http::netaddr::IpAddr;
use panoptes_http::request::HttpVersion;
use panoptes_http::url::Scheme;
use panoptes_http::{Atom, Request, Response};

use crate::clock::{SimDuration, SimInstant};
use crate::dns::{DnsLog, DnsLogEntry, DnsLogSnapshot, DnsZone, ResolverKind};
use crate::filter::{FilterTable, Proto, Verdict};
use crate::tls::{
    handshake, Certificate, CertificateAuthority, PinPolicy, TlsOutcome, TrustStore,
};

/// Why a request could not be delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The packet filter dropped the packet (e.g. the HTTP/3 block);
    /// the sender sees a timeout and falls back.
    Dropped,
    /// The destination name does not resolve.
    NoRoute(String),
    /// Nothing listens at the destination address.
    ConnectionRefused(IpAddr),
    /// The TLS handshake failed with the given outcome.
    TlsFailed(TlsOutcome),
    /// The app pinned this domain, rejected the MITM certificate and
    /// aborted the request (footnote 3 of the paper: such flows make the
    /// measurement a lower bound).
    PinnedBypass,
    /// The proxy failed to reach the upstream origin.
    UpstreamFailed(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Dropped => write!(f, "packet dropped by filter"),
            NetError::NoRoute(host) => write!(f, "no route to {host}"),
            NetError::ConnectionRefused(ip) => write!(f, "connection refused by {ip}"),
            NetError::TlsFailed(o) => write!(f, "tls handshake failed: {o:?}"),
            NetError::PinnedBypass => write!(f, "certificate pinning rejected interception"),
            NetError::UpstreamFailed(m) => write!(f, "upstream failure: {m}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Connection metadata a handler sees — what a transparent proxy can
/// observe about a diverted flow.
#[derive(Debug, Clone)]
pub struct FlowContext {
    /// Virtual time the request was sent.
    pub time: SimInstant,
    /// Kernel UID of the sending process.
    pub uid: u32,
    /// Package name of the sending app (resolved by the device layer).
    pub app_package: Atom,
    /// Source address (the tablet).
    pub src_ip: IpAddr,
    /// Original destination address (preserved across REDIRECT).
    pub dst_ip: IpAddr,
    /// Original destination port.
    pub dst_port: u16,
    /// TLS SNI / Host header — the name the client asked for.
    pub sni: Atom,
    /// Protocol version actually used.
    pub version: HttpVersion,
    /// True when the flow reached the handler via proxy interception.
    pub intercepted: bool,
}

/// A server-side handler for HTTP requests: origin servers and the MITM
/// proxy both implement this.
pub trait HttpHandler: Send + Sync {
    /// Handles one request. `net` allows a proxy to forward upstream.
    fn handle(&self, net: &Network, ctx: &FlowContext, req: Request)
        -> Result<Response, NetError>;

    /// Notification that a diverted client aborted its TLS handshake
    /// (certificate pinning). Default: ignore.
    fn on_tls_rejected(&self, _net: &Network, _ctx: &FlowContext) {}
}

/// Byte/latency accounting for one completed exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportReport {
    /// Bytes the client sent (request wire size).
    pub bytes_out: u64,
    /// Bytes the client received (response wire size).
    pub bytes_in: u64,
    /// Virtual time the exchange took.
    pub latency: SimDuration,
}

/// Aggregate counters the simulator keeps (inspection/testing aid).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Requests delivered to an endpoint (direct or proxied).
    pub delivered: u64,
    /// Packets dropped by the filter (mostly blocked QUIC).
    pub dropped: u64,
    /// Flows the proxy could not read because the app pinned the domain.
    pub pinned_bypasses: u64,
    /// Total bytes sent by clients.
    pub bytes_out: u64,
    /// Total bytes received by clients.
    pub bytes_in: u64,
}

/// A simple deterministic latency model: base RTT plus serialization
/// delay, plus a per-host jitter derived from the host name hash.
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    /// Base round-trip time.
    pub base_rtt: SimDuration,
    /// Bytes transferred per microsecond of serialization delay.
    pub bytes_per_us: u64,
    /// Maximum extra per-host jitter in microseconds.
    pub jitter_us: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        // ~40 ms RTT, ~4 MB/s effective mobile throughput, up to 15 ms of
        // per-host spread.
        LatencyModel { base_rtt: SimDuration::from_millis(40), bytes_per_us: 4, jitter_us: 15_000 }
    }
}

impl LatencyModel {
    /// Latency of one exchange with the given wire sizes to `host`.
    pub fn latency(&self, host: &str, bytes_out: u64, bytes_in: u64) -> SimDuration {
        let serialization = (bytes_out + bytes_in) / self.bytes_per_us.max(1);
        let jitter = if self.jitter_us == 0 { 0 } else { fnv1a(host) % self.jitter_us };
        SimDuration(self.base_rtt.0 + serialization + jitter)
    }
}

/// An injected fault for a destination host — failure-injection support
/// for robustness testing. Real crawls constantly meet dead hosts and
/// erroring servers; the pipeline must degrade gracefully (record what it
/// can, keep crawling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Connections to the host are refused.
    Unreachable,
    /// The server answers `500` to everything.
    ServerError,
    /// Every `n`-th request to the host fails with a refused connection
    /// (1-based counting; `FlakyEvery(1)` fails always).
    FlakyEvery(u32),
}

/// Identity of the client side of a request, passed to
/// [`Network::send_http`].
#[derive(Debug, Clone)]
pub struct ClientCtx {
    /// Kernel UID of the sending process.
    pub uid: u32,
    /// Package name of the sending app.
    pub app_package: Atom,
    /// CA roots this client trusts.
    pub trust: TrustStore,
    /// Certificate-pinning policy of the app.
    pub pins: PinPolicy,
    /// Virtual send time.
    pub time: SimInstant,
}

struct ProxyRegistration {
    handler: Arc<dyn HttpHandler>,
    ca: CertificateAuthority,
}

/// A prebuilt routing layer: host → address plus address → handler, built
/// once (per world) and installed on a [`Network`] as a single `Arc`
/// swap. Dynamic [`Network::register_host`]/[`Network::register_endpoint`]
/// entries overlay it, so tests and setup code keep their incremental
/// API while a campaign install stops being O(hosts).
///
/// On first lookup the table compiles a host → [`Route`] map — interned
/// name, address and handler resolved together. The compiled map lives
/// in the table's own `OnceLock`, so it is built **once per world plan**
/// and shared by every campaign the plan is installed on; lookups
/// against it are plain immutable-map probes, no lock anywhere.
#[derive(Clone, Default)]
pub struct RouteTable {
    hosts: FastMap<Atom, IpAddr>,
    endpoints: FastMap<IpAddr, Arc<dyn HttpHandler>>,
    compiled: OnceLock<FastMap<Atom, Route>>,
}

impl RouteTable {
    /// An empty table.
    pub fn new() -> RouteTable {
        RouteTable::default()
    }

    /// Adds an A record (host must already be lowercase, as URL hosts
    /// are). A host passed as an [`Atom`] is kept as it is, so a world
    /// shares its host atoms with the table; a `&str` is interned.
    pub fn add_host(&mut self, host: impl Into<Atom>, addr: IpAddr) {
        let host = host.into();
        debug_assert!(!host.bytes().any(|b| b.is_ascii_uppercase()));
        self.hosts.insert(host, addr);
    }

    /// Adds the handler serving `addr`.
    pub fn add_endpoint(&mut self, addr: IpAddr, handler: Arc<dyn HttpHandler>) {
        self.endpoints.insert(addr, handler);
    }

    /// Number of A records in the table.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// The compiled host → route map, built on first use and shared by
    /// every network the (immutable, `Arc`-held) table is installed on.
    fn compiled(&self) -> &FastMap<Atom, Route> {
        self.compiled.get_or_init(|| {
            self.hosts
                .iter()
                .map(|(host, &ip)| {
                    let route = Route {
                        host: host.clone(),
                        ip,
                        handler: self.endpoints.get(&ip).cloned(),
                    };
                    (host.clone(), route)
                })
                .collect()
        })
    }

    /// Lock-free route lookup against the compiled map.
    fn route(&self, host: &str) -> Option<&Route> {
        self.compiled().get(host)
    }
}

/// A resolved destination: the interned host name, its address, and the
/// handler listening there (if any). Compiled once per world plan (or
/// cached per host on the dynamic path), so repeat requests skip name
/// resolution and endpoint lookup entirely.
#[derive(Clone)]
struct Route {
    host: Atom,
    ip: IpAddr,
    handler: Option<Arc<dyn HttpHandler>>,
}

/// Aggregate counters kept as per-field atomics: the request path
/// accounts for delivered flows and bytes with `fetch_add`s, never a
/// lock ([`Network::stats`] reassembles a [`NetStats`] on demand).
#[derive(Default)]
struct AtomicNetStats {
    delivered: AtomicU64,
    dropped: AtomicU64,
    pinned_bypasses: AtomicU64,
    bytes_out: AtomicU64,
    bytes_in: AtomicU64,
}

impl AtomicNetStats {
    fn snapshot(&self) -> NetStats {
        NetStats {
            delivered: self.delivered.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            pinned_bypasses: self.pinned_bypasses.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
        }
    }
}

/// The simulated network path between the device and the Internet.
///
/// # Lock-free request path
///
/// A campaign network is configured once — the world plan's
/// [`RouteTable`] installed, the proxy registered, the filter rules
/// written — and then only *read* by the crawl. The hot path exploits
/// that: DNS, route and certificate lookups resolve against immutable
/// `Arc` snapshots built once per world plan, and statistics are
/// per-field atomics. The `dynamic` flag flips only when test code uses
/// the incremental registration APIs (or injects faults); campaigns
/// never set it, so their request path takes no lock at all beyond the
/// (setup-mutated, read-mostly) filter table.
pub struct Network {
    zone: RwLock<DnsZone>,
    filter: RwLock<FilterTable>,
    endpoints: RwLock<FastMap<IpAddr, Arc<dyn HttpHandler>>>,
    /// The world plan, installed once — lock-free lookups forever after.
    base: OnceLock<Arc<RouteTable>>,
    /// A re-installed plan (tests replace tables); forces the slow path.
    base_overlay: RwLock<Option<Arc<RouteTable>>>,
    /// True as soon as any dynamic registration overlays the base plan.
    dynamic: AtomicBool,
    route_cache: RwLock<FastMap<Atom, Route>>,
    proxies: RwLock<FastMap<u16, Arc<ProxyRegistration>>>,
    /// The first registered proxy — the campaign's MITM — resolved
    /// without touching the registry lock.
    primary_proxy: OnceLock<(u16, Arc<ProxyRegistration>)>,
    /// True when the primary's port was re-registered with a different
    /// handler; sends lookups back to the registry.
    primary_proxy_stale: AtomicBool,
    origin_ca: CertificateAuthority,
    latency: LatencyModel,
    device_ip: IpAddr,
    stats: AtomicNetStats,
    dns_log: DnsLog,
    /// True once any fault was injected; gates the per-request fault
    /// probe so fault-free runs never touch the fault maps.
    has_faults: AtomicBool,
    faults: RwLock<FastMap<String, FaultMode>>,
    fault_counters: Mutex<FastMap<String, u32>>,
}

impl Network {
    /// A network with the given origin-signing CA and the device at
    /// `device_ip`.
    pub fn new(origin_ca: CertificateAuthority, device_ip: IpAddr) -> Network {
        Network {
            zone: RwLock::new(DnsZone::new()),
            filter: RwLock::new(FilterTable::new()),
            endpoints: RwLock::default(),
            base: OnceLock::new(),
            base_overlay: RwLock::new(None),
            dynamic: AtomicBool::new(false),
            route_cache: RwLock::default(),
            proxies: RwLock::default(),
            primary_proxy: OnceLock::new(),
            primary_proxy_stale: AtomicBool::new(false),
            origin_ca,
            latency: LatencyModel::default(),
            device_ip,
            stats: AtomicNetStats::default(),
            dns_log: DnsLog::new(),
            has_faults: AtomicBool::new(false),
            faults: RwLock::default(),
            fault_counters: Mutex::default(),
        }
    }

    /// Injects a fault for `host` (failure-injection testing).
    pub fn inject_fault(&self, host: &str, mode: FaultMode) {
        self.faults.write().insert(host.to_ascii_lowercase(), mode);
        self.has_faults.store(true, Ordering::Release);
    }

    /// Removes an injected fault.
    pub fn clear_fault(&self, host: &str) {
        self.faults.write().remove(&host.to_ascii_lowercase());
    }

    /// Evaluates injected faults for a request to `host`. `None` = no
    /// fault fires; `Some(response)` = the server answered with an error
    /// page; `Some(Err)` is expressed by the caller mapping
    /// [`NetError::ConnectionRefused`].
    fn fault_for(&self, host: &str) -> Option<Result<Response, ()>> {
        if !self.has_faults.load(Ordering::Acquire) {
            return None;
        }
        let mode = *self.faults.read().get(&host.to_ascii_lowercase())?;
        match mode {
            FaultMode::Unreachable => Some(Err(())),
            FaultMode::ServerError => Some(Ok(Response::status(
                panoptes_http::StatusCode(500),
            ))),
            FaultMode::FlakyEvery(n) => {
                let mut counters = self.fault_counters.lock();
                let c = counters.entry(host.to_ascii_lowercase()).or_insert(0);
                *c += 1;
                if n != 0 && (*c).is_multiple_of(n) {
                    Some(Err(()))
                } else {
                    None
                }
            }
        }
    }

    /// Registers an A record in the zone (overlays any installed
    /// [`RouteTable`]).
    pub fn register_host(&self, host: &str, addr: IpAddr) {
        self.zone.write().insert(host, addr);
        self.dynamic.store(true, Ordering::Release);
        self.route_cache.write().clear();
    }

    /// Registers the handler serving `addr` (overlays any installed
    /// [`RouteTable`]).
    pub fn register_endpoint(&self, addr: IpAddr, handler: Arc<dyn HttpHandler>) {
        self.endpoints.write().insert(addr, handler);
        self.dynamic.store(true, Ordering::Release);
        self.route_cache.write().clear();
    }

    /// Installs a prebuilt routing layer in O(1). Dynamic registrations
    /// (before or after) take precedence over it.
    ///
    /// The first install lands in a `OnceLock` read lock-free by every
    /// request; a re-install (tests swapping worlds) falls back to an
    /// overlay slot behind the slow path.
    pub fn install_routes(&self, table: Arc<RouteTable>) {
        if self.base.set(table.clone()).is_err() {
            *self.base_overlay.write() = Some(table);
            self.dynamic.store(true, Ordering::Release);
        }
        self.route_cache.write().clear();
    }

    /// Registers a transparent proxy listening on local `port`, forging
    /// certificates with `ca`. The first registration — the campaign's
    /// MITM proxy — is additionally pinned for lock-free lookup.
    pub fn register_proxy(&self, port: u16, handler: Arc<dyn HttpHandler>, ca: CertificateAuthority) {
        let reg = Arc::new(ProxyRegistration { handler, ca });
        if self.primary_proxy.set((port, reg.clone())).is_err()
            && self.primary_proxy.get().is_some_and(|(p, _)| *p == port)
        {
            self.primary_proxy_stale.store(true, Ordering::Release);
        }
        self.proxies.write().insert(port, reg);
    }

    /// The registration listening on `port`: the pinned primary when it
    /// matches (no lock), the registry otherwise.
    fn proxy_for(&self, port: u16) -> Option<Arc<ProxyRegistration>> {
        if !self.primary_proxy_stale.load(Ordering::Acquire) {
            if let Some((p, reg)) = self.primary_proxy.get() {
                if *p == port {
                    return Some(reg.clone());
                }
            }
        }
        self.proxies.read().get(&port).cloned()
    }

    /// Mutates the filter table (installing/flushing Panoptes rules).
    pub fn with_filter<R>(&self, f: impl FnOnce(&mut FilterTable) -> R) -> R {
        f(&mut self.filter.write())
    }

    /// Resolves `host` through the device stub resolver, logging the
    /// query for the §3.2 DNS analysis. (DoH users instead send a real
    /// HTTPS request built with [`crate::dns::DohProvider::query_request`]
    /// and then call [`Network::resolve_silent`].)
    pub fn resolve_stub(&self, uid: u32, host: &str) -> Option<IpAddr> {
        self.dns_log.push(DnsLogEntry {
            uid,
            name: self.name_atom(host),
            resolver: ResolverKind::LocalStub,
        });
        self.resolve_silent(host)
    }

    /// The atom a DNS-log entry names `host` by: the installed world
    /// plan's route atom, so logging a query interns nothing. Only a
    /// host the plan does not route is interned.
    fn name_atom(&self, host: &str) -> Atom {
        match self.base.get().and_then(|table| table.route(host)) {
            Some(route) => route.host.clone(),
            None => Atom::intern(host),
        }
    }

    /// Zone lookup with no stub-query logging (used for transport-level
    /// routing and after a DoH exchange). Dynamic zone entries overlay
    /// the installed route table.
    ///
    /// With no dynamic entries — every campaign — this is one probe of
    /// the immutable world plan, no lock.
    pub fn resolve_silent(&self, host: &str) -> Option<IpAddr> {
        if self.dynamic.load(Ordering::Acquire) {
            if let Some(ip) = self.zone.read().lookup(host) {
                return Some(ip);
            }
            if let Some(table) = self.base_overlay.read().as_ref() {
                return table.hosts.get(host).copied();
            }
        }
        self.base.get().and_then(|t| t.hosts.get(host).copied())
    }

    /// Records that `uid` resolved `name` over DoH (the HTTPS flow itself
    /// is sent separately by the caller).
    pub fn log_doh_query(&self, uid: u32, name: &str, provider: crate::dns::DohProvider) {
        self.dns_log.push(DnsLogEntry {
            uid,
            name: self.name_atom(name),
            resolver: ResolverKind::Doh(provider),
        });
    }

    /// Snapshot of the DNS query log (shared, memoised — no clone of the
    /// underlying entries).
    pub fn dns_log(&self) -> DnsLogSnapshot {
        self.dns_log.snapshot()
    }

    /// Resolves `host` to its [`Route`]: interned name, address, and
    /// endpoint handler.
    ///
    /// The campaign path (no dynamic registrations) is **lock-free** and
    /// borrows: one probe of the world plan's compiled route map — built
    /// once per plan, shared by every campaign — returns the plan's own
    /// route, so a request clones neither the host atom nor the world's
    /// origin handler, and the workers of a fleet write no shared
    /// reference count here. With dynamic overlays present the prior
    /// cached slow path runs and returns an owned route: first request
    /// to a host pays the zone and endpoint lookups under locks, later
    /// ones are one shared-lock cache probe.
    fn route_for(&self, host: &str) -> Option<Cow<'_, Route>> {
        if !self.dynamic.load(Ordering::Acquire) {
            return self.base.get()?.route(host).map(Cow::Borrowed);
        }
        if let Some(route) = self.route_cache.read().get(host) {
            return Some(Cow::Owned(route.clone()));
        }
        let ip = self.resolve_silent(host)?;
        let handler = self.endpoints.read().get(&ip).cloned().or_else(|| {
            if let Some(table) = self.base_overlay.read().as_ref() {
                table.endpoints.get(&ip).cloned()
            } else {
                self.base.get().and_then(|t| t.endpoints.get(&ip).cloned())
            }
        });
        let route = Route { host: Atom::intern(host), ip, handler };
        self.route_cache.write().insert(route.host.clone(), route.clone());
        Some(Cow::Owned(route))
    }

    /// Snapshot of the aggregate counters.
    pub fn stats(&self) -> NetStats {
        self.stats.snapshot()
    }

    /// The device's source address.
    pub fn device_ip(&self) -> IpAddr {
        self.device_ip
    }

    /// Sends an HTTP request from the app described by `client`. Returns
    /// the response plus a byte/latency report, or the network-level
    /// failure.
    pub fn send_http(
        &self,
        client: &ClientCtx,
        req: Request,
    ) -> Result<(Response, TransportReport), NetError> {
        let route = self
            .route_for(req.url.host())
            .ok_or_else(|| NetError::NoRoute(req.url.host().to_string()))?; // clone-ok: cold error path
        let dst_port = req.url.port();
        let proto = match req.version {
            HttpVersion::H3 => Proto::Udp,
            _ => Proto::Tcp,
        };

        let verdict = self.filter.read().evaluate(client.uid, proto, dst_port);
        match verdict {
            Verdict::Drop => {
                self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                Err(NetError::Dropped)
            }
            Verdict::Accept => self.deliver_direct(client, req, &route, dst_port),
            Verdict::Redirect(port) => {
                self.deliver_via_proxy(client, req, &route, dst_port, port)
            }
        }
    }

    fn make_ctx(
        &self,
        client: &ClientCtx,
        route: &Route,
        dst_port: u16,
        version: HttpVersion,
        intercepted: bool,
    ) -> FlowContext {
        FlowContext {
            time: client.time,
            uid: client.uid,
            app_package: client.app_package.clone(),
            src_ip: self.device_ip,
            dst_ip: route.ip,
            dst_port,
            sni: route.host.clone(),
            version,
            intercepted,
        }
    }

    fn deliver_direct(
        &self,
        client: &ClientCtx,
        req: Request,
        route: &Route,
        dst_port: u16,
    ) -> Result<(Response, TransportReport), NetError> {
        let host = &route.host;
        if req.url.scheme() == Scheme::Https {
            let cert = self.origin_cert_for(host);
            let outcome = handshake(&client.trust, &client.pins, host, &cert, false);
            if !outcome.is_ok() {
                return Err(NetError::TlsFailed(outcome));
            }
        }
        let handler =
            route.handler.as_deref().ok_or(NetError::ConnectionRefused(route.ip))?;
        let ctx = self.make_ctx(client, route, dst_port, req.version, false);
        self.finish(handler, ctx, req)
    }

    fn deliver_via_proxy(
        &self,
        client: &ClientCtx,
        req: Request,
        route: &Route,
        dst_port: u16,
        proxy_port: u16,
    ) -> Result<(Response, TransportReport), NetError> {
        let host = &route.host;
        let reg =
            self.proxy_for(proxy_port).ok_or(NetError::ConnectionRefused(self.device_ip))?;
        let handler = &*reg.handler;
        let forged = reg.ca.issue_for(host);
        let ctx = self.make_ctx(client, route, dst_port, req.version, true);
        if req.url.scheme() == Scheme::Https {
            let outcome = handshake(&client.trust, &client.pins, host, &forged, true);
            match outcome {
                TlsOutcome::InterceptedOk => {}
                TlsOutcome::PinnedRejected => {
                    self.stats.pinned_bypasses.fetch_add(1, Ordering::Relaxed);
                    handler.on_tls_rejected(self, &ctx);
                    return Err(NetError::PinnedBypass);
                }
                other => return Err(NetError::TlsFailed(other)),
            }
        }
        self.finish(handler, ctx, req)
    }

    fn finish(
        &self,
        handler: &dyn HttpHandler,
        ctx: FlowContext,
        req: Request,
    ) -> Result<(Response, TransportReport), NetError> {
        let host = &ctx.sni;
        let bytes_out = req.wire_size();
        // Injected faults on the *destination* fire before its handler —
        // but never on the proxy hop itself (ctx.intercepted): transparent
        // proxying must surface the upstream fault, which origin_fetch
        // evaluates.
        if !ctx.intercepted {
            match self.fault_for(host) {
                Some(Err(())) => return Err(NetError::ConnectionRefused(ctx.dst_ip)),
                Some(Ok(error_page)) => {
                    let bytes_in = error_page.wire_size();
                    let latency = self.latency.latency(host, bytes_out, bytes_in);
                    self.account(bytes_out, bytes_in);
                    return Ok((error_page, TransportReport { bytes_out, bytes_in, latency }));
                }
                None => {}
            }
        }
        let response = handler.handle(self, &ctx, req)?;
        let bytes_in = response.wire_size();
        let latency = self.latency.latency(host, bytes_out, bytes_in);
        self.account(bytes_out, bytes_in);
        Ok((response, TransportReport { bytes_out, bytes_in, latency }))
    }

    /// Accounts one delivered exchange — three relaxed `fetch_add`s.
    fn account(&self, bytes_out: u64, bytes_in: u64) {
        self.stats.delivered.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_out.fetch_add(bytes_out, Ordering::Relaxed);
        self.stats.bytes_in.fetch_add(bytes_in, Ordering::Relaxed);
    }

    /// Used by the MITM proxy to reach the upstream origin after
    /// interception. No filter re-evaluation: the proxy's own traffic is
    /// not subject to the app's rules.
    pub fn origin_fetch(&self, ctx: &FlowContext, req: Request) -> Result<Response, NetError> {
        let route = self
            .route_for(req.url.host())
            .ok_or_else(|| NetError::NoRoute(req.url.host().to_string()))?; // clone-ok: cold error path
        match self.fault_for(&route.host) {
            Some(Err(())) => return Err(NetError::ConnectionRefused(route.ip)),
            Some(Ok(error_page)) => return Ok(error_page),
            None => {}
        }
        let handler =
            route.handler.as_deref().ok_or(NetError::ConnectionRefused(route.ip))?;
        let upstream_ctx = FlowContext {
            intercepted: false,
            dst_ip: route.ip,
            sni: route.host.clone(),
            app_package: ctx.app_package.clone(),
            ..*ctx
        };
        handler.handle(self, &upstream_ctx, req)
    }

    fn origin_cert_for(&self, host: &Atom) -> Certificate {
        self.origin_ca.issue_for(host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tls::CaId;
    use panoptes_http::url::Url;

    struct Echo;
    impl HttpHandler for Echo {
        fn handle(
            &self,
            _net: &Network,
            ctx: &FlowContext,
            req: Request,
        ) -> Result<Response, NetError> {
            Ok(Response::ok(format!(
                "host={} intercepted={} path={}",
                ctx.sni,
                ctx.intercepted,
                req.url.path()
            )))
        }
    }

    fn network() -> Network {
        let net = Network::new(
            CertificateAuthority::new(CaId::public_web_pki()),
            IpAddr::new(192, 168, 1, 50),
        );
        net.register_host("example.com", IpAddr::new(198, 51, 100, 1));
        net.register_endpoint(IpAddr::new(198, 51, 100, 1), Arc::new(Echo));
        net
    }

    fn client(uid: u32) -> ClientCtx {
        let mut trust = TrustStore::system();
        trust.install(CaId::mitm());
        ClientCtx {
            uid,
            app_package: "com.test.app".into(),
            trust,
            pins: PinPolicy::none(),
            time: SimInstant::EPOCH,
        }
    }

    #[test]
    fn direct_delivery() {
        let net = network();
        let req = Request::get(Url::parse("https://example.com/page").unwrap());
        let (resp, report) = net.send_http(&client(1), req).unwrap();
        let body = String::from_utf8(resp.body.to_vec()).unwrap();
        assert!(body.contains("intercepted=false"));
        assert!(body.contains("path=/page"));
        assert!(report.bytes_out > 0 && report.bytes_in > 0);
        assert!(report.latency >= SimDuration::from_millis(40));
        assert_eq!(net.stats().delivered, 1);
    }

    #[test]
    fn unresolvable_host_is_no_route() {
        let net = network();
        let req = Request::get(Url::parse("https://nowhere.invalid/").unwrap());
        assert_eq!(
            net.send_http(&client(1), req).unwrap_err(),
            NetError::NoRoute("nowhere.invalid".to_string())
        );
    }

    #[test]
    fn quic_block_and_fallback() {
        let net = network();
        net.with_filter(|f| f.install_panoptes_rules(7, 8080));
        net.register_proxy(
            8080,
            Arc::new(Echo),
            CertificateAuthority::new(CaId::mitm()),
        );
        let url = Url::parse("https://example.com/").unwrap();
        let h3 = Request::get(url.clone()).with_version(HttpVersion::H3);
        assert_eq!(net.send_http(&client(7), h3).unwrap_err(), NetError::Dropped);
        assert_eq!(net.stats().dropped, 1);
        // Fallback to h2 goes through the proxy.
        let h2 = Request::get(url).with_version(HttpVersion::H2);
        let (resp, _) = net.send_http(&client(7), h2).unwrap();
        assert!(String::from_utf8(resp.body.to_vec()).unwrap().contains("intercepted=true"));
    }

    #[test]
    fn redirect_only_applies_to_ruled_uid() {
        let net = network();
        net.with_filter(|f| f.install_panoptes_rules(7, 8080));
        net.register_proxy(8080, Arc::new(Echo), CertificateAuthority::new(CaId::mitm()));
        let url = Url::parse("https://example.com/").unwrap();
        let (resp, _) = net.send_http(&client(9), Request::get(url)).unwrap();
        assert!(String::from_utf8(resp.body.to_vec()).unwrap().contains("intercepted=false"));
    }

    #[test]
    fn pinning_aborts_intercepted_flow() {
        struct CountRejects(Mutex<u32>);
        impl HttpHandler for CountRejects {
            fn handle(
                &self,
                _net: &Network,
                _ctx: &FlowContext,
                _req: Request,
            ) -> Result<Response, NetError> {
                Ok(Response::ok(""))
            }
            fn on_tls_rejected(&self, _net: &Network, _ctx: &FlowContext) {
                *self.0.lock() += 1;
            }
        }
        let net = network();
        net.with_filter(|f| f.install_panoptes_rules(7, 8080));
        let counter = Arc::new(CountRejects(Mutex::new(0)));
        net.register_proxy(8080, counter.clone(), CertificateAuthority::new(CaId::mitm()));
        let mut c = client(7);
        c.pins = PinPolicy::pin(&["example.com"]);
        let req = Request::get(Url::parse("https://example.com/").unwrap());
        assert_eq!(net.send_http(&c, req).unwrap_err(), NetError::PinnedBypass);
        assert_eq!(*counter.0.lock(), 1);
        assert_eq!(net.stats().pinned_bypasses, 1);
    }

    #[test]
    fn client_without_mitm_ca_fails_interception() {
        let net = network();
        net.with_filter(|f| f.install_panoptes_rules(7, 8080));
        net.register_proxy(8080, Arc::new(Echo), CertificateAuthority::new(CaId::mitm()));
        let mut c = client(7);
        c.trust = TrustStore::system(); // MITM CA not installed
        let req = Request::get(Url::parse("https://example.com/").unwrap());
        assert_eq!(
            net.send_http(&c, req).unwrap_err(),
            NetError::TlsFailed(TlsOutcome::Untrusted)
        );
    }

    #[test]
    fn stub_resolution_is_logged() {
        let net = network();
        assert_eq!(net.resolve_stub(42, "example.com"), Some(IpAddr::new(198, 51, 100, 1)));
        net.log_doh_query(42, "other.com", crate::dns::DohProvider::Google);
        let log = net.dns_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].resolver, ResolverKind::LocalStub);
        assert!(log[1].resolver.is_doh());
    }

    #[test]
    fn latency_model_is_deterministic_and_monotone() {
        let model = LatencyModel::default();
        let a = model.latency("example.com", 1000, 1000);
        let b = model.latency("example.com", 1000, 1000);
        assert_eq!(a, b);
        let bigger = model.latency("example.com", 1000, 2_000_000);
        assert!(bigger > a);
    }

    #[test]
    fn installed_route_table_serves_requests() {
        let net = Network::new(
            CertificateAuthority::new(CaId::public_web_pki()),
            IpAddr::new(192, 168, 1, 50),
        );
        let mut table = RouteTable::new();
        table.add_host("bulk.example", IpAddr::new(203, 0, 113, 9));
        table.add_endpoint(IpAddr::new(203, 0, 113, 9), Arc::new(Echo));
        assert_eq!(table.host_count(), 1);
        net.install_routes(Arc::new(table));

        assert_eq!(net.resolve_silent("bulk.example"), Some(IpAddr::new(203, 0, 113, 9)));
        let req = Request::get(Url::parse("https://bulk.example/x").unwrap());
        let (resp, _) = net.send_http(&client(1), req).unwrap();
        assert!(String::from_utf8(resp.body.to_vec()).unwrap().contains("host=bulk.example"));
    }

    #[test]
    fn dynamic_registration_overlays_route_table() {
        let net = network();
        let mut table = RouteTable::new();
        table.add_host("example.com", IpAddr::new(203, 0, 113, 200));
        net.install_routes(Arc::new(table));
        // The dynamically registered address wins over the table's.
        assert_eq!(net.resolve_silent("example.com"), Some(IpAddr::new(198, 51, 100, 1)));
        // A later dynamic registration invalidates cached routes.
        let req = Request::get(Url::parse("https://example.com/").unwrap());
        net.send_http(&client(1), req.clone()).unwrap();
        net.register_host("example.com", IpAddr::new(198, 51, 100, 7));
        net.register_endpoint(IpAddr::new(198, 51, 100, 7), Arc::new(Echo));
        net.send_http(&client(1), req).unwrap();
        assert_eq!(net.resolve_silent("example.com"), Some(IpAddr::new(198, 51, 100, 7)));
    }

    #[test]
    fn http_plain_skips_tls() {
        let net = network();
        let req = Request::get(Url::parse("http://example.com/clear").unwrap());
        let mut c = client(1);
        c.trust = TrustStore::default(); // trusts nothing — irrelevant for http
        let (resp, _) = net.send_http(&c, req).unwrap();
        assert!(resp.status.is_success());
    }
}
