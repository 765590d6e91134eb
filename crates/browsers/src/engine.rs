//! The web engine: page loading with DNS, cookies, ad blocking, HTTP/3
//! fallback and instrumentation tainting.
//!
//! Everything the engine sends is *website-initiated* traffic, so every
//! request is run through the instrumentation tap (which injects the
//! taint header, §2.3) before it leaves the device. The MITM addon will
//! therefore classify it `Engine` — in contrast to the native calls in
//! [`crate::browser`], which never touch the tap.

use std::sync::Arc;

use panoptes_blocklist::filterlist::easylist_excerpt;
use panoptes_blocklist::FilterList;
use panoptes_device::DeviceProperties;
use panoptes_http::hash::FastSet;
use panoptes_http::headers::vocab;
use panoptes_http::request::HttpVersion;
use panoptes_http::url::Url;
use panoptes_http::useragent::UserAgent;
use panoptes_http::{Atom, CookieJar, Cookie, Headers, Request};
use panoptes_simnet::clock::{SimClock, SimInstant};
use panoptes_simnet::dns::ResolverKind;
use panoptes_simnet::net::{ClientCtx, NetError, Network};
use panoptes_simnet::tls::{PinPolicy, TrustStore};
use panoptes_instrument::tap::RequestTap;
use panoptes_web::site::{ResourceKind, SiteSpec};

/// Browsers fetch subresources concurrently; the virtual clock advances
/// by `latency / PARALLELISM` per subresource to approximate that.
const PARALLELISM: u64 = 8;

/// Header fields an engine request carries at most: user agent, accept,
/// accept-language, accept-encoding, referer, cookie and the taint
/// header the instrumentation injects. Reserved once per request.
const ENGINE_HEADERS: usize = 7;

/// The client identity the engine sends with.
#[derive(Debug, Clone)]
pub struct ClientTemplate {
    /// Kernel UID of the browser process.
    pub uid: u32,
    /// Package name (interned — cloning into each request context is a
    /// reference-count bump).
    pub package: Atom,
    /// Trust store (system roots + the installed Panoptes MITM CA).
    pub trust: TrustStore,
    /// The app's pinning policy.
    pub pins: PinPolicy,
}

impl ClientTemplate {
    /// Builds a transport client context stamped `now`.
    pub fn ctx(&self, now: SimInstant) -> ClientCtx {
        ClientCtx {
            uid: self.uid,
            app_package: self.package.clone(),
            trust: self.trust.clone(),
            pins: self.pins.clone(),
            time: now,
        }
    }
}

/// Counters from one page load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Engine requests actually sent (including DoH? no — DoH is native).
    pub sent: u32,
    /// Requests suppressed by the engine-side filterlist (CocCoc).
    pub adblocked: u32,
    /// HTTP/3 attempts dropped by the filter, retried over h2.
    pub h3_fallbacks: u32,
    /// Requests that failed at the network layer.
    pub failures: u32,
    /// Native DoH lookups the load triggered.
    pub doh_lookups: u32,
}

/// Per-session engine state: DNS cache, QUIC memory, incognito cookies.
pub struct EngineSession {
    resolver: ResolverKind,
    filter: Option<Arc<FilterList>>,
    attempts_h3: bool,
    dns_cache: FastSet<String>,
    /// Hosts whose HTTP/3 attempt is settled, by host text (copied once
    /// per host per session).
    h3_blocked: FastSet<String>,
    /// Cookie jar used in incognito (discarded when the session ends).
    pub incognito_jar: CookieJar,
    user_agent: Atom,
}

impl EngineSession {
    /// A fresh engine session.
    pub fn new(
        resolver: ResolverKind,
        adblock: bool,
        attempts_h3: bool,
        browser: &str,
        version: &str,
    ) -> EngineSession {
        EngineSession::with_filter(
            resolver,
            adblock.then(|| Arc::new(easylist_excerpt())),
            attempts_h3,
            browser,
            version,
        )
    }

    /// A fresh engine session over an already-compiled filterlist.
    ///
    /// Compiling the easylist excerpt (rule parse + Aho–Corasick DFA
    /// build) is per-session work that the serving layer dedupes across
    /// concurrent studies: every adblocking browser in every request
    /// shares one immutable compiled list via the `Arc`. Behaviour is
    /// identical to [`EngineSession::new`] — the list is read-only after
    /// compilation, so sharing cannot change what a session observes.
    pub fn with_filter(
        resolver: ResolverKind,
        filter: Option<Arc<FilterList>>,
        attempts_h3: bool,
        browser: &str,
        version: &str,
    ) -> EngineSession {
        EngineSession {
            resolver,
            filter,
            attempts_h3,
            dns_cache: FastSet::default(),
            h3_blocked: FastSet::default(),
            incognito_jar: CookieJar::new(),
            user_agent: Atom::from(UserAgent::for_browser(browser, version).render()),
        }
    }

    /// The user agent every request of the session sends, engine and
    /// native alike, interned once per session.
    pub(crate) fn user_agent(&self) -> &Atom {
        &self.user_agent
    }

    /// The configured resolver.
    pub fn resolver(&self) -> ResolverKind {
        self.resolver
    }

    /// Resolves `host` through the browser's mechanism. A stub query is
    /// logged by the network; a DoH query is an *untainted HTTPS request*
    /// — native traffic by construction. Results are cached for the
    /// session.
    pub fn ensure_resolved(
        &mut self,
        net: &Network,
        client: &ClientTemplate,
        clock: &mut SimClock,
        host: &str,
        stats: &mut EngineStats,
    ) {
        if self.dns_cache.contains(host) {
            return;
        }
        self.dns_cache.insert(host.to_string());
        match self.resolver {
            ResolverKind::LocalStub => {
                let _ = net.resolve_stub(client.uid, host);
            }
            ResolverKind::Doh(provider) => {
                let mut req = provider.query_request(host);
                req.headers.set(vocab().user_agent.clone(), self.user_agent.clone());
                match net.send_http(&client.ctx(clock.now()), req) {
                    Ok((_, report)) => {
                        clock.advance(panoptes_simnet::SimDuration(
                            report.latency.0 / PARALLELISM,
                        ));
                        stats.doh_lookups += 1;
                    }
                    Err(_) => stats.failures += 1,
                }
                net.log_doh_query(client.uid, host, provider);
            }
        }
    }

    /// Sends one engine request: resolve, apply filterlist, attempt h3
    /// once per host, taint through the tap, attach cookies, dispatch,
    /// store cookies. Returns the response when one was received.
    ///
    /// The request clones `url`, usually the world's, so a fetch parses
    /// and formats no URL. Header names and constant values come from
    /// the process-wide vocabulary and the user agent from the session;
    /// the referer and the cookie are per-request values, built without
    /// the intern table.
    #[allow(clippy::too_many_arguments)]
    fn fetch(
        &mut self,
        net: &Network,
        client: &ClientTemplate,
        clock: &mut SimClock,
        tap: Option<&Arc<dyn RequestTap>>,
        jar: &mut CookieJar,
        url: &Url,
        stats: &mut EngineStats,
        full_latency: bool,
    ) -> Option<panoptes_http::Response> {
        let host = url.host();
        if let Some(filter) = &self.filter {
            if filter.should_block(host, url.as_str()) {
                stats.adblocked += 1;
                return None;
            }
        }
        self.ensure_resolved(net, client, clock, host, stats);

        let v = vocab();
        let mut req = Request {
            headers: Headers::with_capacity(ENGINE_HEADERS),
            ..Request::get(url.clone())
        };
        req.headers.set(v.user_agent.clone(), self.user_agent.clone());
        req.headers.set(v.accept.clone(), v.accept_document.clone());
        req.headers.set(v.accept_language.clone(), v.languages.clone());
        req.headers.set(v.accept_encoding.clone(), v.encodings.clone());
        // Every engine URL is https on the default port, so its root is
        // `https://{host}/`, copied from the URL's text.
        req.headers.set(v.referer.clone(), Atom::owned(url.root()));
        if let Some(cookie) = jar.header_for(host) {
            req.headers.set(v.cookie.clone(), Atom::owned(&cookie));
        }
        if let Some(tap) = tap {
            tap.on_engine_request(&mut req);
        }

        // QUIC first where supported; the Panoptes filter drops it and
        // the engine falls back to h2 (§2.2).
        if self.attempts_h3 && !self.h3_blocked.contains(host) {
            let h3 = req.clone().with_version(HttpVersion::H3);
            let sent = net.send_http(&client.ctx(clock.now()), h3);
            self.h3_blocked.insert(host.to_owned());
            match sent {
                Err(NetError::Dropped) => stats.h3_fallbacks += 1,
                Ok((resp, report)) => {
                    // No filter rule for this app: h3 went straight out.
                    return Some(self.finish(resp, report, clock, jar, host, stats, full_latency));
                }
                Err(_) => {}
            }
        }

        match net.send_http(&client.ctx(clock.now()), req.with_version(HttpVersion::H2)) {
            Ok((resp, report)) => {
                Some(self.finish(resp, report, clock, jar, host, stats, full_latency))
            }
            Err(_) => {
                stats.failures += 1;
                None
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn finish(
        &mut self,
        resp: panoptes_http::Response,
        report: panoptes_simnet::TransportReport,
        clock: &mut SimClock,
        jar: &mut CookieJar,
        host: &str,
        stats: &mut EngineStats,
        full_latency: bool,
    ) -> panoptes_http::Response {
        let advance =
            if full_latency { report.latency.0 } else { report.latency.0 / PARALLELISM };
        clock.advance(panoptes_simnet::SimDuration(advance));
        let domain = panoptes_http::url::registrable_suffix(host);
        for value in resp.headers.get_all("set-cookie") {
            if let Some(cookie) = Cookie::parse_set_cookie(value, domain) {
                jar.store(cookie);
            }
        }
        stats.sent += 1;
        resp
    }

    /// Loads a site's landing page. Returns the stats and the virtual
    /// time `DOMContentLoaded` fired (`None` if the page is slower than
    /// the simulated horizon — the crawler's 60-second rule is applied by
    /// the caller).
    #[allow(clippy::too_many_arguments)]
    pub fn load_page(
        &mut self,
        net: &Network,
        client: &ClientTemplate,
        clock: &mut SimClock,
        tap: Option<&Arc<dyn RequestTap>>,
        persistent_jar: &mut CookieJar,
        incognito: bool,
        site: &SiteSpec,
        props: &DeviceProperties,
        js_collector: Option<&str>,
    ) -> (EngineStats, Option<SimInstant>) {
        let mut stats = EngineStats::default();
        let start = clock.now();

        // Split borrows: incognito uses the session-scoped jar.
        let mut scratch;
        let jar: &mut CookieJar = if incognito {
            scratch = std::mem::take(&mut self.incognito_jar);
            &mut scratch
        } else {
            persistent_jar
        };

        // 1. Main document (full latency — everything waits for it).
        // Real top sites answer on the apex with a redirect to www; the
        // engine follows up to three hops, each a captured flow.
        // Only a redirect target is parsed; the world built the rest.
        let mut redirected: Option<Url> = None;
        for _hop in 0..=3 {
            let url = redirected.as_ref().unwrap_or(&site.url);
            let response = self.fetch(net, client, clock, tap, jar, url, &mut stats, true);
            match response {
                Some(resp) if resp.status.is_redirect() => {
                    match resp.headers.get("location").and_then(|l| Url::parse(l).ok()) {
                        Some(next) => redirected = Some(next),
                        None => break,
                    }
                }
                _ => break,
            }
        }

        // 2. Subresources, third parties, ads (parallel-ish).
        for r in &site.page.resources {
            let url = &r.url;
            // Engine-side ad blocking also consults the resource kind:
            // easylist's URL rules plus the element-hiding heuristics.
            if self.filter.is_some() && r.kind == ResourceKind::Ad {
                // Covered by the filterlist path inside fetch(); kept
                // explicit so blocked ads never even resolve DNS.
                if self
                    .filter
                    .as_ref()
                    .is_some_and(|f| f.should_block(url.host(), url.as_str()))
                {
                    stats.adblocked += 1;
                    continue;
                }
            }
            self.fetch(net, client, clock, tap, jar, url, &mut stats, false);
        }

        // 3. The UC International trick (§3.2): an injected JS snippet
        // exfiltrates via the *page* — tainted engine traffic.
        if let Some(collector) = js_collector {
            let url = Url::https(collector)
                .with_path("/v1/pv")
                .with_query_param("url", site.url.as_str())
                .with_query_param("city", &props.city)
                .with_query_param("isp", &props.isp);
            self.fetch(net, client, clock, tap, jar, &url, &mut stats, false);
        }

        if incognito {
            self.incognito_jar = std::mem::take(jar);
        }

        let dcl_offset = panoptes_simnet::SimDuration::from_millis(
            site.page.dom_content_loaded_ms as u64,
        );
        let dcl_at = start.plus(dcl_offset);
        let fired = site.page.dom_content_loaded_ms < 60_000;
        (stats, fired.then_some(dcl_at))
    }

    /// Number of hosts in the DNS cache (tests).
    pub fn dns_cache_size(&self) -> usize {
        self.dns_cache.len()
    }
}
