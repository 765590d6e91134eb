//! The transparent MITM proxy.
//!
//! Implements [`HttpHandler`] so the packet filter can divert browser
//! flows to it (§2.2). For each diverted request it:
//!
//! 1. receives the plaintext (the TLS interception already succeeded at
//!    the transport layer, or we got a [`Addon::on_tls_rejected`]
//!    callback for pinned flows),
//! 2. runs the addon chain — the taint addon classifies and strips,
//! 3. forwards the (cleaned) request to the original destination,
//! 4. records the complete exchange in the [`FlowStore`].
//!
//! Upstream failures surface as `502 Bad Gateway`, like mitmproxy.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use panoptes_http::method::Method;
use panoptes_http::{Request, Response, StatusCode};
use panoptes_simnet::net::{FlowContext, HttpHandler, NetError, Network};
use panoptes_simnet::tls::{CaId, CertificateAuthority};

use crate::addon::{AddonChain, InterceptedRequest, Verdict};
use crate::flow::{Flow, FlowClass};
use crate::store::FlowStore;

/// The transparent proxy: addon chain + flow store + forging CA.
pub struct TransparentProxy {
    addons: AddonChain,
    store: Arc<FlowStore>,
    next_id: AtomicU64,
}

impl TransparentProxy {
    /// Builds a proxy writing to `store`.
    pub fn new(store: Arc<FlowStore>) -> TransparentProxy {
        TransparentProxy { addons: AddonChain::new(), store, next_id: AtomicU64::new(1) }
    }

    /// Installs an addon at the end of the chain.
    pub fn install_addon(&mut self, addon: Box<dyn crate::addon::Addon>) {
        self.addons.push(addon);
    }

    /// The CA identity/authority this proxy forges leaves with — the one
    /// whose root Panoptes installs on the device.
    pub fn certificate_authority() -> CertificateAuthority {
        CertificateAuthority::new(CaId::mitm())
    }

    /// The capture database.
    pub fn store(&self) -> &Arc<FlowStore> {
        &self.store
    }

    /// Snapshots the request half of a flow record. The response half
    /// (`status`, `bytes_in`) is filled in once the exchange completes.
    fn flow_of(&self, ctx: &FlowContext, req: &Request, class: FlowClass) -> Flow {
        panoptes_obs::count!("mitm.flows.built", Deterministic);
        match class {
            FlowClass::Blocked => {
                panoptes_obs::count!("mitm.flows.blocked", Deterministic)
            }
            FlowClass::PinnedOpaque => {
                panoptes_obs::count!("mitm.flows.pinned_opaque", Deterministic)
            }
            _ => {}
        }
        Flow {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            time_us: ctx.time.0,
            uid: ctx.uid,
            // Atoms carried through the FlowContext: cloning copies no
            // string.
            package: ctx.app_package.clone(),
            host: ctx.sni.clone(),
            dst_ip: ctx.dst_ip,
            dst_port: ctx.dst_port,
            method: req.method,
            url: req.url.as_str().to_owned(),
            request_headers: req
                .headers
                .iter_interned()
                .map(|(n, v)| (n.clone(), v.clone()))
                .collect(),
            request_body: String::from_utf8_lossy(&req.body).into_owned(),
            status: 0,
            bytes_out: req.wire_size(),
            bytes_in: 0,
            version: ctx.version,
            class,
        }
    }

    fn record(
        &self,
        ctx: &FlowContext,
        req: &Request,
        class: FlowClass,
        status: u16,
        bytes_in: u64,
    ) {
        let mut flow = self.flow_of(ctx, req, class);
        flow.status = status;
        flow.bytes_in = bytes_in;
        self.store.push(flow);
    }
}

impl HttpHandler for TransparentProxy {
    fn handle(
        &self,
        net: &Network,
        ctx: &FlowContext,
        mut req: Request,
    ) -> Result<Response, NetError> {
        let mut class = FlowClass::Native;
        let mut verdict = Verdict::Forward;
        self.addons.run_request(&mut InterceptedRequest {
            ctx,
            request: &mut req,
            class: &mut class,
            verdict: &mut verdict,
        });

        if verdict == Verdict::Block {
            // Enforcement: answer locally, never contact the destination.
            let denied = Response::status(StatusCode::FORBIDDEN)
                .with_header("x-guard", "blocked");
            self.record(ctx, &req, FlowClass::Blocked, StatusCode::FORBIDDEN.0, denied.wire_size());
            return Ok(denied);
        }

        // Snapshot the flow record now, then hand `req` to the origin by
        // value — the forward no longer deep-clones the request.
        let mut flow = self.flow_of(ctx, &req, class);
        match net.origin_fetch(ctx, req) {
            Ok(mut response) => {
                self.addons.run_response(ctx, &mut response);
                flow.status = response.status.0;
                flow.bytes_in = response.wire_size();
                self.store.push(flow);
                Ok(response)
            }
            Err(err) => {
                let gateway = Response::status(StatusCode::BAD_GATEWAY)
                    .with_header("x-mitm-error", err.to_string());
                flow.status = StatusCode::BAD_GATEWAY.0;
                flow.bytes_in = gateway.wire_size();
                self.store.push(flow);
                Ok(gateway)
            }
        }
    }

    fn on_tls_rejected(&self, _net: &Network, ctx: &FlowContext) {
        self.addons.run_tls_rejected(ctx);
        // Only connection metadata is observable for pinned flows.
        let placeholder = Request {
            method: Method::Connect,
            url: panoptes_http::url::Url::https(&ctx.sni),
            headers: panoptes_http::Headers::new(),
            body: bytes::Bytes::new(),
            version: ctx.version,
        };
        self.record(ctx, &placeholder, FlowClass::PinnedOpaque, 0, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taint::{TaintAddon, TAINT_HEADER};
    use panoptes_http::netaddr::IpAddr;
    use panoptes_http::url::Url;
    use panoptes_simnet::net::ClientCtx;
    use panoptes_simnet::tls::{PinPolicy, TrustStore};
    use panoptes_simnet::SimInstant;

    /// Upstream origin that records whether it saw a taint header.
    struct Origin;
    impl HttpHandler for Origin {
        fn handle(
            &self,
            _net: &Network,
            _ctx: &FlowContext,
            req: Request,
        ) -> Result<Response, NetError> {
            if req.headers.contains(TAINT_HEADER) {
                // The taint must never reach the origin.
                return Ok(Response::status(StatusCode::BAD_REQUEST));
            }
            Ok(Response::sized(500))
        }
    }

    fn testbed() -> (Network, Arc<FlowStore>) {
        let net = Network::new(
            CertificateAuthority::new(CaId::public_web_pki()),
            IpAddr::new(192, 168, 1, 50),
        );
        net.register_host("site.com", IpAddr::new(23, 20, 0, 99));
        net.register_endpoint(IpAddr::new(23, 20, 0, 99), Arc::new(Origin));

        let store = Arc::new(FlowStore::new());
        let mut proxy = TransparentProxy::new(store.clone());
        proxy.install_addon(Box::new(TaintAddon::new("tok")));
        net.register_proxy(8080, Arc::new(proxy), TransparentProxy::certificate_authority());
        net.with_filter(|f| f.install_panoptes_rules(10001, 8080));
        (net, store)
    }

    fn client() -> ClientCtx {
        let mut trust = TrustStore::system();
        trust.install(CaId::mitm());
        ClientCtx {
            uid: 10001,
            app_package: "com.browser".into(),
            trust,
            pins: PinPolicy::none(),
            time: SimInstant(5_000_000),
        }
    }

    #[test]
    fn tainted_flow_recorded_as_engine_and_taint_stripped_upstream() {
        let (net, store) = testbed();
        let req = Request::get(Url::parse("https://site.com/page").unwrap())
            .with_header(TAINT_HEADER, "tok");
        let (resp, _) = net.send_http(&client(), req).unwrap();
        assert_eq!(resp.status, StatusCode::OK, "origin must not see the taint");
        let snap = store.snapshot();
        let flows = snap.all();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].class, FlowClass::Engine);
        assert_eq!(flows[0].host, "site.com");
        assert_eq!(flows[0].time_us, 5_000_000);
        assert!(flows[0].request_headers.iter().all(|(n, _)| n != TAINT_HEADER));
    }

    #[test]
    fn untainted_flow_recorded_as_native() {
        let (net, store) = testbed();
        let req = Request::get(Url::parse("https://site.com/api").unwrap());
        net.send_http(&client(), req).unwrap();
        let snap = store.snapshot();
        assert_eq!(snap.native().len(), 1);
        assert_eq!(snap.engine().len(), 0);
    }

    #[test]
    fn upstream_failure_becomes_502_and_is_recorded() {
        let (net, store) = testbed();
        net.register_host("dead.com", IpAddr::new(23, 20, 0, 50)); // no endpoint
        let req = Request::get(Url::parse("https://dead.com/").unwrap());
        let (resp, _) = net.send_http(&client(), req).unwrap();
        assert_eq!(resp.status, StatusCode::BAD_GATEWAY);
        let snap = store.snapshot();
        let flows = snap.all();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].status, 502);
    }

    #[test]
    fn pinned_flow_recorded_as_opaque() {
        let (net, store) = testbed();
        let mut c = client();
        c.pins = PinPolicy::pin(&["site.com"]);
        let req = Request::get(Url::parse("https://site.com/secret").unwrap());
        assert_eq!(net.send_http(&c, req).unwrap_err(), NetError::PinnedBypass);
        let snap = store.snapshot();
        let flows = snap.all();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].class, FlowClass::PinnedOpaque);
        assert_eq!(flows[0].status, 0);
        // The URL path is NOT observable on pinned flows.
        assert_eq!(flows[0].url, "https://site.com/");
    }

    #[test]
    fn flow_ids_are_sequential() {
        let (net, store) = testbed();
        for i in 0..3 {
            let req =
                Request::get(Url::parse(&format!("https://site.com/{i}")).unwrap());
            net.send_http(&client(), req).unwrap();
        }
        let ids: Vec<u64> = store.snapshot().iter().map(|f| f.id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }
}
