//! The taint-splitting addon — the paper's core methodological trick.
//!
//! §2.3: the instrumentation layer (CDP or Frida) piggybacks "an
//! additional custom HTTP header using the 'x-' prefix" on every request
//! the *website* initiates. When requests arrive at the proxy, the addon
//! "intercepts them at runtime, filters the tainted ones (i.e., requests
//! originated from the website) before removing the additional (custom)
//! header and forwarding them to their original destination. If a request
//! is not tainted, it means that the request was generated natively by
//! the browser app."
//!
//! The addon additionally verifies a per-campaign token so that a
//! malicious page (or browser) cannot masquerade native traffic as
//! engine traffic by forging the header — spoofed taints are counted and
//! classified `Native`.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::addon::{Addon, InterceptedRequest};
use crate::flow::FlowClass;

/// The custom header name the instrumentation injects. It is an entry
/// of the static header vocabulary (`panoptes_http::headers::vocab`), so
/// interning it yields a static atom and tainting a request touches no
/// shared reference count.
pub const TAINT_HEADER: &str = "x-panoptes-taint";

/// The taint-splitting addon.
pub struct TaintAddon {
    token: String,
    spoofed: AtomicU64,
    engine_seen: AtomicU64,
    native_seen: AtomicU64,
}

impl TaintAddon {
    /// Builds the addon for a campaign token.
    pub fn new(token: &str) -> TaintAddon {
        TaintAddon {
            token: token.to_string(),
            spoofed: AtomicU64::new(0),
            engine_seen: AtomicU64::new(0),
            native_seen: AtomicU64::new(0),
        }
    }

    /// Number of requests carrying a taint header with a wrong token.
    pub fn spoofed_count(&self) -> u64 {
        self.spoofed.load(Ordering::Relaxed)
    }

    /// Number of requests classified Engine.
    pub fn engine_count(&self) -> u64 {
        self.engine_seen.load(Ordering::Relaxed)
    }

    /// Number of requests classified Native.
    pub fn native_count(&self) -> u64 {
        self.native_seen.load(Ordering::Relaxed)
    }
}

impl Addon for TaintAddon {
    fn name(&self) -> &str {
        "taint-split"
    }

    fn on_request(&self, ir: &mut InterceptedRequest<'_>) {
        // Strip-and-verify in place: no owned copies of the removed
        // values are ever made.
        let (removed, all_match) =
            ir.request.headers.strip_matching(TAINT_HEADER, &self.token);
        if removed > 0 {
            panoptes_obs::count!("mitm.taint.stripped", Deterministic, removed as u64);
        }
        if removed == 0 {
            *ir.class = FlowClass::Native;
            self.native_seen.fetch_add(1, Ordering::Relaxed);
        } else if all_match {
            *ir.class = FlowClass::Engine;
            self.engine_seen.fetch_add(1, Ordering::Relaxed);
        } else {
            // Forged or stale token: keep it Native, count the anomaly.
            *ir.class = FlowClass::Native;
            self.spoofed.fetch_add(1, Ordering::Relaxed);
            self.native_seen.fetch_add(1, Ordering::Relaxed);
            panoptes_obs::count!("mitm.taint.spoofed", Deterministic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panoptes_http::netaddr::IpAddr;
    use panoptes_http::request::HttpVersion;
    use panoptes_http::url::Url;
    use panoptes_http::Request;
    use panoptes_simnet::clock::SimInstant;
    use panoptes_simnet::net::FlowContext;

    fn ctx() -> FlowContext {
        FlowContext {
            time: SimInstant::EPOCH,
            uid: 1,
            app_package: "a".into(),
            src_ip: IpAddr::new(10, 0, 0, 1),
            dst_ip: IpAddr::new(10, 0, 0, 2),
            dst_port: 443,
            sni: "x.com".into(),
            version: HttpVersion::H2,
            intercepted: true,
        }
    }

    fn classify(addon: &TaintAddon, req: &mut Request) -> FlowClass {
        let ctx = ctx();
        let mut class = FlowClass::Native;
        let mut verdict = crate::addon::Verdict::Forward;
        addon.on_request(&mut InterceptedRequest {
            ctx: &ctx,
            request: req,
            class: &mut class,
            verdict: &mut verdict,
        });
        class
    }

    #[test]
    fn tainted_request_becomes_engine_and_header_is_stripped() {
        let addon = TaintAddon::new("tok-123");
        let mut req = Request::get(Url::parse("https://x.com/a").unwrap())
            .with_header(TAINT_HEADER, "tok-123")
            .with_header("accept", "*/*");
        assert_eq!(classify(&addon, &mut req), FlowClass::Engine);
        assert!(!req.headers.contains(TAINT_HEADER), "taint must be stripped before upstream");
        assert_eq!(req.headers.get("accept"), Some("*/*"));
        assert_eq!(addon.engine_count(), 1);
    }

    #[test]
    fn untainted_request_is_native() {
        let addon = TaintAddon::new("tok-123");
        let mut req = Request::get(Url::parse("https://x.com/a").unwrap());
        assert_eq!(classify(&addon, &mut req), FlowClass::Native);
        assert_eq!(addon.native_count(), 1);
        assert_eq!(addon.spoofed_count(), 0);
    }

    #[test]
    fn forged_token_stays_native_and_is_counted() {
        let addon = TaintAddon::new("tok-123");
        let mut req = Request::get(Url::parse("https://x.com/a").unwrap())
            .with_header(TAINT_HEADER, "wrong");
        assert_eq!(classify(&addon, &mut req), FlowClass::Native);
        assert_eq!(addon.spoofed_count(), 1);
        assert!(!req.headers.contains(TAINT_HEADER), "forged taint still stripped");
    }

    #[test]
    fn taint_header_interns_to_its_static_vocabulary_atom() {
        let vocabulary = &panoptes_http::headers::vocab().taint;
        let interned = panoptes_http::Atom::intern(TAINT_HEADER);
        assert!(interned.is_static());
        assert!(panoptes_http::Atom::ptr_eq(&interned, vocabulary));
    }

    #[test]
    fn duplicate_valid_taints_are_engine() {
        let addon = TaintAddon::new("t");
        let mut req = Request::get(Url::parse("https://x.com/a").unwrap())
            .with_header(TAINT_HEADER, "t")
            .with_header(TAINT_HEADER, "t");
        assert_eq!(classify(&addon, &mut req), FlowClass::Engine);
    }
}
