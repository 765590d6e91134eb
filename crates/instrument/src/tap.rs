//! The request-tap contract: how the instrumentation layer marks
//! website-initiated requests.
//!
//! §2.3: "for each intercepted request, we perform tainting by
//! piggybacking an additional custom HTTP header using the 'x-' prefix
//! that does not interfere with existing headers." The web engine calls
//! the active [`RequestTap`] for every request *it* initiates — and for
//! none of the requests the browser app initiates natively, which is the
//! entire measurement idea.

use panoptes_http::{Atom, Request};

/// Which instrumentation mechanism a browser supports (§2.1/§2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instrumentation {
    /// Chrome DevTools Protocol (Chromium-based browsers).
    Cdp,
    /// Frida hooks on the WebView's functions (browsers without CDP).
    FridaWebView,
    /// Frida hooks on an internal API (the UC International case).
    FridaInternalApi,
}

/// A callback invoked on every engine-initiated request.
pub trait RequestTap: Send + Sync {
    /// Inspect/modify an engine request before it leaves the device.
    fn on_engine_request(&self, request: &mut Request);
}

/// The taint injector: adds the campaign's `x-` header and token, both
/// atoms built once here. The paper's header is a static vocabulary
/// atom and the token is interned, so tainting a request is a pointer
/// copy and one reference-count bump.
pub struct TaintInjector {
    header: Atom,
    token: Atom,
}

impl TaintInjector {
    /// Builds an injector for `header: token`.
    pub fn new(header: &str, token: &str) -> TaintInjector {
        assert!(
            header.len() >= 2 && header[..2].eq_ignore_ascii_case("x-"),
            "taint header must use the x- prefix (paper §2.3)"
        );
        TaintInjector { header: Atom::intern(header), token: Atom::intern(token) }
    }

    /// The header name being injected.
    pub fn header(&self) -> &str {
        &self.header
    }

    /// The campaign token.
    pub fn token(&self) -> &str {
        &self.token
    }
}

impl RequestTap for TaintInjector {
    fn on_engine_request(&self, request: &mut Request) {
        // `set`, not `append`: re-navigations must not stack taints.
        request.headers.set(self.header.clone(), self.token.clone());
    }
}

/// A tap that does nothing — used for un-instrumented control runs.
pub struct NullTap;

impl RequestTap for NullTap {
    fn on_engine_request(&self, _request: &mut Request) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use panoptes_http::url::Url;

    #[test]
    fn injector_adds_header() {
        let tap = TaintInjector::new("x-panoptes-taint", "tok-1");
        let mut req = Request::get(Url::parse("https://e.com/").unwrap());
        tap.on_engine_request(&mut req);
        assert_eq!(req.headers.get("x-panoptes-taint"), Some("tok-1"));
    }

    #[test]
    fn injector_replaces_rather_than_stacks() {
        let tap = TaintInjector::new("x-panoptes-taint", "tok-1");
        let mut req = Request::get(Url::parse("https://e.com/").unwrap());
        tap.on_engine_request(&mut req);
        tap.on_engine_request(&mut req);
        assert_eq!(req.headers.get_all("x-panoptes-taint").count(), 1);
    }

    #[test]
    #[should_panic(expected = "x- prefix")]
    fn injector_requires_x_prefix() {
        TaintInjector::new("taint", "t");
    }

    #[test]
    fn null_tap_is_inert() {
        let mut req = Request::get(Url::parse("https://e.com/").unwrap());
        NullTap.on_engine_request(&mut req);
        assert!(req.headers.is_empty());
    }
}
