//! A Chrome-DevTools-Protocol-like session.
//!
//! Panoptes uses CDP two ways (§2.1, §2.3): it "instruments the page
//! object to navigate to a specific domain" (avoiding the address bar so
//! auto-complete cannot pollute the traces), and it intercepts "all HTTP
//! requests initiated by the website" to taint them. The session here
//! mirrors that shape: typed commands, an event stream the engine feeds
//! (request-will-be-sent, DOMContentLoaded), and the taint tap.

use std::sync::Arc;

use panoptes_http::url::Url;
use panoptes_simnet::clock::SimInstant;

use crate::tap::RequestTap;

/// A CDP command issued by the harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdpCommand {
    /// `Network.enable` — start delivering network events.
    NetworkEnable,
    /// `Fetch.enable` — request interception (the taint path).
    FetchEnable,
    /// `Page.navigate` — drive the page object to a URL.
    PageNavigate(String),
}

/// An event delivered by the browser to the session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdpEvent {
    /// `Network.requestWillBeSent` — the engine is about to fetch `url`.
    RequestWillBeSent {
        /// Serialized request URL.
        url: String,
        /// Virtual time of the event.
        time: SimInstant,
    },
    /// `Page.domContentEventFired`.
    DomContentLoaded {
        /// Virtual time the event fired.
        time: SimInstant,
    },
    /// `Page.loadEventFired`.
    Load {
        /// Virtual time the event fired.
        time: SimInstant,
    },
}

/// One CDP session against one browser instance.
pub struct CdpSession {
    tap: Arc<dyn RequestTap>,
    commands: Vec<CdpCommand>,
    events: Vec<CdpEvent>,
}

impl CdpSession {
    /// Opens a session with the given request tap (the taint injector)
    /// and enables the network/fetch domains, as the harness does first
    /// thing.
    pub fn open(tap: Arc<dyn RequestTap>) -> CdpSession {
        CdpSession {
            tap,
            commands: vec![CdpCommand::NetworkEnable, CdpCommand::FetchEnable],
            events: Vec::new(),
        }
    }

    /// Issues `Page.navigate` — the navigation never touches the address
    /// bar, so auto-complete traffic cannot pollute the capture (§2.1).
    pub fn navigate(&mut self, url: &Url) {
        self.commands.push(CdpCommand::PageNavigate(url.as_str().to_owned()));
    }

    /// The tap the engine must run every website-initiated request
    /// through.
    pub fn tap(&self) -> Arc<dyn RequestTap> {
        self.tap.clone()
    }

    /// Called by the engine to deliver an event.
    pub fn emit(&mut self, event: CdpEvent) {
        self.events.push(event);
    }

    /// Time `DOMContentLoaded` fired, if it has.
    pub fn dom_content_loaded_at(&self) -> Option<SimInstant> {
        self.events.iter().find_map(|e| match e {
            CdpEvent::DomContentLoaded { time } => Some(*time),
            _ => None,
        })
    }

    /// Every command issued so far (diagnostics / tests).
    pub fn commands(&self) -> &[CdpCommand] {
        &self.commands
    }

    /// Every event received so far.
    pub fn events(&self) -> &[CdpEvent] {
        &self.events
    }

    /// Number of `requestWillBeSent` events observed.
    pub fn request_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, CdpEvent::RequestWillBeSent { .. }))
            .count()
    }

    /// Clears events between visits.
    pub fn reset_events(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tap::TaintInjector;

    fn session() -> CdpSession {
        CdpSession::open(Arc::new(TaintInjector::new("x-panoptes-taint", "t")))
    }

    #[test]
    fn open_enables_domains() {
        let s = session();
        assert_eq!(s.commands(), &[CdpCommand::NetworkEnable, CdpCommand::FetchEnable]);
    }

    #[test]
    fn navigate_is_recorded() {
        let mut s = session();
        s.navigate(&Url::parse("https://www.youtube.com/").unwrap());
        assert_eq!(
            s.commands().last(),
            Some(&CdpCommand::PageNavigate("https://www.youtube.com/".to_string()))
        );
    }

    #[test]
    fn dom_content_loaded_extraction() {
        let mut s = session();
        assert_eq!(s.dom_content_loaded_at(), None);
        s.emit(CdpEvent::RequestWillBeSent { url: "https://a/".into(), time: SimInstant(10) });
        s.emit(CdpEvent::DomContentLoaded { time: SimInstant(900_000) });
        s.emit(CdpEvent::Load { time: SimInstant(1_200_000) });
        assert_eq!(s.dom_content_loaded_at(), Some(SimInstant(900_000)));
        assert_eq!(s.request_count(), 1);
        s.reset_events();
        assert!(s.events().is_empty());
    }

    #[test]
    fn tap_is_shared() {
        let s = session();
        let tap = s.tap();
        let mut req =
            panoptes_http::Request::get(Url::parse("https://e.com/").unwrap());
        tap.on_engine_request(&mut req);
        assert!(req.headers.contains("x-panoptes-taint"));
    }
}
