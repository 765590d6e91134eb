//! The composable behaviour-model space.
//!
//! A [`BehaviorModel`] describes a browser as a point in a space of
//! semantic axes — phone-home cadence (the startup / per-visit / idle
//! call catalogues), the ad-/analytics-SDK set it embeds, DoH usage,
//! certificate pinning, incognito semantics, persistent-identifier
//! policy and consent handling. The paper's 15 browsers are *pinned
//! points* in this space (`profiles/`, re-exported via
//! [`crate::registry`]); [`crate::space::BrowserSpace`] samples
//! arbitrarily many more coherent points from the same axes.
//!
//! Three contracts hold everything together:
//!
//! 1. **Materialization is lossless**: [`BehaviorModel::materialize`]
//!    maps a model onto a runtime [`BrowserProfile`] field-for-field, so
//!    the pinned points reproduce the paper's byte-identical output.
//! 2. **Canonical text is deterministic**: [`BehaviorModel::canonical_text`]
//!    renders the model into a stable, line-oriented fixture format —
//!    the golden conformance suite diffs these texts to catch any
//!    accidental drift of a paper browser.
//! 3. **Coherence is checkable**: [`BehaviorModel::coherence_errors`]
//!    enforces the cross-axis invariants (no incognito-respecting calls
//!    without an incognito mode, identifier channels require an
//!    identifier policy, pinned domains must actually be contacted, …)
//!    that the sampler guarantees by construction.

use std::collections::BTreeSet;

use panoptes_instrument::tap::Instrumentation;
use panoptes_simnet::dns::{DohProvider, ResolverKind};

use crate::profile::{BrowserProfile, IdleProfile, NativeCall, Payload, PiiField};

/// Incognito semantics axis (footnote 5: Yandex and QQ offer none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncognitoAxis {
    /// The browser has no private-browsing mode at all.
    NotOffered,
    /// A private mode exists; whether individual native calls respect it
    /// is recorded per call (the paper's §3.2 finding is that the
    /// history leaks mostly don't).
    Offered,
}

/// Persistent-identifier policy axis (§3.2's "tracked even over Tor").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IdentifierAxis {
    /// No per-install identifier survives a cookie wipe.
    Ephemeral,
    /// A per-install identifier is minted once and stored under `key`
    /// (Yandex's `yandexuid`, Opera's `operaId`).
    Persistent {
        /// Storage key (also the wire parameter name for id channels).
        key: String,
    },
}

/// Consent-handling axis (§2.1 wizard + Listing 1's
/// `"userConsent":"false"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsentAxis {
    /// Declining the wizard's telemetry prompt silences telemetry.
    Honored,
    /// Consent is recorded but telemetry flows regardless.
    Ignored,
}

/// A browser as a point in the behaviour-model space.
#[derive(Debug, Clone, PartialEq)]
pub struct BehaviorModel {
    /// Display name.
    pub name: String,
    /// Version string.
    pub version: String,
    /// Android package name.
    pub package: String,
    /// Instrumentation hook (§2.1/§2.3).
    pub instrumentation: Instrumentation,
    /// Incognito semantics.
    pub incognito: IncognitoAxis,
    /// DNS mechanism (stub vs DoH provider).
    pub resolver: ResolverKind,
    /// Engine-side filterlist enforcement.
    pub adblock: bool,
    /// Races HTTP/3 first.
    pub attempts_h3: bool,
    /// Registrable domains with certificate pinning (footnote 3).
    pub pinned_domains: Vec<String>,
    /// Table 2 PII row.
    pub pii: Vec<PiiField>,
    /// Persistent-identifier policy.
    pub identifier: IdentifierAxis,
    /// Host of the injected JS collector, if any (UC International).
    pub js_collector: Option<String>,
    /// Consent handling.
    pub consent: ConsentAxis,
    /// Startup call catalogue.
    pub startup: Vec<NativeCall>,
    /// Per-visit call catalogue.
    pub per_visit: Vec<NativeCall>,
    /// Idle-time catalogue.
    pub idle: IdleProfile,
}

impl BehaviorModel {
    /// A new model with the quietest defaults: CDP-instrumented,
    /// incognito offered, stub DNS, no adblock, no h3, no pins, no PII,
    /// ephemeral identifiers, no collector, consent ignored, and empty
    /// catalogues. The builder methods below switch individual axes.
    pub fn new(name: &str, version: &str, package: &str) -> BehaviorModel {
        BehaviorModel {
            name: name.to_string(),
            version: version.to_string(),
            package: package.to_string(),
            instrumentation: Instrumentation::Cdp,
            incognito: IncognitoAxis::Offered,
            resolver: ResolverKind::LocalStub,
            adblock: false,
            attempts_h3: false,
            pinned_domains: Vec::new(),
            pii: Vec::new(),
            identifier: IdentifierAxis::Ephemeral,
            js_collector: None,
            consent: ConsentAxis::Ignored,
            startup: Vec::new(),
            per_visit: Vec::new(),
            idle: IdleProfile::QUIET,
        }
    }

    /// Sets the instrumentation hook.
    pub fn instrument(mut self, how: Instrumentation) -> BehaviorModel {
        self.instrumentation = how;
        self
    }

    /// Removes the incognito mode (footnote 5).
    pub fn no_incognito(mut self) -> BehaviorModel {
        self.incognito = IncognitoAxis::NotOffered;
        self
    }

    /// Resolves over DoH via `provider`.
    pub fn doh(mut self, provider: DohProvider) -> BehaviorModel {
        self.resolver = ResolverKind::Doh(provider);
        self
    }

    /// Enables the engine-side filterlist (CocCoc).
    pub fn adblocking(mut self) -> BehaviorModel {
        self.adblock = true;
        self
    }

    /// Races HTTP/3 first.
    pub fn h3(mut self) -> BehaviorModel {
        self.attempts_h3 = true;
        self
    }

    /// Pins certificates for a registrable domain.
    pub fn pins(mut self, domain: &str) -> BehaviorModel {
        self.pinned_domains.push(domain.to_string());
        self
    }

    /// Declares the Table 2 PII fields this vendor transmits.
    pub fn leaks(mut self, fields: &[PiiField]) -> BehaviorModel {
        self.pii = fields.to_vec();
        self
    }

    /// Mints a persistent per-install identifier under `key`.
    pub fn persistent_id(mut self, key: &str) -> BehaviorModel {
        self.identifier = IdentifierAxis::Persistent { key: key.to_string() };
        self
    }

    /// Injects a JS collector exfiltrating via engine traffic.
    pub fn injects_js(mut self, collector_host: &str) -> BehaviorModel {
        self.js_collector = Some(collector_host.to_string());
        self
    }

    /// Declining telemetry in the wizard actually silences telemetry.
    pub fn honors_consent(mut self) -> BehaviorModel {
        self.consent = ConsentAxis::Honored;
        self
    }

    /// Sets the startup catalogue.
    pub fn startup(mut self, calls: Vec<NativeCall>) -> BehaviorModel {
        self.startup = calls;
        self
    }

    /// Sets the per-visit catalogue.
    pub fn per_visit(mut self, calls: Vec<NativeCall>) -> BehaviorModel {
        self.per_visit = calls;
        self
    }

    /// Sets the idle burst catalogue.
    pub fn idle_burst(mut self, calls: Vec<NativeCall>) -> BehaviorModel {
        self.idle.burst = calls;
        self
    }

    /// Sets the idle periodic catalogue.
    pub fn idle_periodic(mut self, entries: Vec<(u64, NativeCall)>) -> BehaviorModel {
        self.idle.periodic = entries;
        self
    }

    /// The persistent-identifier storage key, if the policy mints one.
    pub fn persistent_key(&self) -> Option<&str> {
        match &self.identifier {
            IdentifierAxis::Ephemeral => None,
            IdentifierAxis::Persistent { key } => Some(key),
        }
    }

    /// Every call in the model, in catalogue order.
    pub fn all_calls(&self) -> impl Iterator<Item = &NativeCall> {
        self.startup
            .iter()
            .chain(self.per_visit.iter())
            .chain(self.idle.burst.iter())
            .chain(self.idle.periodic.iter().map(|(_, c)| c))
    }

    /// The set of hosts the model's native catalogue contacts.
    pub fn contacted_hosts(&self) -> BTreeSet<&str> {
        self.all_calls().map(|c| c.host.as_str()).collect()
    }

    /// Materializes the model into a runtime [`BrowserProfile`].
    pub fn materialize(&self) -> BrowserProfile {
        BrowserProfile {
            name: self.name.clone(),
            version: self.version.clone(),
            package: self.package.clone(),
            instrumentation: self.instrumentation,
            supports_incognito: self.incognito == IncognitoAxis::Offered,
            resolver: self.resolver,
            adblock: self.adblock,
            attempts_h3: self.attempts_h3,
            pinned_domains: self.pinned_domains.clone(),
            pii_fields: self.pii.clone(),
            persistent_id_key: self.persistent_key().map(str::to_string),
            injects_js_collector: self.js_collector.clone(),
            honors_telemetry_consent: self.consent == ConsentAxis::Honored,
            startup: self.startup.clone(),
            per_visit: self.per_visit.clone(),
            idle: self.idle.clone(),
        }
    }

    /// Cross-axis coherence invariants. Returns one message per
    /// violation; an empty vector means the point is coherent. All 15
    /// pinned models are coherent, and the sampler only emits coherent
    /// points — the property tests assert both.
    pub fn coherence_errors(&self) -> Vec<String> {
        let mut errors = Vec::new();
        if self.name.is_empty() || self.version.is_empty() || self.package.is_empty() {
            errors.push("identity fields must be non-empty".to_string());
        }
        if !self.package.contains('.') {
            errors.push(format!("package {:?} is not a dotted Android package", self.package));
        }
        // Incognito semantics: without a private mode there is nothing a
        // call could respect.
        if self.incognito == IncognitoAxis::NotOffered {
            if let Some(call) = self.all_calls().find(|c| c.respects_incognito) {
                errors.push(format!(
                    "{} respects incognito but the browser offers no incognito mode",
                    call.host
                ));
            }
        }
        // Strictly private browsers (every native call pauses in
        // incognito) must not mint persistent identifiers.
        let has_calls = self.all_calls().next().is_some();
        let strictly_private = self.incognito == IncognitoAxis::Offered
            && has_calls
            && self.all_calls().all(|c| c.respects_incognito);
        if strictly_private && self.persistent_key().is_some() {
            errors.push(
                "a strictly incognito-respecting browser must not persist identifiers"
                    .to_string(),
            );
        }
        // Identifier channels need an identifier policy with a matching
        // wire parameter (Yandex: key == id_param == "yandexuid").
        for call in self.all_calls() {
            if let Payload::HostnamePlusId { id_param, .. } = &call.payload {
                match self.persistent_key() {
                    None => errors.push(format!(
                        "{} sends an identifier channel but the model is ephemeral",
                        call.host
                    )),
                    Some(key) if key != id_param => errors.push(format!(
                        "{} identifier parameter {:?} != persistent key {:?}",
                        call.host, id_param, key
                    )),
                    Some(_) => {}
                }
            }
        }
        // Pinned domains must be domains the catalogue actually contacts
        // (pinning a never-contacted domain models nothing).
        let hosts = self.contacted_hosts();
        for pinned in &self.pinned_domains {
            let contacted = hosts
                .iter()
                .any(|h| *h == pinned || h.ends_with(&format!(".{pinned}")));
            if !contacted {
                errors.push(format!("pinned domain {pinned} is never contacted"));
            }
        }
        if let Some(collector) = &self.js_collector {
            if collector.is_empty() {
                errors.push("js collector host must be non-empty".to_string());
            }
        }
        errors
    }

    // ---- canonical text (golden fixtures) -------------------------------

    /// Renders the model into the canonical line-oriented fixture
    /// format. Deterministic: equal models render byte-identical text.
    pub fn canonical_text(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("# BehaviorModel v1\n");
        out.push_str(&format!("name: {}\n", self.name));
        out.push_str(&format!("version: {}\n", self.version));
        out.push_str(&format!("package: {}\n", self.package));
        out.push_str(&format!(
            "instrumentation: {}\n",
            instrumentation_slug(self.instrumentation)
        ));
        out.push_str(&format!(
            "incognito: {}\n",
            match self.incognito {
                IncognitoAxis::NotOffered => "not-offered",
                IncognitoAxis::Offered => "offered",
            }
        ));
        out.push_str(&format!("resolver: {}\n", resolver_slug(self.resolver)));
        out.push_str(&format!("adblock: {}\n", self.adblock));
        out.push_str(&format!("attempts-h3: {}\n", self.attempts_h3));
        out.push_str(&format!(
            "pinned-domains: {}\n",
            if self.pinned_domains.is_empty() {
                "(none)".to_string()
            } else {
                self.pinned_domains.join(" ")
            }
        ));
        out.push_str(&format!(
            "pii: {}\n",
            if self.pii.is_empty() {
                "(none)".to_string()
            } else {
                self.pii.iter().map(|f| f.slug()).collect::<Vec<_>>().join(" ")
            }
        ));
        out.push_str(&format!(
            "persistent-id: {}\n",
            self.persistent_key().unwrap_or("(ephemeral)")
        ));
        out.push_str(&format!(
            "js-collector: {}\n",
            self.js_collector.as_deref().unwrap_or("(none)")
        ));
        out.push_str(&format!(
            "consent: {}\n",
            match self.consent {
                ConsentAxis::Honored => "honored",
                ConsentAxis::Ignored => "ignored",
            }
        ));
        out.push_str("startup:\n");
        for call in &self.startup {
            out.push_str(&render_call(call, None));
        }
        out.push_str("per-visit:\n");
        for call in &self.per_visit {
            out.push_str(&render_call(call, None));
        }
        out.push_str("idle-burst:\n");
        for call in &self.idle.burst {
            out.push_str(&render_call(call, None));
        }
        out.push_str("idle-periodic:\n");
        for (interval, call) in &self.idle.periodic {
            out.push_str(&render_call(call, Some(*interval)));
        }
        out
    }
}

/// One catalogue line of the canonical fixture format.
fn render_call(call: &NativeCall, interval: Option<u64>) -> String {
    let mut line = String::from("  ");
    if let Some(secs) = interval {
        line.push_str(&format!("every {secs}s "));
    }
    line.push_str(call.method.as_str());
    line.push(' ');
    line.push_str(&call.host);
    line.push_str(&call.path);
    match &call.payload {
        Payload::None => {}
        Payload::FullUrlBase64 { param } => {
            line.push_str(&format!(" full-url-base64({param})"));
        }
        Payload::HostnamePlusId { host_param, id_param } => {
            line.push_str(&format!(" hostname+id({host_param},{id_param})"));
        }
        Payload::FullUrlPlain { param } => {
            line.push_str(&format!(" full-url-plain({param})"));
        }
        Payload::DomainOnly { param } => {
            line.push_str(&format!(" domain-only({param})"));
        }
        Payload::AdSdkJson => line.push_str(" ad-sdk-json"),
        Payload::Telemetry => line.push_str(" telemetry"),
    }
    if call.body_pad > 0 {
        line.push_str(&format!(" pad={}", call.body_pad));
    }
    if call.count != 1 {
        line.push_str(&format!(" x{}", call.count));
    }
    if call.respects_incognito {
        line.push_str(" incognito-respecting");
    }
    line.push('\n');
    line
}

fn instrumentation_slug(i: Instrumentation) -> &'static str {
    match i {
        Instrumentation::Cdp => "cdp",
        Instrumentation::FridaWebView => "frida-webview",
        Instrumentation::FridaInternalApi => "frida-internal-api",
    }
}

fn resolver_slug(r: ResolverKind) -> String {
    match r {
        ResolverKind::LocalStub => "stub".to_string(),
        ResolverKind::Doh(provider) => format!("doh:{}", provider.host()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_model() -> BehaviorModel {
        BehaviorModel::new("Testling", "1.2.3", "com.example.testling")
            .doh(DohProvider::Google)
            .h3()
            .leaks(&[PiiField::Locale, PiiField::Resolution])
            .persistent_id("testuid")
            .startup(vec![NativeCall::ping("update.example.com", "/check")])
            .per_visit(vec![
                NativeCall::ping("api.example.com", "/v1/history")
                    .carrying(Payload::hostname_plus_id("host", "testuid")),
                NativeCall::ping("mc.example.com", "/watch")
                    .via_post()
                    .carrying(Payload::Telemetry)
                    .padded(100)
                    .times(2),
            ])
            .idle_burst(vec![NativeCall::ping("update.example.com", "/check")])
            .idle_periodic(vec![(45, NativeCall::ping("mc.example.com", "/beat"))])
    }

    #[test]
    fn materialize_maps_every_axis() {
        let profile = sample_model().materialize();
        assert_eq!(profile.name, "Testling");
        assert!(profile.supports_incognito);
        assert_eq!(profile.resolver, ResolverKind::Doh(DohProvider::Google));
        assert!(profile.attempts_h3);
        assert_eq!(profile.persistent_id_key.as_deref(), Some("testuid"));
        assert_eq!(profile.per_visit.len(), 2);
        assert_eq!(profile.idle.periodic.len(), 1);
    }

    #[test]
    fn sample_model_is_coherent() {
        assert_eq!(sample_model().coherence_errors(), Vec::<String>::new());
    }

    #[test]
    fn incoherent_models_are_caught() {
        // Identifier channel without an identifier policy.
        let mut m = sample_model();
        m.identifier = IdentifierAxis::Ephemeral;
        assert!(!m.coherence_errors().is_empty());

        // Incognito-respecting call without an incognito mode.
        let m = BehaviorModel::new("X", "1", "com.x.browser")
            .no_incognito()
            .per_visit(vec![NativeCall::ping("a.com", "/b").respecting_incognito()]);
        assert!(!m.coherence_errors().is_empty());

        // Pinned domain that is never contacted.
        let m = BehaviorModel::new("X", "1", "com.x.browser").pins("never.example");
        assert!(!m.coherence_errors().is_empty());

        // Strictly private browsers must not persist identifiers.
        let m = BehaviorModel::new("X", "1", "com.x.browser")
            .persistent_id("xid")
            .per_visit(vec![NativeCall::ping("a.com", "/b").respecting_incognito()]);
        assert!(!m.coherence_errors().is_empty());
    }

    #[test]
    fn canonical_text_is_deterministic_and_readable() {
        let a = sample_model().canonical_text();
        let b = sample_model().canonical_text();
        assert_eq!(a, b);
        assert!(a.starts_with("# BehaviorModel v1\n"));
        assert!(a.contains("persistent-id: testuid\n"));
        assert!(a.contains("  GET api.example.com/v1/history hostname+id(host,testuid)\n"));
        assert!(a.contains("  POST mc.example.com/watch telemetry pad=100 x2\n"));
        assert!(a.contains("  every 45s GET mc.example.com/beat\n"));
    }
}
