//! The declarative browser-profile model.
//!
//! A [`BrowserProfile`] is pure data: what the app is (Table 1 of the
//! paper), how it can be instrumented (§2.1/§2.3), how its engine is
//! configured, and — the core of the reproduction — the catalogue of
//! native requests it sends at startup, per page visit, and while idle.
//! `payload.rs` turns the catalogue into concrete [`panoptes_http::Request`]s.
//!
//! Profiles are *materialized* from the composable behaviour-model
//! space ([`crate::model::BehaviorModel`]): the paper's 15 browsers are
//! pinned points in that space, and the sampler
//! ([`crate::space::BrowserSpace`]) mints arbitrarily many more. All
//! profile data is therefore owned (`String`/`Vec`), not `'static`.

use panoptes_http::method::Method;
use panoptes_instrument::tap::Instrumentation;
use panoptes_simnet::dns::ResolverKind;

/// Device/user attributes a browser may leak — the exact columns of the
/// paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PiiField {
    /// Device type (tablet/phone).
    DeviceType,
    /// Device manufacturer.
    DeviceManufacturer,
    /// IANA timezone.
    Timezone,
    /// Screen resolution.
    Resolution,
    /// LAN address.
    LocalIp,
    /// Screen density.
    Dpi,
    /// Whether the device is rooted.
    RootedStatus,
    /// BCP-47 locale.
    Locale,
    /// Country code.
    Country,
    /// Latitude/longitude fix.
    Location,
    /// Metered/unmetered connection.
    ConnectionType,
    /// Wi-Fi vs cellular.
    NetworkType,
}

impl PiiField {
    /// All twelve fields in Table 2 column order.
    pub const ALL: [PiiField; 12] = [
        PiiField::DeviceType,
        PiiField::DeviceManufacturer,
        PiiField::Timezone,
        PiiField::Resolution,
        PiiField::LocalIp,
        PiiField::Dpi,
        PiiField::RootedStatus,
        PiiField::Locale,
        PiiField::Country,
        PiiField::Location,
        PiiField::ConnectionType,
        PiiField::NetworkType,
    ];

    /// Column header used in reports.
    pub fn label(self) -> &'static str {
        match self {
            PiiField::DeviceType => "Device Type",
            PiiField::DeviceManufacturer => "Device Manuf.",
            PiiField::Timezone => "Timezone",
            PiiField::Resolution => "Resolution",
            PiiField::LocalIp => "Local IP",
            PiiField::Dpi => "DPI",
            PiiField::RootedStatus => "Rooted Status",
            PiiField::Locale => "Locale",
            PiiField::Country => "Country",
            PiiField::Location => "Location (lat & long)",
            PiiField::ConnectionType => "Connection Type",
            PiiField::NetworkType => "Network Type",
        }
    }

    /// Stable kebab-case identifier used in the canonical fixtures.
    pub fn slug(self) -> &'static str {
        match self {
            PiiField::DeviceType => "device-type",
            PiiField::DeviceManufacturer => "device-manufacturer",
            PiiField::Timezone => "timezone",
            PiiField::Resolution => "resolution",
            PiiField::LocalIp => "local-ip",
            PiiField::Dpi => "dpi",
            PiiField::RootedStatus => "rooted-status",
            PiiField::Locale => "locale",
            PiiField::Country => "country",
            PiiField::Location => "location",
            PiiField::ConnectionType => "connection-type",
            PiiField::NetworkType => "network-type",
        }
    }
}

/// What a native request carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Nothing interesting — plain ping / content fetch.
    None,
    /// The full visited URL, Base64-encoded in a query parameter — the
    /// Yandex `sba.yandex.net` pattern (§3.2).
    FullUrlBase64 {
        /// Query parameter name carrying the encoded URL.
        param: String,
    },
    /// The visited hostname plus a persistent per-install identifier —
    /// the Yandex `api.browser.yandex.ru` pattern (§3.2).
    HostnamePlusId {
        /// Query parameter carrying the hostname.
        host_param: String,
        /// Query parameter carrying the persistent identifier.
        id_param: String,
    },
    /// The full visited URL in the clear — the QQ pattern (§3.2).
    FullUrlPlain {
        /// Query parameter carrying the URL.
        param: String,
    },
    /// Only the visited registrable domain — the Edge→Bing and
    /// Opera→Sitecheck pattern (§3.2).
    DomainOnly {
        /// Query parameter carrying the domain.
        param: String,
    },
    /// A JSON ad-SDK body carrying PII fields (Listing 1's
    /// `s-odx.oleads.com` shape). Fields come from the profile's
    /// `pii_fields`.
    AdSdkJson,
    /// Vendor telemetry with PII attached as query parameters.
    Telemetry,
}

impl Payload {
    /// The Yandex full-URL-in-Base64 channel.
    pub fn full_url_base64(param: &str) -> Payload {
        Payload::FullUrlBase64 { param: param.to_string() }
    }

    /// The hostname-plus-persistent-identifier channel.
    pub fn hostname_plus_id(host_param: &str, id_param: &str) -> Payload {
        Payload::HostnamePlusId {
            host_param: host_param.to_string(),
            id_param: id_param.to_string(),
        }
    }

    /// The QQ clear-text full-URL channel.
    pub fn full_url_plain(param: &str) -> Payload {
        Payload::FullUrlPlain { param: param.to_string() }
    }

    /// The Edge/Opera domain-only channel.
    pub fn domain_only(param: &str) -> Payload {
        Payload::DomainOnly { param: param.to_string() }
    }

    /// True for the payloads that report the visited page at any
    /// granularity.
    pub fn reports_history(&self) -> bool {
        matches!(
            self,
            Payload::FullUrlBase64 { .. }
                | Payload::FullUrlPlain { .. }
                | Payload::HostnamePlusId { .. }
                | Payload::DomainOnly { .. }
        )
    }
}

/// One native request in a browser's catalogue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NativeCall {
    /// Destination host.
    pub host: String,
    /// Destination path.
    pub path: String,
    /// HTTP method.
    pub method: Method,
    /// What the request carries.
    pub payload: Payload,
    /// Extra body padding in bytes (volume calibration — Figure 4; the
    /// QQ telemetry bodies are what make its native volume 42% of the
    /// engine's).
    pub body_pad: u32,
    /// How many copies are sent per trigger (request-count calibration —
    /// Figure 2).
    pub count: u32,
    /// Whether the call is suppressed in incognito mode. The paper found
    /// the history-leaking browsers keep leaking in incognito, so their
    /// calls set `false`.
    pub respects_incognito: bool,
}

impl NativeCall {
    /// A simple GET ping. The other catalogue shapes compose onto this
    /// with the builder methods below.
    pub fn ping(host: &str, path: &str) -> NativeCall {
        NativeCall {
            host: host.to_string(),
            path: path.to_string(),
            method: Method::Get,
            payload: Payload::None,
            body_pad: 0,
            count: 1,
            respects_incognito: false,
        }
    }

    /// Attaches a payload to the call.
    pub fn carrying(mut self, payload: Payload) -> NativeCall {
        self.payload = payload;
        self
    }

    /// Sends the call as a POST.
    pub fn via_post(mut self) -> NativeCall {
        self.method = Method::Post;
        self
    }

    /// Pads the body by `bytes` (forces a POST on the wire).
    pub fn padded(mut self, bytes: u32) -> NativeCall {
        self.body_pad = bytes;
        self
    }

    /// Sends `n` copies per trigger.
    pub fn times(mut self, n: u32) -> NativeCall {
        self.count = n;
        self
    }

    /// Suppresses the call in incognito mode.
    pub fn respecting_incognito(mut self) -> NativeCall {
        self.respects_incognito = true;
        self
    }
}

/// Shape of a browser's idle-time chatter (Figure 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdleProfile {
    /// Start-page refresh burst fired with exponentially increasing gaps
    /// over the first minute (favicons, thumbnails, DNS warmup — the
    /// paper's explanation for the early exponential growth).
    pub burst: Vec<NativeCall>,
    /// Steady-state pings: `(interval_seconds, call)` — the plateau. A
    /// dense interval (Opera's news feed) produces the linear curve the
    /// paper singles out.
    pub periodic: Vec<(u64, NativeCall)>,
}

impl IdleProfile {
    /// A silent browser.
    pub const QUIET: IdleProfile = IdleProfile { burst: Vec::new(), periodic: Vec::new() };
}

/// A complete browser model, materialized and ready to launch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BrowserProfile {
    /// Display name (Table 1).
    pub name: String,
    /// Version measured by the paper (Table 1).
    pub version: String,
    /// Android package name.
    pub package: String,
    /// How Panoptes instruments it (§2.1/§2.3).
    pub instrumentation: Instrumentation,
    /// Whether the browser offers an incognito mode (Yandex and QQ do
    /// not — footnote 5).
    pub supports_incognito: bool,
    /// Name-resolution mechanism (§3.2: 8 DoH users, 7 stub users).
    pub resolver: ResolverKind,
    /// Engine-side easylist enforcement (CocCoc).
    pub adblock: bool,
    /// Whether the engine races HTTP/3 (QUIC) first.
    pub attempts_h3: bool,
    /// Domains the app pins certificates for (these flows escape the
    /// MITM — footnote 3).
    pub pinned_domains: Vec<String>,
    /// PII fields this vendor transmits (Table 2 row).
    pub pii_fields: Vec<PiiField>,
    /// Key under which the vendor stores its persistent identifier, if
    /// it uses one (Yandex).
    pub persistent_id_key: Option<String>,
    /// Whether the browser injects a JavaScript snippet into every page
    /// that exfiltrates via *engine* traffic (UC International, §3.2).
    pub injects_js_collector: Option<String>,
    /// Whether declining the setup wizard's telemetry prompt actually
    /// silences the vendor's [`Payload::Telemetry`] calls. The paper's
    /// Listing 1 shows the other case: Opera's ad SDK fires with
    /// `"userConsent":"false"` — consent recorded, not honoured.
    pub honors_telemetry_consent: bool,
    /// Native requests at app launch.
    pub startup: Vec<NativeCall>,
    /// Native requests on every page visit.
    pub per_visit: Vec<NativeCall>,
    /// Idle-time behaviour.
    pub idle: IdleProfile,
}

impl BrowserProfile {
    /// True when this browser reports the page the user visits (any
    /// granularity) to a remote server.
    pub fn reports_history(&self) -> bool {
        self.per_visit.iter().any(|c| c.payload.reports_history())
            || self.injects_js_collector.is_some()
    }

    /// True when the browser leaks the *full URL* (path + query), the
    /// distinction §4 emphasizes over domain-only leaks.
    pub fn reports_full_url(&self) -> bool {
        self.per_visit.iter().any(|c| {
            matches!(c.payload, Payload::FullUrlBase64 { .. } | Payload::FullUrlPlain { .. })
        }) || self.injects_js_collector.is_some()
    }

    /// Whether the profile leaks a given Table 2 field.
    pub fn leaks(&self, field: PiiField) -> bool {
        self.pii_fields.contains(&field)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pii_all_has_twelve_distinct_labels() {
        let labels: Vec<&str> = PiiField::ALL.iter().map(|f| f.label()).collect();
        assert_eq!(labels.len(), 12);
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 12);
    }

    #[test]
    fn pii_slugs_are_distinct() {
        let mut slugs: Vec<&str> = PiiField::ALL.iter().map(|f| f.slug()).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), 12);
    }

    #[test]
    fn ping_constructor_defaults() {
        let call = NativeCall::ping("h.com", "/p");
        assert_eq!(call.method, Method::Get);
        assert_eq!(call.payload, Payload::None);
        assert_eq!(call.count, 1);
        assert!(!call.respects_incognito);
    }

    #[test]
    fn builder_methods_compose() {
        let call = NativeCall::ping("mc.example.com", "/watch")
            .via_post()
            .carrying(Payload::Telemetry)
            .padded(100)
            .times(2)
            .respecting_incognito();
        assert_eq!(call.method, Method::Post);
        assert_eq!(call.payload, Payload::Telemetry);
        assert_eq!(call.body_pad, 100);
        assert_eq!(call.count, 2);
        assert!(call.respects_incognito);
    }

    #[test]
    fn history_classification() {
        let leaky = vec![NativeCall::ping("sba.yandex.net", "/r")
            .carrying(Payload::full_url_base64("url"))];
        let profile = BrowserProfile {
            name: "Test".to_string(),
            version: "1".to_string(),
            package: "t".to_string(),
            instrumentation: Instrumentation::Cdp,
            supports_incognito: true,
            resolver: ResolverKind::LocalStub,
            adblock: false,
            attempts_h3: false,
            pinned_domains: Vec::new(),
            pii_fields: Vec::new(),
            persistent_id_key: None,
            injects_js_collector: None,
            honors_telemetry_consent: false,
            startup: Vec::new(),
            per_visit: leaky,
            idle: IdleProfile::QUIET,
        };
        assert!(profile.reports_history());
        assert!(profile.reports_full_url());
        let quiet = BrowserProfile { per_visit: Vec::new(), ..profile };
        assert!(!quiet.reports_history());
    }
}
