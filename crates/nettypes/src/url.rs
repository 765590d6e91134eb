//! Absolute `http(s)` URL parsing.
//!
//! The analysis pipeline reasons about URLs at three granularities that the
//! paper distinguishes explicitly (§4: "we study separately domain name
//! leaking and full path leaking"):
//!
//! 1. the **full URL** (path + query — leaks the exact content consumed),
//! 2. the **hostname** (leaks which site was visited),
//! 3. the **registrable domain** (eTLD+1 — the unit used to decide whether
//!    a native request goes to a third party).

use crate::atom::Atom;
use crate::codec::percent::{
    percent_decode, percent_encode_component, percent_encode_component_len,
};

/// URL scheme; only the two the measured traffic uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Plain-text HTTP (default port 80).
    Http,
    /// HTTP over TLS (default port 443).
    Https,
}

impl Scheme {
    /// The scheme's default port.
    pub fn default_port(self) -> u16 {
        match self {
            Scheme::Http => 80,
            Scheme::Https => 443,
        }
    }

    /// Wire form, lowercase.
    pub fn as_str(self) -> &'static str {
        match self {
            Scheme::Http => "http",
            Scheme::Https => "https",
        }
    }
}

/// An error produced while parsing a URL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UrlError {
    /// Missing or unsupported scheme.
    BadScheme(String),
    /// Empty or malformed host.
    BadHost(String),
    /// Port was present but not a valid u16.
    BadPort(String),
}

impl std::fmt::Display for UrlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UrlError::BadScheme(s) => write!(f, "unsupported or missing scheme in {s:?}"),
            UrlError::BadHost(s) => write!(f, "malformed host in {s:?}"),
            UrlError::BadPort(s) => write!(f, "malformed port {s:?}"),
        }
    }
}

impl std::error::Error for UrlError {}

/// A parsed absolute URL.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Url {
    scheme: Scheme,
    /// Interned: hostnames repeat heavily across a study's requests, so
    /// cloning a URL bumps a reference count instead of copying the name.
    host: Atom,
    port: Option<u16>,
    path: String,
    query: Vec<(String, String)>,
    fragment: Option<String>,
}

impl Url {
    /// Parses an absolute URL. Host is lowercased; an empty path becomes
    /// `/`; the query is split into decoded key/value pairs.
    pub fn parse(input: &str) -> Result<Url, UrlError> {
        let (scheme, rest) = if let Some(r) = input.strip_prefix("https://") {
            (Scheme::Https, r)
        } else if let Some(r) = input.strip_prefix("http://") {
            (Scheme::Http, r)
        } else {
            return Err(UrlError::BadScheme(input.to_string()));
        };

        let (authority, after) = match rest.find(['/', '?', '#']) {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, ""),
        };
        if authority.is_empty() {
            return Err(UrlError::BadHost(input.to_string()));
        }
        let (host_raw, port) = match authority.rsplit_once(':') {
            Some((h, p)) if !p.is_empty() && p.bytes().all(|b| b.is_ascii_digit()) => {
                let port: u16 = p.parse().map_err(|_| UrlError::BadPort(p.to_string()))?;
                (h, Some(port))
            }
            Some((_, p)) if p.bytes().all(|b| b.is_ascii_digit()) && p.is_empty() => {
                return Err(UrlError::BadPort(String::new()))
            }
            _ => (authority, None),
        };
        let host = host_raw.to_ascii_lowercase();
        if host.is_empty()
            || !host
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'.' | b'_'))
        {
            return Err(UrlError::BadHost(input.to_string()));
        }

        // Split path / query / fragment.
        let (before_frag, fragment) = match after.split_once('#') {
            Some((b, f)) => (b, Some(f.to_string())),
            None => (after, None),
        };
        let (path_raw, query_raw) = match before_frag.split_once('?') {
            Some((p, q)) => (p, Some(q)),
            None => (before_frag, None),
        };
        let path = if path_raw.is_empty() { "/".to_string() } else { path_raw.to_string() };
        let query = query_raw.map(parse_query).unwrap_or_default();

        Ok(Url { scheme, host: host.into(), port, path, query, fragment })
    }

    /// Builds an `https` URL for `host` with path `/`.
    pub fn https(host: &str) -> Url {
        let host = if host.bytes().any(|b| b.is_ascii_uppercase()) {
            Atom::from(host.to_ascii_lowercase())
        } else {
            Atom::intern(host)
        };
        Url::https_for(host)
    }

    /// Builds an `https` URL with path `/` for a host the caller already
    /// holds as a lowercase atom (a static provider host, a flow's SNI),
    /// without an intern-table lookup.
    pub fn https_for(host: Atom) -> Url {
        debug_assert!(!host.bytes().any(|b| b.is_ascii_uppercase()));
        Url {
            scheme: Scheme::Https,
            host,
            port: None,
            path: "/".to_string(),
            query: Vec::new(),
            fragment: None,
        }
    }

    /// The URL scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Lowercased hostname.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The hostname as its atom — for callers that keep it (cloning an
    /// [`Atom`] copies no string).
    pub fn host_atom(&self) -> &Atom {
        &self.host
    }

    /// Effective port (explicit, or the scheme default).
    pub fn port(&self) -> u16 {
        self.port.unwrap_or_else(|| self.scheme.default_port())
    }

    /// The path component (always starts with `/`).
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Decoded query parameters in wire order.
    pub fn query_pairs(&self) -> &[(String, String)] {
        &self.query
    }

    /// First decoded value of query parameter `key`.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Returns a copy with `key=value` appended to the query.
    pub fn with_query_param(mut self, key: &str, value: &str) -> Url {
        self.query.push((key.to_string(), value.to_string()));
        self
    }

    /// Returns a copy with the given path (must start with `/`).
    pub fn with_path(mut self, path: &str) -> Url {
        debug_assert!(path.starts_with('/'));
        self.path = path.to_string();
        self
    }

    /// Rewrites every query value in place with `f(key, value)` —
    /// `Some(new)` replaces the value, `None` keeps it. Returns how many
    /// values changed. Used by enforcement layers that redact leaking
    /// parameters before a request leaves the device.
    pub fn map_query_values(
        &mut self,
        mut f: impl FnMut(&str, &str) -> Option<String>,
    ) -> usize {
        let mut changed = 0;
        for (k, v) in &mut self.query {
            if let Some(new) = f(k, v) {
                if new != *v {
                    *v = new;
                    changed += 1;
                }
            }
        }
        changed
    }

    /// The registrable domain (eTLD+1): `news.example.co.uk` →
    /// `example.co.uk`, `www.youtube.com` → `youtube.com`.
    ///
    /// Uses a compact public-suffix set covering the suffixes present in
    /// the simulated web plus the common real-world ones the paper's
    /// domains use (`.com`, `.net`, `.org`, `.ru`, `.cn`, `.co.uk`, ...).
    pub fn registrable_domain(&self) -> String {
        registrable_domain(&self.host)
    }

    /// Serializes back to wire form. Query values are percent-encoded;
    /// the fragment is included when present (fragments never hit the
    /// wire in real HTTP, but the CDP layer sees them).
    pub fn to_string_full(&self) -> String {
        let mut out = String::new();
        out.push_str(self.scheme.as_str());
        out.push_str("://");
        out.push_str(&self.host);
        if let Some(p) = self.port {
            if p != self.scheme.default_port() {
                out.push(':');
                out.push_str(&p.to_string());
            }
        }
        out.push_str(&self.path);
        if !self.query.is_empty() {
            out.push('?');
            for (i, (k, v)) in self.query.iter().enumerate() {
                if i > 0 {
                    out.push('&');
                }
                out.push_str(&percent_encode_component(k));
                out.push('=');
                out.push_str(&percent_encode_component(v));
            }
        }
        if let Some(f) = &self.fragment {
            out.push('#');
            out.push_str(f);
        }
        out
    }

    /// Byte length of [`Url::to_string_full`] without building the
    /// string. Wire-size accounting (the paper's Figure 4 volume
    /// numbers) calls this once per request, so it must agree with the
    /// serializer exactly — see `encoded_len_matches_serialization`.
    pub fn encoded_len(&self) -> usize {
        let mut len = self.scheme.as_str().len() + 3 + self.host.len() + self.path.len();
        if let Some(p) = self.port {
            if p != self.scheme.default_port() {
                len += 1 + decimal_digits(p);
            }
        }
        if !self.query.is_empty() {
            // '?' plus '&'-joined `k=v` pairs.
            len += self.query.len() + self.query.len(); // one '?'/'&' and one '=' per pair
            for (k, v) in &self.query {
                len += percent_encode_component_len(k) + percent_encode_component_len(v);
            }
        }
        if let Some(f) = &self.fragment {
            len += 1 + f.len();
        }
        len
    }
}

fn decimal_digits(p: u16) -> usize {
    match p {
        0..=9 => 1,
        10..=99 => 2,
        100..=999 => 3,
        1000..=9999 => 4,
        _ => 5,
    }
}

impl std::fmt::Display for Url {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_string_full())
    }
}

impl std::str::FromStr for Url {
    type Err = UrlError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Url::parse(s)
    }
}

fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// Multi-label public suffixes recognized by [`registrable_domain`].
const MULTI_LABEL_SUFFIXES: &[&str] =
    &["co.uk", "org.uk", "ac.uk", "com.cn", "net.cn", "com.br", "co.jp", "com.au", "co.kr"];

/// Extracts the registrable domain (eTLD+1) from a hostname.
pub fn registrable_domain(host: &str) -> String {
    registrable_suffix(host).to_string()
}

/// Borrowing form of [`registrable_domain`]: the eTLD+1 is always a
/// suffix of the hostname, so it can be returned as a slice. The
/// allocation-free comparison path (third-party checks, pin checks) uses
/// this directly.
pub fn registrable_suffix(host: &str) -> &str {
    let host = host.trim_end_matches('.');
    let label_count = host.split('.').count();
    if label_count <= 2 {
        return host;
    }
    for suffix in MULTI_LABEL_SUFFIXES {
        if let Some(prefix) = host.strip_suffix(suffix) {
            if let Some(prefix) = prefix.strip_suffix('.') {
                let owner = prefix.rsplit('.').next().unwrap_or("");
                if owner.is_empty() {
                    return host;
                }
                return &host[prefix.len() - owner.len()..];
            }
        }
    }
    let mut dots = host.rmatch_indices('.');
    dots.next();
    match dots.next() {
        Some((i, _)) => &host[i + 1..],
        None => host,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_url() {
        let u = Url::parse("https://www.YouTube.com/watch?v=abc&t=42s#frag").unwrap();
        assert_eq!(u.scheme(), Scheme::Https);
        assert_eq!(u.host(), "www.youtube.com");
        assert_eq!(u.port(), 443);
        assert_eq!(u.path(), "/watch");
        assert_eq!(u.query_param("v"), Some("abc"));
        assert_eq!(u.query_param("t"), Some("42s"));
        assert_eq!(u.registrable_domain(), "youtube.com");
    }

    #[test]
    fn empty_path_normalizes_to_slash() {
        let u = Url::parse("http://example.com").unwrap();
        assert_eq!(u.path(), "/");
        assert_eq!(u.port(), 80);
    }

    #[test]
    fn explicit_port() {
        let u = Url::parse("https://example.com:8443/x").unwrap();
        assert_eq!(u.port(), 8443);
        assert_eq!(u.to_string_full(), "https://example.com:8443/x");
    }

    #[test]
    fn default_port_not_serialized() {
        let u = Url::parse("https://example.com:443/x").unwrap();
        assert_eq!(u.to_string_full(), "https://example.com/x");
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(Url::parse("ftp://x.com"), Err(UrlError::BadScheme(_))));
        assert!(matches!(Url::parse("https://"), Err(UrlError::BadHost(_))));
        assert!(matches!(Url::parse("https:///path"), Err(UrlError::BadHost(_))));
        assert!(matches!(Url::parse("https://exa mple.com"), Err(UrlError::BadHost(_))));
        assert!(matches!(Url::parse("https://h:99999/"), Err(UrlError::BadPort(_))));
    }

    #[test]
    fn query_decoding_and_reencoding() {
        let u = Url::parse("https://t.example/p?q=hello%20world&flag").unwrap();
        assert_eq!(u.query_param("q"), Some("hello world"));
        assert_eq!(u.query_param("flag"), Some(""));
        let s = u.to_string_full();
        assert!(s.contains("q=hello%20world"));
    }

    #[test]
    fn registrable_domain_multi_label_suffix() {
        assert_eq!(registrable_domain("news.bbc.co.uk"), "bbc.co.uk");
        assert_eq!(registrable_domain("a.b.example.com.cn"), "example.com.cn");
        assert_eq!(registrable_domain("www.youtube.com"), "youtube.com");
        assert_eq!(registrable_domain("example.com"), "example.com");
        assert_eq!(registrable_domain("localhost"), "localhost");
    }

    #[test]
    fn with_query_param_appends() {
        let u = Url::https("sba.yandex.net").with_path("/report").with_query_param("url", "x");
        assert_eq!(u.to_string_full(), "https://sba.yandex.net/report?url=x");
    }

    #[test]
    fn map_query_values_rewrites_and_counts() {
        let mut u = Url::parse("https://t.example/p?a=keep&b=secret&c=secret").unwrap();
        let changed = u.map_query_values(|k, v| {
            (v == "secret" && k != "a").then(|| "redacted".to_string())
        });
        assert_eq!(changed, 2);
        assert_eq!(u.query_param("a"), Some("keep"));
        assert_eq!(u.query_param("b"), Some("redacted"));
        assert_eq!(u.query_param("c"), Some("redacted"));
    }

    #[test]
    fn encoded_len_matches_serialization() {
        for s in [
            "https://example.com",
            "http://example.com/",
            "https://example.com:8443/x",
            "https://example.com:443/x",
            "http://example.com:80/x",
            "https://t.example/p?q=hello%20world&flag",
            "https://t.example/p?a=1&b=2&c=%26%3D",
            "https://www.youtube.com/watch?v=abc&t=42s#frag",
            "https://sba.yandex.net/report?url=aHR0cHM6Ly94",
        ] {
            let u = Url::parse(s).unwrap();
            assert_eq!(u.encoded_len(), u.to_string_full().len(), "for {s}");
        }
        let u = Url::https("h.example").with_query_param("k y", "v/✓");
        assert_eq!(u.encoded_len(), u.to_string_full().len());
    }

    #[test]
    fn registrable_suffix_borrows_from_host() {
        for host in ["news.bbc.co.uk", "a.b.example.com.cn", "www.youtube.com", "localhost"] {
            assert_eq!(registrable_suffix(host), registrable_domain(host));
            assert!(host.ends_with(registrable_suffix(host)));
        }
        assert_eq!(registrable_suffix("host.example."), "host.example");
    }

    #[test]
    fn roundtrip_through_display() {
        let s = "https://cdn.site0001.example/assets/app.js?v=3";
        assert_eq!(Url::parse(s).unwrap().to_string(), s);
    }
}
