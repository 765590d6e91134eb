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
//!
//! A [`Url`] is its canonical wire text in one `String`: the scheme, the
//! lowercased host, a port other than the scheme's default, the path (`/`
//! when empty), the query and the fragment. Beside the text it keeps only
//! the scheme, the port and, as `u32`s, the byte offsets where the host
//! ends and the path, query and fragment begin, so a `Url` is 48 bytes on
//! a 64-bit target. It holds no interned host: [`Url::host`] slices the
//! text, and neither parsing nor building a URL touches the atom table.
//! The text is what [`Url::as_str`] borrows, what `Display` writes, what
//! a captured flow records and what wire-size accounting measures, so a
//! URL is serialised once, when it is parsed or built, and never again.
//! A text longer than `u32::MAX` bytes is rejected ([`UrlError::TooLong`])
//! rather than given a truncated offset.
//!
//! A world plan that writes its URLs in canonical form builds each with
//! [`Url::https_at`]: one allocation of exact size, no parse.
//!
//! The query is stored percent-encoded as `k=v` pairs joined by `&`.
//! [`Url::parse`] copies a component that holds only unreserved bytes and
//! decodes and re-encodes any other, and it drops empty `&&` segments and
//! writes a bare key `k` as `k=`, so two inputs that decode to the same
//! pairs share one text. Reading the pairs ([`Url::query_pairs`],
//! [`Url::query_param`], or [`query_pairs`] for a URL held only as text,
//! such as a flow's) decodes each component on demand: a component with
//! no `%` is borrowed from the text, and only one with an escape
//! allocates its decoded `String`.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::codec::percent::{
    is_unreserved_component, percent_decode, percent_decode_cow, percent_encode_component_into,
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
    /// The canonical text is longer than `u32::MAX` bytes, past what a
    /// [`Url`]'s offsets can address (its length in bytes).
    TooLong(usize),
}

impl std::fmt::Display for UrlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UrlError::BadScheme(s) => write!(f, "unsupported or missing scheme in {s:?}"),
            UrlError::BadHost(s) => write!(f, "malformed host in {s:?}"),
            UrlError::BadPort(s) => write!(f, "malformed port {s:?}"),
            UrlError::TooLong(n) => write!(f, "URL text of {n} bytes exceeds u32::MAX"),
        }
    }
}

impl std::error::Error for UrlError {}

/// A parsed absolute URL: its canonical text and where its parts begin
/// (see the module doc).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Url {
    /// The canonical wire text.
    text: String,
    /// Offset just past the host, where the port's `:` or the path begins.
    host_end: u32,
    /// Offset of the path's leading `/` in `text`.
    path_at: u32,
    /// Offset of the query's `?`, or `fragment_at` when there is no query.
    query_at: u32,
    /// Offset of the fragment's `#`, or `text.len()` when there is none.
    fragment_at: u32,
    port: Option<u16>,
    scheme: Scheme,
}

/// A text offset as a [`Url`] stores it. The builders that grow a text
/// past `u32::MAX` bytes panic here rather than truncate an offset.
fn offset(at: usize) -> u32 {
    u32::try_from(at).expect("URL text longer than u32::MAX bytes")
}

impl Url {
    /// Parses an absolute URL into its canonical text. The host is
    /// lowercased; an empty path becomes `/`; the query is rewritten as
    /// canonical `k=v` pairs.
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
        Url::parse_parts(scheme, authority, after)
    }

    /// Parses the URL whose authority (`host[:port]`) and remainder
    /// (path, query and fragment) arrive apart, as an HTTP/1 `Host`
    /// header and origin-form target do: [`Url::parse`] of
    /// `{scheme}://{authority}{after}`, without joining them first. An
    /// authority holding `/`, `?` or `#` is a malformed host.
    pub fn parse_parts(scheme: Scheme, authority: &str, after: &str) -> Result<Url, UrlError> {
        debug_assert!(after.is_empty() || after.starts_with(['/', '?', '#']));
        if authority.is_empty() {
            return Err(UrlError::BadHost(String::new()));
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
        if host_raw.is_empty()
            || !host_raw
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'.' | b'_'))
        {
            return Err(UrlError::BadHost(authority.to_string()));
        }

        // Split path / query / fragment.
        let (before_frag, fragment) = match after.split_once('#') {
            Some((b, f)) => (b, Some(f)),
            None => (after, None),
        };
        let (path_raw, query_raw) = match before_frag.split_once('?') {
            Some((p, q)) => (p, Some(q)),
            None => (before_frag, None),
        };

        // The canonical text is rarely longer than the input: only an
        // empty path, a bare key or a re-encoded byte adds to it.
        let input_len = scheme.as_str().len() + "://".len() + authority.len() + after.len();
        let mut text = String::with_capacity(input_len + 1);
        text.push_str(scheme.as_str());
        text.push_str("://");
        let host_at = text.len();
        text.push_str(host_raw);
        text[host_at..].make_ascii_lowercase();
        let host_end = text.len();
        // Like the text, the URL keeps only a port other than the
        // scheme's default, so equal texts compare and hash equal.
        let port = port.filter(|&p| p != scheme.default_port());
        if let Some(p) = port {
            let _ = write!(text, ":{p}");
        }
        let path_at = text.len();
        text.push_str(if path_raw.is_empty() { "/" } else { path_raw });
        let query_at = text.len();
        for segment in query_raw.unwrap_or_default().split('&').filter(|s| !s.is_empty()) {
            let (key, value) = segment.split_once('=').unwrap_or((segment, ""));
            text.push(if text.len() == query_at { '?' } else { '&' });
            push_canonical_component(&mut text, key);
            text.push('=');
            push_canonical_component(&mut text, value);
        }
        let fragment_at = text.len();
        if let Some(f) = fragment {
            text.push('#');
            text.push_str(f);
        }
        if u32::try_from(text.len()).is_err() {
            return Err(UrlError::TooLong(text.len()));
        }

        Ok(Url {
            host_end: offset(host_end),
            path_at: offset(path_at),
            query_at: offset(query_at),
            fragment_at: offset(fragment_at),
            text,
            port,
            scheme,
        })
    }

    /// Builds an `https` URL for `host` with path `/`.
    pub fn https(host: &str) -> Url {
        if host.bytes().any(|b| b.is_ascii_uppercase()) {
            Url::https_at(&host.to_ascii_lowercase(), "/")
        } else {
            Url::https_at(host, "/")
        }
    }

    /// Builds the `https` URL on the default port of `host` and `target`
    /// (the path, then any query), both already canonical: the host
    /// lowercase, and the target exactly as [`Url::parse`] would write
    /// it, with no fragment. The text is copied once, into a `String` of
    /// its exact size, and nothing is parsed, decoded or re-encoded.
    pub fn https_at(host: &str, target: &str) -> Url {
        debug_assert!(
            !host.is_empty()
                && host.bytes().all(|b| {
                    b.is_ascii_lowercase() || b.is_ascii_digit() || matches!(b, b'-' | b'.' | b'_')
                }),
            "not a canonical host: {host:?}"
        );
        debug_assert!(
            target.starts_with('/') && !target.contains('#'),
            "not a canonical target: {target:?}"
        );
        const SCHEME: &str = "https://";
        let mut text = String::with_capacity(SCHEME.len() + host.len() + target.len());
        text.push_str(SCHEME);
        text.push_str(host);
        let path_at = text.len();
        text.push_str(target);
        let query_at = target.find('?').map_or(text.len(), |i| path_at + i);
        let (path_at, end) = (offset(path_at), offset(text.len()));
        Url {
            text,
            host_end: path_at,
            path_at,
            query_at: offset(query_at),
            fragment_at: end,
            port: None,
            scheme: Scheme::Https,
        }
    }

    /// The canonical wire text: what `Display` writes and what a
    /// captured flow records.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// The URL scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Lowercased hostname, sliced from the text.
    pub fn host(&self) -> &str {
        &self.text[self.scheme.as_str().len() + "://".len()..self.host_end as usize]
    }

    /// The text up to and including the path's leading `/`: the URL of
    /// the root page of this URL's origin (`https://host/`, with any
    /// port other than the default).
    pub fn root(&self) -> &str {
        &self.text[..=self.path_at as usize]
    }

    /// Effective port (explicit, or the scheme default).
    pub fn port(&self) -> u16 {
        self.port.unwrap_or_else(|| self.scheme.default_port())
    }

    /// The path component (always starts with `/`).
    pub fn path(&self) -> &str {
        &self.text[self.path_at as usize..self.query_at as usize]
    }

    /// The encoded query, without its `?` (empty when there is none).
    fn query(&self) -> &str {
        if self.query_at == self.fragment_at {
            ""
        } else {
            &self.text[self.query_at as usize + 1..self.fragment_at as usize]
        }
    }

    /// Decoded query parameters in wire order. A component is borrowed
    /// from the text unless it holds a `%`.
    pub fn query_pairs(&self) -> impl Iterator<Item = (Cow<'_, str>, Cow<'_, str>)> {
        pairs_of(self.query())
    }

    /// First decoded value of query parameter `key`.
    pub fn query_param(&self, key: &str) -> Option<Cow<'_, str>> {
        self.query_pairs().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Returns a copy with `key=value` appended to the query.
    pub fn with_query_param(mut self, key: &str, value: &str) -> Url {
        let fragment = self.text.split_off(self.fragment_at as usize);
        self.text.push(if self.query_at == self.fragment_at { '?' } else { '&' });
        percent_encode_component_into(&mut self.text, key);
        self.text.push('=');
        percent_encode_component_into(&mut self.text, value);
        self.fragment_at = offset(self.text.len());
        self.text.push_str(&fragment);
        self
    }

    /// Returns a copy with the given path (must start with `/`).
    pub fn with_path(mut self, path: &str) -> Url {
        debug_assert!(path.starts_with('/'));
        self.text.replace_range(self.path_at as usize..self.query_at as usize, path);
        let end = self.path_at as usize + path.len();
        self.fragment_at = offset(self.fragment_at as usize - self.query_at as usize + end);
        self.query_at = offset(end);
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
        let mut query = String::new();
        for segment in self.query().split('&').filter(|s| !s.is_empty()) {
            let (key, value) = segment.split_once('=').unwrap_or((segment, ""));
            let (key, value) = (percent_decode_cow(key), percent_decode_cow(value));
            query.push(if query.is_empty() { '?' } else { '&' });
            match f(&key, &value) {
                Some(new) if new != value => {
                    changed += 1;
                    percent_encode_component_into(&mut query, &key);
                    query.push('=');
                    percent_encode_component_into(&mut query, &new);
                }
                _ => query.push_str(segment),
            }
        }
        if changed > 0 {
            self.text.replace_range(self.query_at as usize..self.fragment_at as usize, &query);
            self.fragment_at = offset(self.query_at as usize + query.len());
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
        registrable_domain(self.host())
    }
}

/// Appends one query component to a canonical text: as-is when it holds
/// only unreserved bytes, otherwise decoded and re-encoded.
fn push_canonical_component(text: &mut String, raw: &str) {
    if is_unreserved_component(raw) {
        text.push_str(raw);
    } else {
        percent_encode_component_into(text, &percent_decode(raw));
    }
}

/// The decoded pairs of an encoded query: empty `&&` segments are
/// skipped and a bare key has an empty value.
fn pairs_of(query: &str) -> impl Iterator<Item = (Cow<'_, str>, Cow<'_, str>)> {
    query.split('&').filter(|s| !s.is_empty()).map(|segment| {
        let (key, value) = segment.split_once('=').unwrap_or((segment, ""));
        (percent_decode_cow(key), percent_decode_cow(value))
    })
}

/// Decoded query pairs of a URL held only as text (a captured flow's
/// `url`), read without parsing it into a [`Url`]: the pairs of the
/// text between the first `?` and the fragment, exactly as
/// [`Url::query_pairs`] yields them for the parsed URL. A component is
/// borrowed from `url` unless it holds a `%`.
pub fn query_pairs(url: &str) -> impl Iterator<Item = (Cow<'_, str>, Cow<'_, str>)> {
    let before_fragment = url.split_once('#').map_or(url, |(before, _)| before);
    pairs_of(before_fragment.split_once('?').map_or("", |(_, query)| query))
}

/// The host of a URL held only as its canonical text (a captured flow's
/// or a visit's `url`), read without parsing it into a [`Url`]: the text
/// between `://` and the port, path, query or fragment, exactly as
/// [`Url::host`] returns it for the parsed URL. `None` when the text has
/// no `://` or an empty host.
pub fn host_of(url: &str) -> Option<&str> {
    let (_, rest) = url.split_once("://")?;
    let host = &rest[..rest.find([':', '/', '?', '#']).unwrap_or(rest.len())];
    (!host.is_empty()).then_some(host)
}

impl std::fmt::Display for Url {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

impl std::str::FromStr for Url {
    type Err = UrlError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Url::parse(s)
    }
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
        assert_eq!(u.query_param("v").as_deref(), Some("abc"));
        assert_eq!(u.query_param("t").as_deref(), Some("42s"));
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
        assert_eq!(u.as_str(), "https://example.com:8443/x");
    }

    #[test]
    fn default_port_not_serialized() {
        let u = Url::parse("https://example.com:443/x").unwrap();
        assert_eq!(u.as_str(), "https://example.com/x");
    }

    #[test]
    fn equality_follows_the_text() {
        let hash = |u: &Url| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            std::hash::Hash::hash(u, &mut h);
            std::hash::Hasher::finish(&h)
        };
        let explicit = Url::parse("https://example.com:443/x").unwrap();
        let implicit = Url::parse("https://example.com/x").unwrap();
        assert_eq!(explicit, implicit);
        assert_eq!(hash(&explicit), hash(&implicit));
        assert_eq!(explicit.port(), 443);
        let other = Url::parse("https://example.com:8443/x").unwrap();
        assert_ne!(other, implicit);
        assert_eq!(other.port(), 8443);
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
        assert_eq!(u.query_param("q").as_deref(), Some("hello world"));
        assert_eq!(u.query_param("flag").as_deref(), Some(""));
        assert_eq!(u.as_str(), "https://t.example/p?q=hello%20world&flag=");
    }

    #[test]
    fn parse_writes_the_canonical_text() {
        for (input, canonical) in [
            ("HTTPS://x.com", "HTTPS://x.com"),
            ("https://WWW.Example.COM", "https://www.example.com/"),
            ("https://a.com?&&k&&v=1", "https://a.com/?k=&v=1"),
            ("https://a.com/p?q=a+b c&r=%7e%2f", "https://a.com/p?q=a%2Bb%20c&r=~%2F"),
            ("https://a.com/p?bad=100%&x=%zz%4", "https://a.com/p?bad=100%25&x=%25zz%254"),
            ("https://a.com/p?k=%FF%FE", "https://a.com/p?k=%EF%BF%BD%EF%BF%BD"),
            ("https://a.com/p?a=b=c#f?g=h#i", "https://a.com/p?a=b%3Dc#f?g=h#i"),
            ("http://a.com:80/#", "http://a.com/#"),
        ] {
            match Url::parse(input) {
                Ok(u) => assert_eq!(u.as_str(), canonical, "for {input}"),
                Err(e) => assert_eq!(input, canonical, "{input}: {e}"),
            }
        }
    }

    #[test]
    fn query_components_borrow_unless_escaped() {
        let u = Url::parse("https://t.example/p?plain=v&esc=a%20b&%6B=x").unwrap();
        let pairs: Vec<_> = u.query_pairs().collect();
        assert!(matches!(pairs[0], (Cow::Borrowed("plain"), Cow::Borrowed("v"))));
        assert!(matches!(&pairs[1], (Cow::Borrowed("esc"), Cow::Owned(v)) if v == "a b"));
        assert!(matches!(&pairs[2], (Cow::Borrowed("k"), Cow::Borrowed("x"))));
        assert_eq!(u.query_param("k").as_deref(), Some("x"));
    }

    #[test]
    fn text_pairs_match_the_parsed_pairs() {
        for s in [
            "https://t.example/p?q=hello%20world&flag",
            "https://t.example/p?a=1&&b=%26%3D#frag?c=3",
            "https://t.example/p#x?y=1",
            "https://t.example",
        ] {
            let u = Url::parse(s).unwrap();
            let parsed: Vec<_> = u.query_pairs().collect();
            assert_eq!(query_pairs(u.as_str()).collect::<Vec<_>>(), parsed, "for {s}");
            assert_eq!(query_pairs(s).collect::<Vec<_>>(), parsed, "for {s}");
        }
    }

    #[test]
    fn text_host_matches_the_parsed_host() {
        for s in ["https://t.example/p?q=1", "http://a.com:8080/x#f", "https://h.example?x=1"] {
            let u = Url::parse(s).unwrap();
            assert_eq!(host_of(u.as_str()), Some(u.host()), "for {s}");
        }
        assert_eq!(host_of("no-scheme"), None);
        assert_eq!(host_of("https:///path"), None);
    }

    #[test]
    fn parts_parse_like_the_joined_text() {
        let joined = Url::parse("https://Example.com:8443/p?q=a b#f").unwrap();
        let parts = Url::parse_parts(Scheme::Https, "Example.com:8443", "/p?q=a b#f").unwrap();
        assert_eq!(parts, joined);
        assert!(matches!(
            Url::parse_parts(Scheme::Https, "a.com/x", "/y"),
            Err(UrlError::BadHost(_))
        ));
    }

    #[test]
    fn built_urls_equal_their_parse() {
        let at = Url::https_at("cdn.site.example", "/api/feed?page=3");
        assert_eq!(at, Url::parse("https://cdn.site.example/api/feed?page=3").unwrap());
        assert_eq!(at.host(), "cdn.site.example");
        assert_eq!(at.path(), "/api/feed");
        assert_eq!(at.query_param("page").as_deref(), Some("3"));
        assert_eq!(at.root(), "https://cdn.site.example/");
        assert_eq!(Url::https("WWW.Example.com"), Url::parse("https://www.example.com").unwrap());
        assert_eq!(Url::parse("http://a.com:8080/x").unwrap().root(), "http://a.com:8080/");
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
        assert_eq!(u.as_str(), "https://sba.yandex.net/report?url=x");
        assert_eq!(u.path(), "/report");
        let u = Url::parse("https://a.com/p?k=v#frag").unwrap().with_query_param("u", "a b");
        assert_eq!(u.as_str(), "https://a.com/p?k=v&u=a%20b#frag");
        let u = u.with_path("/longer/path");
        assert_eq!(u.as_str(), "https://a.com/longer/path?k=v&u=a%20b#frag");
        assert_eq!(u.query_param("u").as_deref(), Some("a b"));
    }

    #[test]
    fn map_query_values_rewrites_and_counts() {
        let mut u = Url::parse("https://t.example/p?a=keep&b=secret&c=secret").unwrap();
        let changed = u.map_query_values(|k, v| {
            (v == "secret" && k != "a").then(|| "redacted".to_string())
        });
        assert_eq!(changed, 2);
        assert_eq!(u.as_str(), "https://t.example/p?a=keep&b=redacted&c=redacted");
        let mut u = Url::parse("https://t.example/p#f").unwrap();
        assert_eq!(u.map_query_values(|_, _| Some("x".to_string())), 0);
        assert_eq!(u.as_str(), "https://t.example/p#f");
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
