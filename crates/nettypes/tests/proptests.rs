//! Property-based tests for the codec / URL / JSON substrates.

use std::borrow::Cow;

use proptest::prelude::*;

use panoptes_http::codec::{
    b64_decode, b64_decode_url, b64_encode, b64_encode_url, hex_decode, hex_encode,
    percent_decode, percent_encode_component,
};
use panoptes_http::json::{self, Value};
use panoptes_http::netaddr::{Cidr, IpAddr};
use panoptes_http::h1;
use panoptes_http::url::{self, registrable_domain, Url};
use panoptes_http::{Atom, Request};

proptest! {
    #[test]
    fn base64_std_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        prop_assert_eq!(b64_decode(&b64_encode(&data)).unwrap(), data);
    }

    #[test]
    fn base64_url_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let enc = b64_encode_url(&data);
        prop_assert!(!enc.contains('=') && !enc.contains('+') && !enc.contains('/'));
        prop_assert_eq!(b64_decode_url(&enc).unwrap(), data);
    }

    #[test]
    fn base64_encoding_length_bound(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Padded output is exactly ceil(n/3)*4 characters.
        prop_assert_eq!(b64_encode(&data).len(), data.len().div_ceil(3) * 4);
    }

    #[test]
    fn hex_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        prop_assert_eq!(hex_decode(&hex_encode(&data)).unwrap(), data);
    }

    #[test]
    fn percent_component_roundtrip(s in "\\PC{0,64}") {
        prop_assert_eq!(percent_decode(&percent_encode_component(&s)), s);
    }

    #[test]
    fn percent_decode_never_panics(s in "\\PC{0,64}") {
        let _ = percent_decode(&s);
    }

    #[test]
    fn url_roundtrip_structured(
        host_label in "[a-z][a-z0-9-]{0,10}",
        tld in prop::sample::select(vec!["com", "net", "org", "ru", "example"]),
        path_seg in "[a-z0-9]{0,12}",
        key in "[a-z]{1,8}",
        value in "[a-zA-Z0-9 /+=&?#%]{0,24}",
    ) {
        let url = Url::parse(&format!("https://{host_label}.{tld}/{path_seg}"))
            .unwrap()
            .with_query_param(&key, &value);
        let reparsed = Url::parse(url.as_str()).unwrap();
        prop_assert_eq!(reparsed.host(), url.host());
        prop_assert_eq!(reparsed.path(), url.path());
        prop_assert_eq!(reparsed.query_param(&key).as_deref(), Some(value.as_str()));
        prop_assert_eq!(reparsed.as_str(), url.as_str());
    }

    #[test]
    fn url_parse_never_panics(s in "\\PC{0,100}") {
        let _ = Url::parse(&s);
    }

    #[test]
    fn registrable_domain_is_suffix(
        labels in proptest::collection::vec("[a-z]{1,6}", 1..5),
    ) {
        let host = labels.join(".");
        let reg = registrable_domain(&host);
        let dotted = format!(".{reg}");
        prop_assert!(host == reg || host.ends_with(&dotted));
    }

    #[test]
    fn ip_roundtrip(raw in any::<u32>()) {
        let ip = IpAddr(raw);
        prop_assert_eq!(IpAddr::parse(&ip.to_string()), Some(ip));
    }

    #[test]
    fn cidr_contains_all_its_hosts(raw in any::<u32>(), prefix in 8u8..=32, idx in any::<u32>()) {
        let cidr = Cidr::new(IpAddr(raw), prefix);
        let span = if prefix == 32 { 1 } else { 1u64 << (32 - prefix as u32) };
        let host = cidr.host((idx as u64 % span) as u32);
        prop_assert!(cidr.contains(host));
    }

    #[test]
    fn h1_request_roundtrip(
        host in "[a-z]{1,10}\\.(com|org|net)",
        path_seg in "[a-z0-9]{0,10}",
        key in "[a-z]{1,6}",
        value in "[a-zA-Z0-9 ]{0,16}",
        header_val in "[a-zA-Z0-9/.;= -]{0,24}",
        body in proptest::collection::vec(any::<u8>(), 0..128),
        https in proptest::bool::ANY,
    ) {
        let scheme = if https { "https" } else { "http" };
        let url = Url::parse(&format!("{scheme}://{host}/{path_seg}"))
            .unwrap()
            .with_query_param(&key, &value);
        let req = Request::post(url, body.clone())
            .with_header("user-agent", header_val.trim())
            .with_header("accept", "*/*");
        let wire = h1::render_request(&req);
        let parsed = h1::parse_request(&wire, https).unwrap();
        prop_assert_eq!(parsed.url.host(), host.as_str());
        prop_assert_eq!(parsed.url.query_param(&key).as_deref(), Some(value.as_str()));
        prop_assert_eq!(&parsed.body[..], &body[..]);
        prop_assert_eq!(parsed.headers.get("accept"), Some("*/*"));
    }

    #[test]
    fn h1_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = h1::parse_request(&bytes, true);
        let _ = h1::parse_response(&bytes);
    }

    #[test]
    fn json_roundtrip_arbitrary(value in arb_json(3)) {
        let compact = json::to_string(&value);
        prop_assert_eq!(json::parse(&compact).unwrap(), value.clone());
        let pretty = json::to_string_pretty(&value);
        prop_assert_eq!(json::parse(&pretty).unwrap(), value);
    }

    #[test]
    fn json_parse_never_panics(s in "\\PC{0,200}") {
        let _ = json::parse(&s);
    }
}

/// Strategy for arbitrary JSON values with integral numbers (floats would
/// make equality after roundtrip flaky only through NaN, which `Value`
/// cannot hold anyway — we keep integers for exactness).
fn arb_json(depth: u32) -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1_000_000i64..1_000_000).prop_map(|n| Value::Number(n as f64)),
        "\\PC{0,16}".prop_map(Value::String),
    ];
    leaf.prop_recursive(depth, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            proptest::collection::vec(("[a-z]{1,6}", inner), 0..4).prop_map(|pairs| {
                Value::Object(pairs.into_iter().collect())
            }),
        ]
    })
}

proptest! {
    /// Interning round-trips arbitrary strings and is idempotent: the
    /// same text always resolves to the same shared allocation.
    #[test]
    fn atom_intern_roundtrip(s in "\\PC{0,64}") {
        let a = Atom::intern(&s);
        prop_assert_eq!(a.as_str(), s.as_str());
        let b = Atom::intern(&s);
        prop_assert!(Atom::ptr_eq(&a, &b));
        prop_assert!(Atom::ptr_eq(&a, &a.clone()));
    }

    /// Atom equality and ordering agree with the underlying strings, so
    /// swapping `String` fields for atoms cannot reorder any report.
    #[test]
    fn atom_order_matches_str(a in "\\PC{0,32}", b in "\\PC{0,32}") {
        let (x, y) = (Atom::intern(&a), Atom::intern(&b));
        prop_assert_eq!(x == y, a == b);
        prop_assert_eq!(x.cmp(&y), a.cmp(&b));
    }

    /// Interning from another thread still converges on the one shared
    /// allocation per distinct string (the shard table is global).
    #[test]
    fn atom_intern_cross_thread(s in "\\PC{1,32}") {
        let s2 = s.clone();
        let remote = std::thread::spawn(move || Atom::intern(&s2)).join().unwrap();
        prop_assert!(Atom::ptr_eq(&Atom::intern(&s), &remote));
    }
}

/// The serialiser `Url` had before it kept its canonical text, kept here
/// as the reference that text must equal byte for byte: the parts are
/// split and each query component decoded, then written back with the
/// host lowercased, the default port dropped, `/` for an empty path and
/// every component re-encoded.
#[derive(Debug, Clone)]
struct Reference {
    scheme: &'static str,
    host: String,
    port: Option<u16>,
    path: String,
    query: Vec<(String, String)>,
    fragment: Option<String>,
}

impl Reference {
    /// Splits a valid absolute URL into decoded parts.
    fn parse(input: &str) -> Reference {
        let (scheme, rest) = match input.strip_prefix("https://") {
            Some(rest) => ("https", rest),
            None => ("http", input.strip_prefix("http://").expect("http(s) input")),
        };
        let end = rest.find(['/', '?', '#']).unwrap_or(rest.len());
        let (authority, after) = rest.split_at(end);
        let (host, port) = match authority.rsplit_once(':') {
            Some((host, port)) => (host, Some(port.parse().expect("valid port"))),
            None => (authority, None),
        };
        let (before_fragment, fragment) = match after.split_once('#') {
            Some((before, fragment)) => (before, Some(fragment.to_string())),
            None => (after, None),
        };
        let (path, query) = before_fragment.split_once('?').unwrap_or((before_fragment, ""));
        Reference {
            scheme,
            host: host.to_ascii_lowercase(),
            port,
            path: if path.is_empty() { "/".to_string() } else { path.to_string() },
            query: eager_pairs(query),
            fragment,
        }
    }

    fn text(&self) -> String {
        let mut out = format!("{}://{}", self.scheme, self.host);
        let default_port = if self.scheme == "https" { 443 } else { 80 };
        if let Some(port) = self.port.filter(|&p| p != default_port) {
            out.push_str(&format!(":{port}"));
        }
        out.push_str(&self.path);
        for (i, (key, value)) in self.query.iter().enumerate() {
            out.push(if i == 0 { '?' } else { '&' });
            out.push_str(&percent_encode_component(key));
            out.push('=');
            out.push_str(&percent_encode_component(value));
        }
        if let Some(fragment) = &self.fragment {
            out.push('#');
            out.push_str(fragment);
        }
        out
    }
}

/// Every query component decoded up front: empty segments dropped, a
/// bare key given an empty value.
fn eager_pairs(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

fn owned_pairs<'a>(
    pairs: impl Iterator<Item = (Cow<'a, str>, Cow<'a, str>)>,
) -> Vec<(String, String)> {
    pairs.map(|(k, v)| (k.into_owned(), v.into_owned())).collect()
}

/// Checks one input against the reference: the canonical text, the
/// lazily decoded pairs (of the parsed URL and of its text), and the
/// three edits.
fn check_against_reference(input: &str, key: &str, value: &str, path: &str) {
    let reference = Reference::parse(input);
    let url = Url::parse(input).unwrap_or_else(|e| panic!("{input}: {e}"));
    assert_eq!(url.as_str(), reference.text(), "canonical text of {input}");
    assert_eq!(url.to_string(), reference.text());
    assert_eq!(url.path(), reference.path);
    assert_eq!(owned_pairs(url.query_pairs()), reference.query, "pairs of {input}");
    assert_eq!(owned_pairs(url::query_pairs(url.as_str())), reference.query);
    assert_eq!(owned_pairs(url::query_pairs(input)), reference.query);
    assert_eq!(Url::parse(url.as_str()).unwrap(), url, "a fixed point");
    for (k, _) in &reference.query {
        let first = reference.query.iter().find(|(rk, _)| rk == k).map(|(_, v)| v.as_str());
        assert_eq!(url.query_param(k).as_deref(), first);
    }

    let mut appended = reference.clone();
    appended.query.push((key.to_string(), value.to_string()));
    assert_eq!(url.clone().with_query_param(key, value).as_str(), appended.text());

    let mut repathed = reference.clone();
    repathed.path = path.to_string();
    let edited = url.clone().with_path(path);
    assert_eq!(edited.as_str(), repathed.text());
    assert_eq!(edited.path(), path);

    // Rewrite a value by the length of its key: replaced, replaced with
    // itself (not a change), or kept.
    let rewrite = |k: &str, v: &str| match k.len() % 3 {
        0 => Some(format!("{v}{value}")),
        1 => Some(v.to_string()),
        _ => None,
    };
    let mut mapped = reference.clone();
    let mut expected_changes = 0;
    for (k, v) in &mut mapped.query {
        if let Some(new) = rewrite(k, v) {
            if new != *v {
                *v = new;
                expected_changes += 1;
            }
        }
    }
    let mut rewritten = url.clone();
    assert_eq!(rewritten.map_query_values(rewrite), expected_changes, "changes in {input}");
    assert_eq!(rewritten.as_str(), mapped.text(), "rewritten {input}");
}

/// Query-component tokens: unreserved bytes, valid escapes in either hex
/// case (one of them a three-byte UTF-8 character), escapes that decode
/// to bytes that are not UTF-8, malformed escapes, and reserved or
/// non-ASCII bytes that the parser must encode.
const COMPONENT_TOKENS: &[&str] = &[
    "a", "Z", "9", "-", ".", "_", "~", "%20", "%2F", "%2f", "%7E", "%e2%9c%93", "%FF", "%C3",
    "%", "%z", "%4", "+", "/", ":", "?", "=", " ", "é", "✓",
];

fn component() -> impl Strategy<Value = String> {
    proptest::collection::vec(prop::sample::select(COMPONENT_TOKENS.to_vec()), 0..5)
        .prop_map(|tokens| tokens.concat())
}

/// One `&`-separated segment: empty (an `&&`), a bare key, or `k=v`.
fn segment() -> impl Strategy<Value = String> {
    (0u8..4, component(), component()).prop_map(|(shape, key, value)| match shape {
        0 => String::new(),
        1 => key,
        _ => format!("{key}={value}"),
    })
}

/// Absolute URLs covering every case the canonical text must keep:
/// uppercase hosts, default and explicit ports, empty and raw paths,
/// empty segments, bare keys, every kind of escape, and fragments.
fn url_input() -> impl Strategy<Value = String> {
    (
        prop::sample::select(vec!["http", "https"]),
        "[a-zA-Z][a-zA-Z0-9-]{0,8}\\.(com|NET|Example|co.uk)",
        prop::sample::select(vec!["", ":80", ":443", ":8443", ":1"]),
        prop::option::of("/[a-zA-Z0-9/._~%-]{0,12}"),
        prop::option::of(proptest::collection::vec(segment(), 0..5)),
        prop::option::of("[a-zA-Z0-9?#=&/%]{0,8}"),
    )
        .prop_map(|(scheme, host, port, path, query, fragment)| {
            let mut input = format!("{scheme}://{host}{port}{}", path.unwrap_or_default());
            if let Some(segments) = query {
                input.push('?');
                input.push_str(&segments.join("&"));
            }
            if let Some(fragment) = fragment {
                input.push('#');
                input.push_str(&fragment);
            }
            input
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `Url` keeps exactly the text the pre-change serialiser wrote, and
    /// its pairs and edits agree with the decoded reference.
    #[test]
    fn canonical_text_matches_the_reference_serialiser(
        input in url_input(),
        key in component(),
        value in "\\PC{0,12}",
        path in "/[a-zA-Z0-9/._~%-]{0,12}",
    ) {
        check_against_reference(&input, &key, &value, &path);
    }
}

/// Fixed inputs: the defaults and explicit ports, bare keys, reserved
/// escapes and a fragment, each against the reference.
#[test]
fn fixed_inputs_match_the_reference_serialiser() {
    for input in [
        "https://example.com",
        "http://example.com/",
        "https://example.com:8443/x",
        "https://example.com:443/x",
        "http://example.com:80/x",
        "https://t.example/p?q=hello%20world&flag",
        "https://t.example/p?a=1&b=2&c=%26%3D",
        "https://www.youtube.com/watch?v=abc&t=42s#frag",
        "https://sba.yandex.net/report?url=aHR0cHM6Ly94",
        "https://Mixed.CASE.example/P?&&=&%zz=%FF#a#b?c",
    ] {
        check_against_reference(input, "k y", "v/✓", "/new");
    }
    let built = Url::https("h.example").with_query_param("k y", "v/✓");
    assert_eq!(built.as_str(), "https://h.example/?k%20y=v%2F%E2%9C%93");
}
