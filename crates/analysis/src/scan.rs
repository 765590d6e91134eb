//! Flow-content extraction: the key/value pairs an analyst inspects.
//!
//! The paper's PII analysis uses "keyword matching (via regex) and
//! heuristics ... via the URL parameters of the natively generated
//! requests" (§3.3), plus body parsing for JSON ad-SDK payloads
//! (Listing 1). This module flattens both sources into `(key, value)`
//! observations and offers Base64/percent decoding of candidate values
//! for the history analysis.
//!
//! Query pairs are read straight from the flow's recorded URL text
//! ([`url::query_pairs`]): the fold never parses a flow's URL again, and
//! a pair borrows from the flow unless a component holds an escape.

use std::borrow::Cow;

use panoptes_http::codec::{b64_decode, b64_decode_url, percent_decode, percent_decode_cow};
use panoptes_http::json;
use panoptes_http::url;
use panoptes_mitm::Flow;

/// One observed key/value pair from a flow. Query and form-body pairs
/// borrow from the flow unless a component holds a `%` escape; JSON
/// leaves are owned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation<'a> {
    /// Parameter name or JSON path.
    pub key: Cow<'a, str>,
    /// The decoded value.
    pub value: Cow<'a, str>,
    /// Where it came from.
    pub source: Source,
}

/// Where an observation was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// URL query parameter.
    Query,
    /// JSON request-body leaf.
    JsonBody,
    /// `k=v` form-encoded body field.
    FormBody,
}

/// Extracts every key/value observation from a flow.
pub fn observations(flow: &Flow) -> Vec<Observation<'_>> {
    let mut out: Vec<Observation<'_>> = url::query_pairs(&flow.url)
        .map(|(key, value)| Observation { key, value, source: Source::Query })
        .collect();
    let body = flow.request_body.trim();
    if body.starts_with('{') || body.starts_with('[') {
        if let Ok(value) = json::parse(body) {
            value.walk_leaves(&mut |path, leaf| {
                let rendered = match leaf {
                    json::Value::String(s) => s.clone(),
                    other => json::to_string(other),
                };
                out.push(Observation {
                    key: Cow::Owned(path.to_string()),
                    value: Cow::Owned(rendered),
                    source: Source::JsonBody,
                });
            });
        }
    } else if body.contains('=') && !body.contains(' ') && body.len() < 4096 {
        for pair in body.split('&') {
            if let Some((k, v)) = pair.split_once('=') {
                out.push(Observation {
                    key: percent_decode_cow(k),
                    value: percent_decode_cow(v),
                    source: Source::FormBody,
                });
            }
        }
    }
    out
}

/// All plausible decodings of a value: itself, percent-decoded, and
/// Base64 (URL-safe and standard) when it decodes to printable UTF-8.
/// This is how the Yandex Base64-wrapped URL is recovered (§3.2). The
/// value itself is borrowed, and a value with no `%` is not
/// percent-decoded (it would decode to itself).
pub fn decodings(value: &str) -> Decodings<'_> {
    let mut out =
        Decodings { items: [Cow::Borrowed(value), Cow::Borrowed(""), Cow::Borrowed("")], len: 1 };
    if value.contains('%') {
        let pct = percent_decode(value);
        if pct != value {
            out.push(Cow::Owned(pct));
        }
    }
    if value.len() >= 8 {
        for decoded in [b64_decode_url(value), b64_decode(value)].into_iter().flatten() {
            if let Ok(text) = String::from_utf8(decoded) {
                if text.chars().all(|c| !c.is_control()) {
                    out.push(Cow::Owned(text));
                    break;
                }
            }
        }
    }
    out
}

/// The decodings of one value ([`decodings`]): at most three, held
/// inline, so a value with no decoding beyond itself allocates nothing.
/// Derefs to the slice of decodings.
pub struct Decodings<'a> {
    items: [Cow<'a, str>; 3],
    len: usize,
}

impl<'a> Decodings<'a> {
    /// Appends a decoding unless it equals the last one.
    fn push(&mut self, decoding: Cow<'a, str>) {
        if self.items[self.len - 1] != decoding {
            self.items[self.len] = decoding;
            self.len += 1;
        }
    }
}

impl<'a> std::ops::Deref for Decodings<'a> {
    type Target = [Cow<'a, str>];

    fn deref(&self) -> &[Cow<'a, str>] {
        &self.items[..self.len]
    }
}

impl std::fmt::Debug for Decodings<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// True when `value` looks like a high-entropy persistent identifier:
/// a long hex string or a UUID.
pub fn looks_like_identifier(value: &str) -> bool {
    let is_long_hex =
        value.len() >= 32 && value.bytes().all(|b| b.is_ascii_hexdigit());
    let is_uuid = value.len() == 36
        && value
            .bytes()
            .enumerate()
            .all(|(i, b)| match i {
                8 | 13 | 18 | 23 => b == b'-',
                _ => b.is_ascii_hexdigit(),
            });
    is_long_hex || is_uuid
}

#[cfg(test)]
mod tests {
    use super::*;
    use panoptes_http::netaddr::IpAddr;
    use panoptes_http::method::Method;
    use panoptes_http::request::HttpVersion;
    use panoptes_mitm::FlowClass;

    fn flow(url: &str, body: &str) -> Flow {
        Flow {
            id: 1,
            time_us: 0,
            uid: 1,
            package: "p".into(),
            host: panoptes_http::Url::parse(url).unwrap().host().into(),
            dst_ip: IpAddr::new(1, 1, 1, 1),
            dst_port: 443,
            method: Method::Post,
            url: url.into(),
            request_headers: vec![],
            request_body: body.into(),
            status: 200,
            bytes_out: 0,
            bytes_in: 0,
            version: HttpVersion::H2,
            class: FlowClass::Native,
        }
    }

    #[test]
    fn extracts_query_and_json_body() {
        let f = flow(
            "https://t.example/p?uid=abc&tz=Europe%2FAthens",
            r#"{"device":{"model":"SM-T580"},"lat":35.33}"#,
        );
        let obs = observations(&f);
        assert!(obs.iter().any(|o| o.key == "uid" && o.value == "abc" && o.source == Source::Query));
        assert!(obs.iter().any(|o| o.key == "tz" && o.value == "Europe/Athens"));
        assert!(obs
            .iter()
            .any(|o| o.key == "device.model" && o.value == "SM-T580" && o.source == Source::JsonBody));
        assert!(obs.iter().any(|o| o.key == "lat" && o.value == "35.33"));
    }

    #[test]
    fn query_pairs_borrow_from_the_flow_unless_escaped() {
        let f = flow("https://t.example/p?uid=abc&tz=Europe%2FAthens#x=1", "");
        let obs = observations(&f);
        assert_eq!(obs.len(), 2, "{obs:?}");
        assert!(matches!(obs[0].key, Cow::Borrowed("uid")));
        assert!(matches!(obs[0].value, Cow::Borrowed("abc")));
        assert!(matches!(&obs[1].value, Cow::Owned(v) if v == "Europe/Athens"));
    }

    #[test]
    fn decodings_borrow_the_value_and_skip_a_decode_without_escapes() {
        let d = decodings("plain.value");
        assert_eq!(d.len(), 1);
        assert!(matches!(d[0], Cow::Borrowed("plain.value")));
        let d = decodings("100%");
        assert_eq!(*d, ["100%"], "a malformed escape decodes to itself");
    }

    #[test]
    fn extracts_form_body() {
        let f = flow("https://t.example/p", "a=1&b=hello%20world");
        let obs = observations(&f);
        assert!(obs.iter().any(|o| o.key == "b" && o.value == "hello world" && o.source == Source::FormBody));
    }

    #[test]
    fn decodings_recover_base64_url() {
        let original = "https://www.youtube.com/watch?v=abc";
        let encoded = panoptes_http::codec::b64_encode_url(original.as_bytes());
        assert!(decodings(&encoded).iter().any(|d| d == original));
    }

    #[test]
    fn decodings_recover_percent() {
        assert!(decodings("https%3A%2F%2Fa.com%2F").iter().any(|d| d == "https://a.com/"));
    }

    #[test]
    fn identifier_heuristic() {
        assert!(looks_like_identifier(
            "2e5d1382f2dd484e9d035619c8a908ddd5de945b100bc9e66582e2ed4ab0b2ab"
        ));
        assert!(looks_like_identifier("123e4567-e89b-42d3-a456-426614174000"));
        assert!(!looks_like_identifier("hello-world"));
        assert!(!looks_like_identifier("deadbeef")); // too short
        assert!(!looks_like_identifier("zz5d1382f2dd484e9d035619c8a908ddd5de945b100bc9e66582e2ed4ab0b2ab"));
    }
}
