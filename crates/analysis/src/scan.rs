//! Flow-content extraction: the key/value pairs an analyst inspects.
//!
//! The paper's PII analysis uses "keyword matching (via regex) and
//! heuristics ... via the URL parameters of the natively generated
//! requests" (§3.3), plus body parsing for JSON ad-SDK payloads
//! (Listing 1). This module flattens both sources into `(key, value)`
//! observations and offers Base64/percent decoding of candidate values
//! for the history analysis.

use panoptes_http::codec::{b64_decode, b64_decode_url, percent_decode};
use panoptes_http::json;
use panoptes_http::url::Url;
use panoptes_mitm::Flow;

/// One observed key/value pair from a flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// Parameter name or JSON path.
    pub key: String,
    /// The raw value.
    pub value: String,
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
pub fn observations(flow: &Flow) -> Vec<Observation> {
    let mut out = Vec::new();
    if let Ok(url) = Url::parse(&flow.url) {
        for (k, v) in url.query_pairs() {
            out.push(Observation { key: k.clone(), value: v.clone(), source: Source::Query });
        }
    }
    let body = flow.request_body.trim();
    if body.starts_with('{') || body.starts_with('[') {
        if let Ok(value) = json::parse(body) {
            value.walk_leaves(&mut |path, leaf| {
                let rendered = match leaf {
                    json::Value::String(s) => s.clone(),
                    other => json::to_string(other),
                };
                out.push(Observation {
                    key: path.to_string(),
                    value: rendered,
                    source: Source::JsonBody,
                });
            });
        }
    } else if body.contains('=') && !body.contains(' ') && body.len() < 4096 {
        for pair in body.split('&') {
            if let Some((k, v)) = pair.split_once('=') {
                out.push(Observation {
                    key: percent_decode(k),
                    value: percent_decode(v),
                    source: Source::FormBody,
                });
            }
        }
    }
    out
}

/// All plausible decodings of a value: itself, percent-decoded, and
/// Base64 (URL-safe and standard) when it decodes to printable UTF-8.
/// This is how the Yandex Base64-wrapped URL is recovered (§3.2).
pub fn decodings(value: &str) -> Vec<String> {
    let mut out = vec![value.to_string()];
    let pct = percent_decode(value);
    if pct != value {
        out.push(pct);
    }
    if value.len() >= 8 {
        for decoded in [b64_decode_url(value), b64_decode(value)].into_iter().flatten() {
            if let Ok(text) = String::from_utf8(decoded) {
                if text.chars().all(|c| !c.is_control()) {
                    out.push(text);
                    break;
                }
            }
        }
    }
    out.dedup();
    out
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
            host: Url::parse(url).unwrap().host().into(),
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
