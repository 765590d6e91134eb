//! HAR (HTTP Archive 1.2) export of captured flows.
//!
//! Analysts live in HAR-aware tooling (browser devtools, mitmproxy's
//! exporters, HAR viewers); this module renders a capture as a standard
//! HAR log so the reproduction's flow databases can be inspected with
//! off-the-shelf tools. Panoptes-specific metadata (classification, UID,
//! package) rides in `_`-prefixed custom fields, as the HAR spec allows.

use panoptes_http::json::{self, Value};
use panoptes_http::url;

use crate::flow::Flow;
use crate::store::FlowStore;

/// Virtual-epoch anchor: the paper's crawls ran in May 2023; virtual
/// microsecond 0 maps to this wall-clock instant in the export.
const EPOCH_ISO_DATE: (u64, u64, u64) = (2023, 5, 12);

/// Renders `flows` as a HAR `log` document.
pub fn to_har(flows: &[Flow]) -> Value {
    har_log(flows.iter().map(entry).collect())
}

fn har_log(entries: Vec<Value>) -> Value {
    Value::object(vec![(
        "log",
        Value::object(vec![
            ("version", Value::str("1.2")),
            (
                "creator",
                Value::object(vec![
                    ("name", Value::str("panoptes-rs")),
                    ("version", Value::str(env!("CARGO_PKG_VERSION"))),
                ]),
            ),
            ("entries", Value::Array(entries)),
        ]),
    )])
}

/// Convenience: exports a whole store (zero-copy: renders straight off
/// the sealed snapshot, no per-flow clone).
pub fn store_to_har(store: &FlowStore) -> String {
    let snap = store.snapshot();
    json::to_string_pretty(&har_log(snap.iter().map(entry).collect()))
}

fn entry(flow: &Flow) -> Value {
    let query: Vec<Value> = url::query_pairs(&flow.url)
        .map(|(k, v)| Value::object(vec![("name", Value::str(k)), ("value", Value::str(v))]))
        .collect();
    let headers: Vec<Value> = flow
        .request_headers
        .iter()
        .map(|(n, v)| Value::object(vec![("name", Value::str(n)), ("value", Value::str(v))]))
        .collect();

    let mut request = vec![
        ("method", Value::str(flow.method.as_str())),
        ("url", Value::str(&flow.url)),
        ("httpVersion", Value::str(format!("HTTP/{}", http_version_label(flow)))),
        ("headers", Value::Array(headers)),
        ("queryString", Value::Array(query)),
        ("headersSize", Value::from(-1i64)),
        ("bodySize", Value::from(flow.request_body.len() as u64)),
    ];
    if !flow.request_body.is_empty() {
        request.push((
            "postData",
            Value::object(vec![
                ("mimeType", Value::str("application/octet-stream")),
                ("text", Value::str(&flow.request_body)),
            ]),
        ));
    }

    Value::object(vec![
        ("startedDateTime", Value::str(iso_time(flow.time_us))),
        ("time", Value::from(0u32)),
        ("request", Value::Object(request.into_iter().map(|(k, v)| (k.to_string(), v)).collect())),
        (
            "response",
            Value::object(vec![
                ("status", Value::from(flow.status as u32)),
                ("statusText", Value::str("")),
                ("httpVersion", Value::str(format!("HTTP/{}", http_version_label(flow)))),
                ("headers", Value::Array(vec![])),
                ("content", Value::object(vec![("size", Value::from(flow.bytes_in))])),
                ("headersSize", Value::from(-1i64)),
                ("bodySize", Value::from(flow.bytes_in)),
            ]),
        ),
        ("cache", Value::Object(vec![])),
        (
            "timings",
            Value::object(vec![
                ("send", Value::from(0u32)),
                ("wait", Value::from(0u32)),
                ("receive", Value::from(0u32)),
            ]),
        ),
        ("serverIPAddress", Value::str(flow.dst_ip.to_string())),
        // Panoptes extensions.
        ("_class", Value::str(flow.class.as_str())),
        ("_uid", Value::from(flow.uid)),
        ("_package", Value::str(&flow.package)),
    ])
}

fn http_version_label(flow: &Flow) -> &'static str {
    match flow.version {
        panoptes_http::request::HttpVersion::H1 => "1.1",
        panoptes_http::request::HttpVersion::H2 => "2",
        panoptes_http::request::HttpVersion::H3 => "3",
    }
}

/// Maps a virtual-time microsecond offset onto an ISO-8601 timestamp in
/// the anchored day (offsets beyond 24h spill into subsequent days).
fn iso_time(time_us: u64) -> String {
    let total_secs = time_us / 1_000_000;
    let millis = (time_us % 1_000_000) / 1_000;
    let days = total_secs / 86_400;
    let secs_of_day = total_secs % 86_400;
    let (h, m, s) = (secs_of_day / 3600, (secs_of_day % 3600) / 60, secs_of_day % 60);
    let (year, month, day) = EPOCH_ISO_DATE;
    format!(
        "{year:04}-{month:02}-{day:02}T{h:02}:{m:02}:{s:02}.{millis:03}Z",
        day = day + days
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use panoptes_http::netaddr::IpAddr;
    use crate::flow::FlowClass;
    use panoptes_http::method::Method;
    use panoptes_http::request::HttpVersion;

    fn flow() -> Flow {
        Flow {
            id: 1,
            time_us: 65_500_000, // t+65.5s
            uid: 10050,
            package: "ru.yandex.browser".into(),
            host: "sba.yandex.net".into(),
            dst_ip: IpAddr::new(77, 88, 0, 11),
            dst_port: 443,
            method: Method::Post,
            url: "https://sba.yandex.net/safety/check?url=abc".into(),
            request_headers: vec![("user-agent".into(), "YaBrowser".into())],
            request_body: "{\"x\":1}".into(),
            status: 204,
            bytes_out: 400,
            bytes_in: 90,
            version: HttpVersion::H2,
            class: FlowClass::Native,
        }
    }

    #[test]
    fn har_structure_is_valid_json_with_entries() {
        let har = to_har(&[flow()]);
        let text = json::to_string(&har);
        let parsed = json::parse(&text).unwrap();
        let log = parsed.get("log").unwrap();
        assert_eq!(log.get("version").unwrap().as_str(), Some("1.2"));
        let entries = log.get("entries").unwrap().as_array().unwrap();
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(e.get("_class").unwrap().as_str(), Some("native"));
        assert_eq!(e.get("serverIPAddress").unwrap().as_str(), Some("77.88.0.11"));
        let req = e.get("request").unwrap();
        assert_eq!(req.get("method").unwrap().as_str(), Some("POST"));
        let qs = req.get("queryString").unwrap().as_array().unwrap();
        assert_eq!(qs[0].get("name").unwrap().as_str(), Some("url"));
        assert_eq!(qs[0].get("value").unwrap().as_str(), Some("abc"));
        assert_eq!(
            e.get("response").unwrap().get("status").unwrap().as_i64(),
            Some(204)
        );
    }

    #[test]
    fn timestamps_map_virtual_time() {
        let har = to_har(&[flow()]);
        let text = json::to_string(&har);
        assert!(text.contains("2023-05-12T00:01:05.500Z"), "{text}");
    }

    #[test]
    fn store_export_is_pretty_and_parseable() {
        let store = FlowStore::new();
        store.push(flow());
        let text = store_to_har(&store);
        assert!(text.contains('\n'));
        assert!(json::parse(&text).is_ok());
    }

    #[test]
    fn empty_capture_yields_empty_entries() {
        let har = to_har(&[]);
        let entries = har.get("log").unwrap().get("entries").unwrap().as_array().unwrap();
        assert!(entries.is_empty());
    }
}
