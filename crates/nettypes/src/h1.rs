//! HTTP/1.1 wire serialization and parsing.
//!
//! The simulator moves typed [`Request`]/[`Response`] values, but a
//! measurement toolkit must also speak the wire format: the flow stores
//! export raw exchanges, tests feed hand-written requests through the
//! proxy, and the `wire_size` accounting used for Figure 4 is defined by
//! exactly this rendering.

use bytes::Bytes;

use crate::headers::Headers;
use crate::method::Method;
use crate::request::{HttpVersion, Request};
use crate::response::Response;
use crate::status::StatusCode;
use crate::url::{Scheme, Url};

/// An HTTP/1.1 parse error with a human-readable cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct H1Error(pub String);

impl std::fmt::Display for H1Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "http/1.1 parse error: {}", self.0)
    }
}

impl std::error::Error for H1Error {}

fn err(message: &str) -> H1Error {
    H1Error(message.to_string())
}

/// Renders a request in origin-form (`GET /path?query HTTP/1.1` with a
/// `Host` header), the shape a transparent proxy sees after TLS.
pub fn render_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    // Everything after the authority, borrowed from the URL's text.
    let text = req.url.as_str();
    let after_scheme = &text[req.url.scheme().as_str().len() + "://".len()..];
    let path_and_query = after_scheme.find('/').map_or("/", |i| &after_scheme[i..]);
    out.extend_from_slice(req.method.as_str().as_bytes());
    out.push(b' ');
    out.extend_from_slice(path_and_query.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\n");
    out.extend_from_slice(b"host: ");
    out.extend_from_slice(req.url.host().as_bytes());
    out.extend_from_slice(b"\r\n");
    for (name, value) in req.headers.iter() {
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    if !req.body.is_empty() {
        out.extend_from_slice(format!("content-length: {}\r\n", req.body.len()).as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(&req.body);
    out
}

/// Parses an origin-form request (the output of [`render_request`]).
/// The scheme is supplied by the caller (the proxy knows whether the
/// connection was TLS).
pub fn parse_request(input: &[u8], https: bool) -> Result<Request, H1Error> {
    let (head, body) = split_head(input)?;
    let mut lines = head.split(|&b| b == b'\n').map(trim_cr);
    let request_line =
        std::str::from_utf8(lines.next().ok_or_else(|| err("empty input"))?)
            .map_err(|_| err("non-utf8 request line"))?;
    let mut parts = request_line.split(' ');
    let method = Method::parse(parts.next().unwrap_or_default())
        .ok_or_else(|| err("bad method"))?;
    let target = parts.next().ok_or_else(|| err("missing target"))?;
    match parts.next() {
        Some("HTTP/1.1") | Some("HTTP/1.0") => {}
        _ => return Err(err("bad http version")),
    }
    if !target.starts_with('/') {
        return Err(err("target must be origin-form"));
    }

    let mut headers = Headers::new();
    let mut host: Option<String> = None;
    let mut content_length: usize = 0;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let line = std::str::from_utf8(line).map_err(|_| err("non-utf8 header"))?;
        let (name, value) = line.split_once(':').ok_or_else(|| err("malformed header"))?;
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("host") {
            host = Some(value.to_string());
        } else if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().map_err(|_| err("bad content-length"))?;
        } else {
            headers.append(name, value);
        }
    }
    let host = host.ok_or_else(|| err("missing Host header"))?;
    if body.len() < content_length {
        return Err(err("truncated body"));
    }

    let scheme = if https { Scheme::Https } else { Scheme::Http };
    let url = Url::parse_parts(scheme, &host, target)
        .map_err(|e| err(&format!("bad target url: {e}")))?;
    Ok(Request {
        method,
        url,
        headers,
        body: Bytes::copy_from_slice(&body[..content_length]),
        version: HttpVersion::H1,
    })
}

/// Renders a response (`HTTP/1.1 200 OK ...`).
pub fn render_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(
        format!("HTTP/1.1 {} {}\r\n", resp.status.0, resp.status.reason()).as_bytes(),
    );
    for (name, value) in resp.headers.iter() {
        out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
    }
    if !resp.headers.contains("content-length") {
        out.extend_from_slice(format!("content-length: {}\r\n", resp.body.len()).as_bytes());
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(&resp.body);
    out
}

/// Parses a response rendered by [`render_response`].
pub fn parse_response(input: &[u8]) -> Result<Response, H1Error> {
    let (head, body) = split_head(input)?;
    let mut lines = head.split(|&b| b == b'\n').map(trim_cr);
    let status_line = std::str::from_utf8(lines.next().ok_or_else(|| err("empty input"))?)
        .map_err(|_| err("non-utf8 status line"))?;
    let mut parts = status_line.split(' ');
    match parts.next() {
        Some("HTTP/1.1") | Some("HTTP/1.0") => {}
        _ => return Err(err("bad http version")),
    }
    let code: u16 = parts
        .next()
        .ok_or_else(|| err("missing status"))?
        .parse()
        .map_err(|_| err("bad status code"))?;

    let mut headers = Headers::new();
    let mut content_length: Option<usize> = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let line = std::str::from_utf8(line).map_err(|_| err("non-utf8 header"))?;
        let (name, value) = line.split_once(':').ok_or_else(|| err("malformed header"))?;
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            content_length = Some(value.parse().map_err(|_| err("bad content-length"))?);
        } else {
            headers.append(name, value);
        }
    }
    let content_length = content_length.unwrap_or(body.len());
    if body.len() < content_length {
        return Err(err("truncated body"));
    }
    Ok(Response {
        status: StatusCode(code),
        headers,
        body: Bytes::copy_from_slice(&body[..content_length]),
    })
}

fn split_head(input: &[u8]) -> Result<(&[u8], &[u8]), H1Error> {
    let sep = input
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| err("missing header terminator"))?;
    Ok((&input[..sep], &input[sep + 4..]))
}

fn trim_cr(line: &[u8]) -> &[u8] {
    line.strip_suffix(b"\r").unwrap_or(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = Request::post(
            Url::parse("https://sba.yandex.net/safety/check?url=abc&x=1").unwrap(),
            &b"payload"[..],
        )
        .with_header("user-agent", "YaBrowser/23.3")
        .with_header("accept", "*/*");
        let wire = render_request(&req);
        let parsed = parse_request(&wire, true).unwrap();
        assert_eq!(parsed.method, Method::Post);
        assert_eq!(parsed.url.host(), "sba.yandex.net");
        assert_eq!(parsed.url.query_param("url").as_deref(), Some("abc"));
        assert_eq!(parsed.headers.get("user-agent"), Some("YaBrowser/23.3"));
        assert_eq!(&parsed.body[..], b"payload");
    }

    #[test]
    fn request_wire_shape() {
        let req = Request::get(Url::parse("https://example.com/a?b=c").unwrap());
        let wire = String::from_utf8(render_request(&req)).unwrap();
        assert!(wire.starts_with("GET /a?b=c HTTP/1.1\r\n"));
        assert!(wire.contains("host: example.com\r\n"));
        assert!(wire.ends_with("\r\n\r\n"));
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::ok("hello world").with_header("content-type", "text/plain");
        let wire = render_response(&resp);
        let parsed = parse_response(&wire).unwrap();
        assert_eq!(parsed.status, StatusCode::OK);
        assert_eq!(parsed.headers.get("content-type"), Some("text/plain"));
        assert_eq!(&parsed.body[..], b"hello world");
    }

    #[test]
    fn scheme_follows_tls_flag() {
        let req = Request::get(Url::parse("http://example.com/x").unwrap());
        let wire = render_request(&req);
        let tls = parse_request(&wire, true).unwrap();
        assert_eq!(tls.url.scheme().as_str(), "https");
        let plain = parse_request(&wire, false).unwrap();
        assert_eq!(plain.url.scheme().as_str(), "http");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            &b""[..],
            b"GARBAGE\r\n\r\n",
            b"GET /x HTTP/1.1\r\n\r\n",            // no Host
            b"FETCH /x HTTP/1.1\r\nhost: a\r\n\r\n", // bad method
            b"GET x HTTP/1.1\r\nhost: a\r\n\r\n",  // non-origin-form
            b"GET /x HTTP/9\r\nhost: a\r\n\r\n",   // bad version
            b"GET /x HTTP/1.1\r\nhost: a\r\ncontent-length: 10\r\n\r\nshort", // truncated
        ] {
            assert!(parse_request(bad, true).is_err(), "{bad:?}");
        }
        assert!(parse_response(b"HTTP/1.1 not-a-code x\r\n\r\n").is_err());
        assert!(parse_response(b"nonsense").is_err());
    }

    #[test]
    fn missing_content_length_takes_whole_body() {
        let wire = b"HTTP/1.1 200 OK\r\nx: y\r\n\r\nbody-bytes";
        let parsed = parse_response(wire).unwrap();
        assert_eq!(&parsed.body[..], b"body-bytes");
    }
}
