//! HTTP requests with wire-size accounting.

use bytes::Bytes;

use crate::atom::Atom;
use crate::headers::Headers;
use crate::method::Method;
use crate::url::Url;

/// The application protocol a request was attempted over. The packet filter
/// blocks QUIC (HTTP/3) exactly as Panoptes does (§2.2), forcing browsers
/// to fall back to h2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HttpVersion {
    /// HTTP/1.1 over TCP.
    H1,
    /// HTTP/2 over TCP.
    H2,
    /// HTTP/3 over QUIC/UDP.
    H3,
}

impl HttpVersion {
    /// Wire label (`"h1"`, `"h2"`, `"h3"`).
    pub fn as_str(self) -> &'static str {
        match self {
            HttpVersion::H1 => "h1",
            HttpVersion::H2 => "h2",
            HttpVersion::H3 => "h3",
        }
    }

    /// Parses the label produced by [`Self::as_str`].
    pub fn parse(s: &str) -> Option<HttpVersion> {
        Some(match s {
            "h1" => HttpVersion::H1,
            "h2" => HttpVersion::H2,
            "h3" => HttpVersion::H3,
            _ => return None,
        })
    }
}

/// An outgoing HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Absolute target URL.
    pub url: Url,
    /// Header fields in wire order.
    pub headers: Headers,
    /// Request body (empty for GET/HEAD).
    pub body: Bytes,
    /// Protocol version the client wants to use.
    pub version: HttpVersion,
}

impl Request {
    /// Builds a GET request with no body.
    pub fn get(url: Url) -> Request {
        Request {
            method: Method::Get,
            url,
            headers: Headers::new(),
            body: Bytes::new(),
            version: HttpVersion::H2,
        }
    }

    /// Builds a POST request with the given body.
    pub fn post(url: Url, body: impl Into<Bytes>) -> Request {
        Request {
            method: Method::Post,
            url,
            headers: Headers::new(),
            body: body.into(),
            version: HttpVersion::H2,
        }
    }

    /// Adds a header (builder style).
    pub fn with_header(mut self, name: impl Into<Atom>, value: impl Into<Atom>) -> Request {
        self.headers.append(name, value);
        self
    }

    /// Sets the protocol version (builder style).
    pub fn with_version(mut self, version: HttpVersion) -> Request {
        self.version = version;
        self
    }

    /// Estimated bytes this request occupies on the wire: request line,
    /// headers, separator and body. This is the quantity summed for the
    /// paper's Figure 4 (outgoing traffic volume).
    pub fn wire_size(&self) -> u64 {
        let request_line =
            self.method.as_str().len() as u64 + 1 + self.url.as_str().len() as u64 + 11;
        request_line + self.headers.wire_size() + 2 + self.body.len() as u64
    }

    /// Convenience: the target hostname.
    pub fn host(&self) -> &str {
        self.url.host()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_builder() {
        let r = Request::get(Url::parse("https://example.com/a").unwrap())
            .with_header("User-Agent", "test");
        assert_eq!(r.method, Method::Get);
        assert_eq!(r.host(), "example.com");
        assert_eq!(r.headers.get("user-agent"), Some("test"));
        assert!(r.body.is_empty());
    }

    #[test]
    fn wire_size_grows_with_body_and_headers() {
        let url = Url::parse("https://example.com/a").unwrap();
        let bare = Request::get(url.clone());
        let with_header = Request::get(url.clone()).with_header("A", "1");
        let with_body = Request::post(url, vec![0u8; 100]);
        assert!(with_header.wire_size() > bare.wire_size());
        assert!(with_body.wire_size() > bare.wire_size() + 99);
    }

    #[test]
    fn version_labels_roundtrip() {
        for v in [HttpVersion::H1, HttpVersion::H2, HttpVersion::H3] {
            assert_eq!(HttpVersion::parse(v.as_str()), Some(v));
        }
        assert_eq!(HttpVersion::parse("spdy"), None);
    }
}
