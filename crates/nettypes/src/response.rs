//! HTTP responses with wire-size accounting.

use bytes::Bytes;

use crate::atom::Atom;
use crate::headers::{vocab, Headers};
use crate::status::StatusCode;

/// The filler data behind sized bodies: 256 KiB of `b'.'`, above the
/// simulated web's largest document (150,000 bytes).
static FILLER: [u8; 256 * 1024] = [b'.'; 256 * 1024];

/// Returns `size` filler bytes (`b'.'`). Up to the static [`FILLER`]'s
/// length the body is a static view of it: no allocation, no lock, and
/// no reference count that the workers serving tens of thousands of
/// sized bodies per study would share. A larger size, which the
/// simulated web never serves, gets a buffer of its own.
fn filler(size: usize) -> Bytes {
    match FILLER.get(..size) {
        Some(view) => Bytes::from_static(view),
        None => Bytes::from(vec![b'.'; size]),
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: StatusCode,
    /// Header fields in wire order.
    pub headers: Headers,
    /// Response body.
    pub body: Bytes,
}

impl Response {
    /// Builds a `200 OK` response with the given body.
    pub fn ok(body: impl Into<Bytes>) -> Response {
        Response { status: StatusCode::OK, headers: Headers::new(), body: body.into() }
    }

    /// Builds an empty response with the given status.
    pub fn status(status: StatusCode) -> Response {
        Response { status, headers: Headers::new(), body: Bytes::new() }
    }

    /// Builds an `OK` response whose body is `size` filler bytes — the
    /// simulated web serves *sized* content, not real content, since only
    /// volumes and structure matter to the measurement. The length is a
    /// per-response value, so it stays out of the intern table.
    pub fn sized(size: usize) -> Response {
        let mut r = Response::ok(filler(size));
        r.headers.set(vocab().content_length.clone(), Atom::owned(&size.to_string()));
        r
    }

    /// Adds a header (builder style).
    pub fn with_header(mut self, name: impl Into<Atom>, value: impl Into<Atom>) -> Response {
        self.headers.append(name, value);
        self
    }

    /// Estimated bytes on the wire: status line, headers, separator, body.
    pub fn wire_size(&self) -> u64 {
        let status_line = 15 + self.status.reason().len() as u64;
        status_line + self.headers.wire_size() + 2 + self.body.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sized_sets_content_length() {
        let r = Response::sized(1234);
        assert_eq!(r.body.len(), 1234);
        assert_eq!(r.headers.get("content-length"), Some("1234"));
        assert!(r.status.is_success());
    }

    #[test]
    fn wire_size_includes_body() {
        let small = Response::sized(10);
        let big = Response::sized(1000);
        assert!(big.wire_size() >= small.wire_size() + 990);
    }

    #[test]
    fn sized_bodies_share_the_filler_buffer() {
        let big = Response::sized(200_000);
        assert_eq!(big.body.len(), 200_000);
        assert!(big.body.iter().all(|&c| c == b'.'));
        let a = Response::sized(100);
        let b = Response::sized(40);
        assert_eq!(a.body.as_ptr(), b.body.as_ptr());
        assert!(a.body.iter().all(|&c| c == b'.'));
        // The shared buffer is the static filler itself, so a template
        // clone copies a pointer.
        assert_eq!(a.body.as_ptr(), FILLER.as_ptr());
        assert_eq!(big.clone().body.as_ptr(), FILLER.as_ptr());
        // Beyond the static filler a body gets a buffer of its own.
        let huge = Response::sized(FILLER.len() + 1);
        assert_eq!(huge.body.len(), FILLER.len() + 1);
        assert!(huge.body.iter().all(|&c| c == b'.'));
        assert_ne!(huge.body.as_ptr(), FILLER.as_ptr());
    }

    #[test]
    fn status_builder() {
        let r = Response::status(StatusCode::BAD_GATEWAY);
        assert_eq!(r.status.0, 502);
        assert!(r.body.is_empty());
    }
}
