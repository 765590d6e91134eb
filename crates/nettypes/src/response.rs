//! HTTP responses with wire-size accounting.

use std::sync::{Mutex, OnceLock};

use bytes::Bytes;

use crate::atom::Atom;
use crate::headers::{vocab, Headers};
use crate::status::StatusCode;

/// Returns `size` filler bytes (`b'.'`) as a zero-copy slice of a shared
/// buffer, growing the buffer geometrically when a larger size appears.
/// The simulated web serves tens of thousands of sized bodies per study;
/// sharing one allocation removes a `vec![b'.'; size]` per response.
fn filler(size: usize) -> Bytes {
    static FILLER: OnceLock<Mutex<Bytes>> = OnceLock::new();
    let cell = FILLER.get_or_init(|| Mutex::new(Bytes::from(vec![b'.'; 64 * 1024])));
    let mut buf = cell.lock().expect("filler buffer poisoned");
    if buf.len() < size {
        *buf = Bytes::from(vec![b'.'; size.next_power_of_two()]);
    }
    buf.slice(..size)
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
        // Grow first so the buffer is stable for the sharing check even
        // when other tests run concurrently.
        let big = Response::sized(200_000);
        assert_eq!(big.body.len(), 200_000);
        assert!(big.body.iter().all(|&c| c == b'.'));
        let a = Response::sized(100);
        let b = Response::sized(40);
        assert_eq!(a.body.as_ptr(), b.body.as_ptr());
        assert!(a.body.iter().all(|&c| c == b'.'));
    }

    #[test]
    fn status_builder() {
        let r = Response::status(StatusCode::BAD_GATEWAY);
        assert_eq!(r.status.0, 502);
        assert!(r.body.is_empty());
    }
}
