//! HTTP status codes.

/// An HTTP response status code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StatusCode(pub u16);

impl StatusCode {
    /// 200 OK
    pub const OK: StatusCode = StatusCode(200);
    /// 204 No Content
    pub const NO_CONTENT: StatusCode = StatusCode(204);
    /// 301 Moved Permanently
    pub const MOVED_PERMANENTLY: StatusCode = StatusCode(301);
    /// 302 Found
    pub const FOUND: StatusCode = StatusCode(302);
    /// 400 Bad Request
    pub const BAD_REQUEST: StatusCode = StatusCode(400);
    /// 403 Forbidden
    pub const FORBIDDEN: StatusCode = StatusCode(403);
    /// 404 Not Found
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    /// 502 Bad Gateway — what the MITM proxy returns when the upstream
    /// handshake fails.
    pub const BAD_GATEWAY: StatusCode = StatusCode(502);

    /// True for 2xx codes.
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }

    /// True for 3xx codes.
    pub fn is_redirect(self) -> bool {
        (300..400).contains(&self.0)
    }

    /// Canonical reason phrase for the codes this suite emits.
    pub fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            204 => "No Content",
            301 => "Moved Permanently",
            302 => "Found",
            304 => "Not Modified",
            400 => "Bad Request",
            403 => "Forbidden",
            404 => "Not Found",
            502 => "Bad Gateway",
            _ => "Unknown",
        }
    }
}

impl std::fmt::Display for StatusCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.0, self.reason())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(StatusCode::OK.is_success());
        assert!(StatusCode::NO_CONTENT.is_success());
        assert!(!StatusCode::FOUND.is_success());
        assert!(StatusCode::FOUND.is_redirect());
        assert!(!StatusCode::NOT_FOUND.is_redirect());
    }

    #[test]
    fn display_includes_reason() {
        assert_eq!(StatusCode::OK.to_string(), "200 OK");
        assert_eq!(StatusCode(502).to_string(), "502 Bad Gateway");
    }
}
