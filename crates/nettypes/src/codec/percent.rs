//! Percent-encoding (RFC 3986) for URL components.

use std::borrow::Cow;

/// Returns true for bytes that never need escaping in any URL component
/// (RFC 3986 "unreserved" set).
fn is_unreserved(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'-' | b'.' | b'_' | b'~')
}

/// Percent-encodes `input` for use in a URL *path*: unreserved bytes and a
/// few path-safe delimiters (`/`, `:`, `@`) pass through.
pub fn percent_encode(input: &str) -> String {
    encode_with(input, |b| is_unreserved(b) || matches!(b, b'/' | b':' | b'@'))
}

/// Percent-encodes `input` for use as a query *component* (a key or a
/// value): only unreserved bytes pass through, so `&`, `=`, `+` and `/`
/// are all escaped.
pub fn percent_encode_component(input: &str) -> String {
    encode_with(input, is_unreserved)
}

/// Appends [`percent_encode_component`]'s output to `out`, so a caller
/// that is building a larger string (a URL's canonical text) encodes
/// in place.
pub(crate) fn percent_encode_component_into(out: &mut String, input: &str) {
    encode_into(out, input, is_unreserved);
}

/// True when `input` is its own [`percent_encode_component`]: it holds
/// only unreserved bytes.
pub(crate) fn is_unreserved_component(input: &str) -> bool {
    input.bytes().all(is_unreserved)
}

fn encode_with(input: &str, keep: impl Fn(u8) -> bool) -> String {
    let mut out = String::with_capacity(input.len());
    encode_into(&mut out, input, keep);
    out
}

fn encode_into(out: &mut String, input: &str, keep: impl Fn(u8) -> bool) {
    for &b in input.as_bytes() {
        if keep(b) {
            out.push(b as char);
        } else {
            out.push('%');
            out.push(char::from_digit((b >> 4) as u32, 16).unwrap().to_ascii_uppercase());
            out.push(char::from_digit((b & 0xf) as u32, 16).unwrap().to_ascii_uppercase());
        }
    }
}

/// Decodes percent-escapes. Invalid escapes (`%` not followed by two hex
/// digits) are passed through literally — the lenient behaviour real
/// traffic analysis needs, since trackers emit malformed escapes.
pub fn percent_decode(input: &str) -> String {
    let bytes = input.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hi = bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16));
            let lo = bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16));
            if let (Some(hi), Some(lo)) = (hi, lo) {
                out.push((hi * 16 + lo) as u8);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// [`percent_decode`], borrowing `input` when it holds no `%`: only an
/// escape can make the decoded text differ from the input, so only a
/// value with one allocates.
pub fn percent_decode_cow(input: &str) -> Cow<'_, str> {
    if input.contains('%') {
        Cow::Owned(percent_decode(input))
    } else {
        Cow::Borrowed(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_escapes_reserved() {
        assert_eq!(percent_encode_component("a=b&c"), "a%3Db%26c");
        assert_eq!(percent_encode_component("hello world"), "hello%20world");
        assert_eq!(percent_encode_component("safe-._~"), "safe-._~");
    }

    #[test]
    fn path_keeps_slashes() {
        assert_eq!(percent_encode("/watch/v 1"), "/watch/v%201");
    }

    #[test]
    fn decode_roundtrip() {
        for s in ["", "plain", "a=b&c d", "ünïcode/✓", "100%"] {
            assert_eq!(percent_decode(&percent_encode_component(s)), s);
        }
    }

    #[test]
    fn encoding_into_matches_encoder() {
        for s in ["", "plain", "a=b&c d", "ünïcode/✓", "100%", "safe-._~"] {
            let mut out = String::from("x");
            percent_encode_component_into(&mut out, s);
            assert_eq!(out, format!("x{}", percent_encode_component(s)));
            assert_eq!(is_unreserved_component(s), percent_encode_component(s) == s);
        }
    }

    #[test]
    fn cow_decode_borrows_only_without_escapes() {
        for s in ["", "plain", "a=b&c d", "ünïcode/✓", "100%", "%zz", "a%20b", "%FF"] {
            let decoded = percent_decode_cow(s);
            assert_eq!(decoded, percent_decode(s));
            assert_eq!(matches!(decoded, Cow::Borrowed(_)), !s.contains('%'));
        }
    }

    #[test]
    fn lenient_on_malformed_escape() {
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("%4"), "%4");
    }

    #[test]
    fn decodes_mixed_case_hex() {
        assert_eq!(percent_decode("%2f%2F"), "//");
    }
}
