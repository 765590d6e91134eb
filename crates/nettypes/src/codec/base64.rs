//! Base64 encoding and decoding (RFC 4648), standard and URL-safe alphabets.
//!
//! Implemented from scratch: the Panoptes analysis stage must try to decode
//! arbitrary query-parameter values to spot Base64-wrapped browsing-history
//! leaks (the Yandex `sba.yandex.net` case in §3.2 of the paper), so the
//! decoder is strict about alphabet membership but tolerant about padding —
//! real trackers emit both padded and unpadded forms.

const STD_ALPHABET: &[u8; 64] =
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
const URL_ALPHABET: &[u8; 64] =
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";

/// An error produced when decoding malformed Base64 input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum B64Error {
    /// A byte outside the active alphabet (and not padding) was found.
    InvalidByte {
        /// Offset of the offending byte in the input.
        index: usize,
        /// The offending byte value.
        byte: u8,
    },
    /// The input length is impossible for Base64 (e.g. `4n + 1` symbols).
    InvalidLength(usize),
    /// Padding appeared somewhere other than the final group.
    MisplacedPadding(usize),
}

impl std::fmt::Display for B64Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            B64Error::InvalidByte { index, byte } => {
                write!(f, "invalid base64 byte 0x{byte:02x} at offset {index}")
            }
            B64Error::InvalidLength(n) => write!(f, "invalid base64 length {n}"),
            B64Error::MisplacedPadding(i) => write!(f, "misplaced '=' padding at offset {i}"),
        }
    }
}

impl std::error::Error for B64Error {}

fn encode_with(alphabet: &[u8; 64], pad: bool, data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = *chunk.get(1).unwrap_or(&0) as u32;
        let b2 = *chunk.get(2).unwrap_or(&0) as u32;
        let triple = (b0 << 16) | (b1 << 8) | b2;
        out.push(alphabet[(triple >> 18) as usize & 0x3f] as char);
        out.push(alphabet[(triple >> 12) as usize & 0x3f] as char);
        if chunk.len() > 1 {
            out.push(alphabet[(triple >> 6) as usize & 0x3f] as char);
        } else if pad {
            out.push('=');
        }
        if chunk.len() > 2 {
            out.push(alphabet[triple as usize & 0x3f] as char);
        } else if pad {
            out.push('=');
        }
    }
    out
}

/// Each byte's 6-bit value in `alphabet`, or -1 outside it.
const fn decode_table(alphabet: &[u8; 64]) -> [i16; 256] {
    let mut table = [-1i16; 256];
    let mut i = 0;
    while i < alphabet.len() {
        table[alphabet[i] as usize] = i as i16;
        i += 1;
    }
    table
}

/// Built at compile time: the analysis decodes every observed value of
/// 8 bytes or more with both alphabets.
static STD_DECODE: [i16; 256] = decode_table(STD_ALPHABET);
static URL_DECODE: [i16; 256] = decode_table(URL_ALPHABET);

fn decode_with(table: &[i16; 256], input: &str) -> Result<Vec<u8>, B64Error> {
    let bytes = input.as_bytes();
    // Strip trailing padding (at most two '=').
    let mut end = bytes.len();
    let mut pad = 0usize;
    while pad < 2 && end > 0 && bytes[end - 1] == b'=' {
        end -= 1;
        pad += 1;
    }
    let body = &bytes[..end];
    if let Some(i) = body.iter().position(|&b| b == b'=') {
        return Err(B64Error::MisplacedPadding(i));
    }
    match body.len() % 4 {
        1 => return Err(B64Error::InvalidLength(bytes.len())),
        0 if pad > 0 && !body.len().is_multiple_of(4) => return Err(B64Error::InvalidLength(bytes.len())),
        _ => {}
    }
    // Check the whole alphabet before allocating: most values the
    // analysis tries are not Base64 at all.
    if let Some(index) = body.iter().position(|&b| table[b as usize] < 0) {
        return Err(B64Error::InvalidByte { index, byte: body[index] });
    }
    let mut out = Vec::with_capacity(body.len() * 3 / 4);
    let mut acc: u32 = 0;
    let mut nbits = 0u32;
    for &b in body {
        acc = (acc << 6) | table[b as usize] as u32;
        nbits += 6;
        if nbits >= 8 {
            nbits -= 8;
            out.push((acc >> nbits) as u8);
        }
    }
    Ok(out)
}

/// Encodes `data` with the standard alphabet and `=` padding.
pub fn b64_encode(data: &[u8]) -> String {
    encode_with(STD_ALPHABET, true, data)
}

/// Decodes standard-alphabet Base64; padding is accepted but not required.
pub fn b64_decode(input: &str) -> Result<Vec<u8>, B64Error> {
    decode_with(&STD_DECODE, input)
}

/// Encodes `data` with the URL-safe alphabet, without padding — the form
/// trackers typically embed in query strings.
pub fn b64_encode_url(data: &[u8]) -> String {
    encode_with(URL_ALPHABET, false, data)
}

/// Decodes URL-safe Base64; padding is accepted but not required.
pub fn b64_decode_url(input: &str) -> Result<Vec<u8>, B64Error> {
    decode_with(&URL_DECODE, input)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc4648_vectors() {
        assert_eq!(b64_encode(b""), "");
        assert_eq!(b64_encode(b"f"), "Zg==");
        assert_eq!(b64_encode(b"fo"), "Zm8=");
        assert_eq!(b64_encode(b"foo"), "Zm9v");
        assert_eq!(b64_encode(b"foob"), "Zm9vYg==");
        assert_eq!(b64_encode(b"fooba"), "Zm9vYmE=");
        assert_eq!(b64_encode(b"foobar"), "Zm9vYmFy");
    }

    #[test]
    fn decode_matches_encode() {
        for v in [&b""[..], b"f", b"fo", b"foo", b"foob", b"fooba", b"foobar"] {
            assert_eq!(b64_decode(&b64_encode(v)).unwrap(), v);
        }
    }

    #[test]
    fn decode_unpadded() {
        assert_eq!(b64_decode("Zm9vYg").unwrap(), b"foob");
    }

    #[test]
    fn url_safe_uses_dash_underscore() {
        let data = [0xfbu8, 0xff, 0xfe];
        let std = b64_encode(&data);
        let url = b64_encode_url(&data);
        assert!(std.contains('+') || std.contains('/'));
        assert!(!url.contains('+') && !url.contains('/') && !url.contains('='));
        assert_eq!(b64_decode_url(&url).unwrap(), data);
    }

    #[test]
    fn url_roundtrip_of_url_like_payload() {
        // The exact shape the Yandex phone-home leak uses: a full URL.
        let url = "https://www.youtube.com/watch?v=dQw4w9WgXcQ&t=42s";
        let enc = b64_encode_url(url.as_bytes());
        assert_eq!(b64_decode_url(&enc).unwrap(), url.as_bytes());
    }

    #[test]
    fn static_decode_tables_invert_their_alphabets() {
        for (alphabet, table) in [(STD_ALPHABET, &STD_DECODE), (URL_ALPHABET, &URL_DECODE)] {
            for (i, &b) in alphabet.iter().enumerate() {
                assert_eq!(table[b as usize], i as i16);
            }
            assert_eq!(table.iter().filter(|&&v| v >= 0).count(), 64);
        }
    }

    #[test]
    fn rejects_invalid_byte() {
        let err = b64_decode("Zm9!").unwrap_err();
        assert_eq!(err, B64Error::InvalidByte { index: 3, byte: b'!' });
    }

    #[test]
    fn rejects_misplaced_padding() {
        assert_eq!(b64_decode("Zm=9").unwrap_err(), B64Error::MisplacedPadding(2));
    }

    #[test]
    fn rejects_impossible_length() {
        assert_eq!(b64_decode("Zm9vY").unwrap_err(), B64Error::InvalidLength(5));
    }

    #[test]
    fn error_display_is_descriptive() {
        let msg = B64Error::InvalidByte { index: 3, byte: b'!' }.to_string();
        assert!(msg.contains("0x21") && msg.contains('3'));
    }
}
