//! Binary-to-text codecs used throughout the measurement pipeline.
//!
//! The paper observed the Yandex browser Base64-encoding the visited URL
//! inside a query parameter of its phone-home request (§3.2), so the
//! analysis side needs both encoding (to build realistic browser traffic)
//! and decoding (to detect such leaks). Percent-encoding is required for
//! URL query serialization, and hex for identifier rendering.

pub mod base64;
pub mod hex;
pub mod percent;

pub use base64::{b64_decode, b64_decode_url, b64_encode, b64_encode_url};
pub use hex::{hex_decode, hex_encode};
pub use percent::{percent_decode, percent_decode_cow, percent_encode, percent_encode_component};
