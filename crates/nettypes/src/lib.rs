//! # panoptes-http
//!
//! HTTP substrate for the Panoptes reproduction: the wire-level value types
//! every other crate speaks.
//!
//! The paper's measurement pipeline (IMC '23, "Not only E.T. Phones Home")
//! lives entirely at the HTTP layer: it taints requests with a custom `x-`
//! header, inspects URLs and query parameters for leaked browsing history,
//! Base64-decodes suspicious parameter values, and parses JSON ad-SDK bodies
//! (Listing 1 of the paper). This crate provides all of that from scratch:
//!
//! * [`url::Url`] — a parser for absolute `http`/`https` URLs that keeps
//!   each URL's canonical wire text, with query parameter access and
//!   registrable-domain extraction,
//! * [`headers::Headers`] — an ordered, case-insensitive header multimap,
//! * [`request::Request`] / [`response::Response`] — HTTP messages with
//!   wire-size estimation (needed for the paper's Figure 4 volume analysis),
//! * [`cookie`] — cookie parsing and a per-origin jar,
//! * [`h1`] — HTTP/1.1 wire rendering and parsing,
//! * [`hash`] — the workspace's hash functions: the fixed hasher of
//!   program-keyed maps ([`hash::FastMap`]) and FNV-1a,
//! * [`codec`] — Base64 (standard and URL-safe), percent and hex codecs,
//! * [`json`] — a small, strict JSON parser and writer used for flow-store
//!   persistence and for decoding ad-SDK request bodies,
//! * [`netaddr`] — IPv4/CIDR helpers shared by the simulator and the
//!   geolocation database.
//!
//! ```
//! use panoptes_http::{Url, codec};
//!
//! // The Yandex leak shape: a full URL, Base64-wrapped in a query param.
//! let visited = "https://www.youtube.com/watch?v=abc";
//! let phone_home = Url::parse("https://sba.yandex.net/safety/check")
//!     .unwrap()
//!     .with_query_param("url", &codec::b64_encode_url(visited.as_bytes()));
//!
//! // ... and the analysis side recovers it.
//! let param = phone_home.query_param("url").unwrap();
//! let recovered = String::from_utf8(codec::b64_decode_url(&param).unwrap()).unwrap();
//! assert_eq!(recovered, visited);
//! assert_eq!(phone_home.registrable_domain(), "yandex.net");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atom;
pub mod codec;
pub mod cookie;
pub mod h1;
pub mod hash;
pub mod headers;
pub mod json;
pub mod method;
pub mod netaddr;
pub mod request;
pub mod response;
pub mod status;
pub mod url;
pub mod useragent;

pub use atom::Atom;
pub use cookie::{Cookie, CookieJar};
pub use headers::Headers;
pub use method::Method;
pub use netaddr::{Cidr, IpAddr};
pub use request::Request;
pub use response::Response;
pub use status::StatusCode;
pub use url::Url;
