//! # panoptes-analysis
//!
//! The measurement analyses of the paper's §3, run against captured flow
//! databases. Each detector module holds one artefact's result rows and
//! its `Partial` accumulator — the detector's only
//! implementation. [`engine`] is the only code that walks a capture and
//! feeds them; callers read the fields of one
//! [`engine::CampaignAnalysis`] or [`engine::IdleAnalysis`].
//!
//! * [`engine`] — the fused single-pass study engine:
//!   [`engine::capture_crawl`] folds every flow into every detector as
//!   the crawl captures it, and [`engine::analyze_crawl`] and
//!   [`engine::analyze_idle`] fold a stored capture the same way,
//! * [`scan`] — key/value observation extraction and decoding,
//! * [`volume`] — Figure 2 (request counts + native/engine ratio) and
//!   Figure 4 (outgoing traffic volume),
//! * [`addomains`] — Figure 3 (% of distinct native-contact domains that
//!   are third-party/ad-related, per the Steven Black list),
//! * [`history`] — §3.2: browsing-history leak detection at three
//!   granularities (full URL — plain, percent- or Base64-encoded —
//!   hostname, registrable domain), persistent-identifier detection,
//!   and the JS-injection channel,
//! * [`pii`] — Table 2: PII / device-information extraction from query
//!   parameters and JSON bodies via keyword + value heuristics,
//! * [`dns`] — §3.2's DoH-vs-stub split,
//! * [`transfers`] — §3.4: international transfers of history leaks,
//! * [`incognito`] — §3.2's incognito comparison of two analyses,
//! * [`sensitive`] — §3.2's sensitive-category leak check,
//! * [`idle`] — Figure 5 timelines and §3.5 destination shares,
//! * [`summary`] — a machine-readable JSON document of every result,
//! * [`compare`] — per-browser deltas between two studies' analyses
//!   (longitudinal / A-B workflows),
//! * [`identifiers`] — stable device/user identifiers across native
//!   destinations (Listing 1's `operaId` pattern),
//! * [`cost`] — §3.1's user-borne costs: data-plan bytes and radio
//!   energy attributable to native tracking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addomains;
pub mod compare;
pub mod cost;
pub mod dns;
pub mod engine;
pub mod history;
pub mod identifiers;
pub mod idle;
pub mod incognito;
pub mod pii;
pub mod scan;
pub mod sensitive;
pub mod summary;
pub mod transfers;
pub mod volume;
