//! # panoptes
//!
//! The Panoptes framework itself — the paper's contribution (§2): an
//! automated harness that instruments mobile browsers, drives crawling
//! campaigns, and captures their traffic split into **web-engine** and
//! **native** flows.
//!
//! The pipeline per browser campaign:
//!
//! 1. assemble a fresh testbed: simulated tablet, network, the MITM
//!    proxy with the taint-splitting addon, and the simulated Web,
//! 2. factory-reset the browser with the Appium driver, launch it under
//!    Frida, and complete the setup wizard (§2.1),
//! 3. install the per-UID iptables rules: drop QUIC, divert TCP 80/443
//!    to the proxy (§2.2),
//! 4. open a CDP session (or Frida hooks for non-CDP browsers) whose
//!    request tap injects the campaign's taint header (§2.3),
//! 5. navigate to each site directly (never via the address bar), wait
//!    for `DOMContentLoaded` or 60 s, then 5 s more (§2.1),
//! 6. store engine and native flows in their databases.
//!
//! [`idle`] implements the §3.5 idle experiment on the same rig;
//! [`archive`] persists a campaign (capture + ground truth) losslessly
//! for offline re-analysis; [`fleet`] runs many campaign units across a
//! bounded worker pool with byte-identical, order-preserved output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod campaign;
pub mod config;
pub mod fleet;
pub mod idle;
pub mod testbed;

pub use campaign::{run_crawl, CampaignResult, VisitRecord};
pub use config::CampaignConfig;
pub use fleet::{FleetError, FleetOptions, FleetUnit, UnitKind, UnitOutput};
pub use idle::{run_idle, IdleResult};
pub use testbed::Testbed;
