//! # panoptes-web
//!
//! A deterministic simulated Web replacing the live Internet the paper
//! crawled. The paper's workload is "the top 500 most popular websites
//! based on the Tranco list" plus "an extra 500 websites that are
//! associated with sensitive information based on the Curlie directory"
//! (§3); this crate generates an equivalent 1000-site population with
//! realistic page structure (first-party documents and assets, CDN
//! resources, third-party ad/analytics embeds) plus the entire server
//! side: origin servers, vendor phone-home endpoints, ad exchanges and
//! DoH resolvers, each hosted at an address drawn from the country block
//! the `panoptes-geo` plan assigns it.
//!
//! * [`site`] — site and page models, sensitive categories,
//! * [`generator`] — the seeded Tranco/Curlie-like population generator,
//! * [`thirdparty`] — the ad/analytics/CDN networks sites embed,
//! * [`vendors`] — vendor endpoints browsers phone home to,
//! * [`origin`] — the shared origin-server handler,
//! * [`world`] — assembly: build everything and install it on a
//!   [`panoptes_simnet::Network`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generator;
pub mod origin;
pub mod site;
pub mod thirdparty;
pub mod vendors;
pub mod world;

pub use site::{PageSpec, ResourceKind, ResourceSpec, SensitiveCategory, SiteCategory, SiteSpec};
pub use world::World;
