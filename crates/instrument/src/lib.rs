//! # panoptes-instrument
//!
//! The instrumentation substrates Panoptes drives browsers with (§2.1,
//! §2.3 of the paper):
//!
//! * [`appium`] — an Appium-like lifecycle driver: factory-reset an app,
//!   launch it, and walk its first-run setup wizard,
//! * [`cdp`] — a Chrome-DevTools-Protocol-like session: `Page.navigate`,
//!   lifecycle events (`DOMContentLoaded`), and network-layer request
//!   interception used to piggyback the taint header,
//! * [`frida`] — a Frida-like dynamic-hooking engine for browsers that do
//!   not speak CDP: hook the WebView's load/request functions, or an
//!   internal API (the UC International case),
//! * [`tap`] — the [`tap::RequestTap`] contract both mechanisms
//!   implement: a callback the web engine invokes on every
//!   website-initiated request, which is where the taint is injected.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod appium;
pub mod cdp;
pub mod frida;
pub mod tap;

pub use appium::AppiumDriver;
pub use cdp::{CdpEvent, CdpSession};
pub use frida::{FridaHook, FridaSession};
pub use tap::{Instrumentation, RequestTap, TaintInjector};
