//! # panoptes-serve
//!
//! Panoptes as a service: a long-running, multi-tenant study server
//! over the capture→analysis pipeline (ROADMAP item 1).
//!
//! The offline `repro` binary runs one study and exits; this crate
//! keeps the pipeline resident and serves many concurrent studies over
//! HTTP, streaming each study's sections incrementally (SSE or JSONL)
//! as its phases complete. The served bytes are **byte-identical** to
//! the offline binary's stdout for the same parameters — both paths
//! run each unit through the same unit job, assemble each phase and
//! print it through the same [`panoptes_bench::study`] and
//! [`panoptes_bench::render`] code, so identity holds by construction
//! and is enforced by the `serve_determinism` suite.
//!
//! The perf core is cross-request sharing:
//!
//! * [`cache`] — a keyed shared-artifact cache (world plans, compiled
//!   filterlist DFAs, sampled browser populations, analysis resources,
//!   and whole rendered study documents) with single-flight
//!   construction and LRU eviction under a byte budget;
//! * the fleet's `WorkPool` — a work-conserving scheduler interleaving
//!   `(browser, crawl|idle)` units from many studies over one worker
//!   pool, with per-request lanes, credit-gated backpressure (a slow
//!   client throttles only its own study), and cancellation on client
//!   disconnect;
//! * admission control — a bounded count of active + waiting studies;
//!   beyond it the server answers `503` instead of queueing unbounded
//!   work.
//!
//! Everything is hand-rolled on `std::net` blocking sockets — the
//! workspace is air-gapped (compat shims only), and the study units
//! are CPU-bound simulation work, so an async reactor would buy
//! nothing a warm handler thread per connection doesn't already
//! provide: the accept loop hands each connection to a parked handler
//! and spawns one only when none is parked.
//!
//! Operating the server is its own concern, served by three newer
//! modules: request-scoped tracing and per-request latency attribution
//! (the `timing` trailer, wired through [`study`] on top of
//! `panoptes_obs::ctx`), the always-on [`flightrec`] flight recorder
//! with its stall watchdog and panic hook, and the offline [`doctor`]
//! analyzer behind the `panoptes-doctor` bin that turns trace JSONL or
//! flight dumps into per-request waterfalls and cache causality.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod doctor;
pub mod flightrec;
pub mod http;
pub mod json;
pub mod server;
pub mod study;
