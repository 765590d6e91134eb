//! # panoptes-obs
//!
//! Observability for the measurement instrument itself. Panoptes is a
//! measurement rig, yet before this crate its own runtime was
//! unmeasured: the only visibility into a study run was unstructured
//! progress lines. This crate threads two first-class signals through
//! the whole capture→analysis pipeline:
//!
//! * **metrics** ([`metrics`]) — a sharded registry of counters,
//!   gauges and fixed-log2-bucket histograms. Every metric is declared
//!   with a [`metrics::MetricClass`]: *deterministic* metrics are pure
//!   functions of the workload (event/flow/detector tallies — byte-
//!   identical across worker counts), *runtime* metrics describe how this
//!   particular execution went (timings, worker topology, process-
//!   lifetime cache state) and are excluded from the byte-identity
//!   guarantee. [`report::render`] keeps the two sections strictly
//!   apart so the deterministic half can be asserted byte-identical.
//! * **traces** ([`trace`]) — `tracing`-style spans and point events
//!   with **dual timestamps** (wall-clock nanoseconds since process
//!   start *and* the virtual sim-clock microseconds, when the caller
//!   is inside a campaign), recorded into a lock-free ring buffer per
//!   worker thread and exported as JSONL (`repro --trace-out`).
//! * **request contexts** ([`ctx`]) — a copyable per-request capsule
//!   (request id + parent span) handed explicitly across thread
//!   boundaries so every trace event on the serve path carries the
//!   request it served. Allocation-free end to end.
//!
//! Both layers are **zero-overhead when disabled**: every
//! instrumentation macro compiles to a single relaxed atomic load and
//! a branch (no handle resolution, no formatting, no allocation) until
//! [`enable`] turns the layer on. `repro` runs without `--metrics` /
//! `--trace-out` are therefore byte- and allocation-identical to the
//! uninstrumented pipeline; `bench_obs` pins the disabled-path cost
//! below 2% of the capture and study paths.
//!
//! The [`progress`] module is the third, always-compiled-in piece: the
//! structured, tear-free progress sink the fleet narrates through
//! (colour only on a TTY with `NO_COLOR` unset).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU8, Ordering};

pub mod ctx;
pub mod metrics;
pub mod progress;
pub mod report;
pub mod trace;

/// Flag bit: the metrics layer records counter/gauge/histogram updates.
pub const METRICS: u8 = 1 << 0;
/// Flag bit: the trace layer records spans and events.
pub const TRACE: u8 = 1 << 1;

/// The global layer switch. A single `AtomicU8` so the disabled hot
/// path is one relaxed load and a branch, for both layers at once.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Turns the given layers on (`METRICS`, `TRACE`, or both OR-ed).
pub fn enable(flags: u8) {
    ENABLED.fetch_or(flags, Ordering::Relaxed);
}

/// Turns the given layers off.
pub fn disable(flags: u8) {
    ENABLED.fetch_and(!flags, Ordering::Relaxed);
}

/// True when any of the given layers is on. This is THE disabled-path
/// cost: one relaxed load, one mask, one branch.
#[inline(always)]
pub fn enabled(flags: u8) -> bool {
    ENABLED.load(Ordering::Relaxed) & flags != 0
}

/// True when the metrics layer is on.
#[inline(always)]
pub fn metrics_enabled() -> bool {
    enabled(METRICS)
}

/// True when the trace layer is on.
#[inline(always)]
pub fn trace_enabled() -> bool {
    enabled(TRACE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enable_disable_are_independent_bits() {
        // Runs against the global switch, so restore the state we found.
        let before = ENABLED.load(Ordering::Relaxed);
        enable(METRICS);
        assert!(metrics_enabled());
        enable(TRACE);
        assert!(trace_enabled() && metrics_enabled());
        disable(METRICS);
        assert!(trace_enabled());
        disable(TRACE);
        ENABLED.store(before, Ordering::Relaxed);
    }
}
