//! # panoptes-bench
//!
//! The reproduction harness: the study runner ([`study::Study`]) used by
//! the `repro` binary (which regenerates every table and figure of the
//! paper as Markdown), the study server and the repository benchmark
//! (`studybench/`), plus the renderers and the memory probes they share.

// `deny` rather than `forbid`: the `mem` module scopes one `allow` for
// its counting `GlobalAlloc` shim; everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod mem;
pub mod render;
pub mod study;
