//! Memory instrumentation: a counting global allocator and a peak-RSS
//! probe. `serve` installs the allocator so its artifact cache charges
//! each entry the bytes it retained ([`live_bytes`]); the repository
//! benchmark (`studybench/`) and `tests/capture_budget.rs` install it
//! to count allocations.
//!
//! The allocator is a thin shim over [`std::alloc::System`] that bumps
//! a few relaxed atomics per allocation; the overhead is a few
//! nanoseconds. A binary or test opts in at its crate root:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: panoptes_bench::mem::CountingAlloc = panoptes_bench::mem::CountingAlloc;
//! ```
//!
//! Peak RSS comes from the kernel's `VmHWM` high-water mark
//! (`/proc/self/status`) — the honest "how much memory did this run
//! actually need" figure, covering the allocator's own overhead and
//! memory the counting shim never sees (stacks, mmaps).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

/// A counting wrapper around the system allocator. Install as the
/// `#[global_allocator]` of a binary or test to make
/// [`allocations`]/[`allocated_bytes`] live.
pub struct CountingAlloc;

// SAFETY: delegates allocation verbatim to `System`; the only addition
// is two relaxed counter bumps, which allocate nothing themselves.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES
            .fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Cumulative allocation count since process start (0 when the counting
/// allocator is not installed).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Cumulative allocated bytes since process start (gross, not live; 0
/// when the counting allocator is not installed).
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

/// Bytes currently allocated and not yet freed (0 when the counting
/// allocator is not installed). The delta across a computation is its
/// *net* retention — what it built and kept — which is what a cache
/// should charge an artifact, as opposed to the gross churn of
/// [`allocated_bytes`]. Concurrent threads' allocations bleed into a
/// delta, so callers floor it with a known minimum.
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed).max(0) as u64
}

/// The process's peak resident set size in KiB (`VmHWM` from
/// `/proc/self/status`), or `None` off Linux.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_reported_on_linux() {
        let rss = peak_rss_kib();
        assert!(rss.is_some_and(|kib| kib > 1000), "test process uses >1 MiB: {rss:?}");
    }
}
