//! The propagatable trace context: which request this thread is
//! currently serving.
//!
//! Thread-locals do not cross thread boundaries, and the serve path
//! crosses several on every request — the admission queue, the cache's
//! single-flight builds, the worker pool's per-study lanes, and the
//! chunked stream writer. A
//! [`TraceCtx`] is the **copyable** capsule that is handed across each
//! of those boundaries explicitly: the spawning side captures
//! [`current`] into the closure it ships, the receiving side
//! re-installs it with [`enter`], and every trace event recorded while
//! a context is installed is stamped with the request id it served
//! (and, for span starts, the parent span on the far side of the
//! hand-off).
//!
//! The whole module is allocation-free by construction — a context is
//! two `u64`s in a `Copy` struct, installed into a thread-local
//! `Cell` — so entering/leaving a context costs a couple of
//! thread-local stores whether or not the trace layer is enabled
//! (enforced by the `check_no_cloning.sh` trace-hot-path gate).

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// The copyable per-request trace context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// The request id every event recorded under this context carries.
    pub request: u64,
    /// The span on the spawning side of the last thread hand-off
    /// (0 = none yet): span starts recorded under this context carry it
    /// as their `parent`, which is what lets a trace reader stitch a
    /// pool worker's unit span back to the request span that queued it.
    pub parent_span: u64,
}

thread_local! {
    static CURRENT: Cell<Option<TraceCtx>> = const { Cell::new(None) };
}

/// Mints a process-unique request id (dense, starting at 1).
pub fn next_request_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The context installed on the calling thread, if any. This is what a
/// spawning side captures into the closure it hands to another thread.
pub fn current() -> Option<TraceCtx> {
    CURRENT.try_with(Cell::get).unwrap_or(None)
}

/// Installs `ctx` on the calling thread; the returned guard restores
/// whatever was installed before when dropped (contexts nest).
pub fn enter(ctx: TraceCtx) -> CtxGuard {
    let prev = CURRENT.try_with(|c| c.replace(Some(ctx))).unwrap_or(None);
    CtxGuard { prev, _not_send: PhantomData }
}

/// Updates the installed context's `parent_span` in place (no-op when
/// no context is installed). Used right after opening a request's root
/// span, whose id cannot exist before the context does.
pub fn set_parent(span: u64) {
    let _ = CURRENT.try_with(|c| {
        if let Some(mut ctx) = c.get() {
            ctx.parent_span = span;
            c.set(Some(ctx));
        }
    });
}

/// Restores the previously installed context on drop. Deliberately
/// `!Send`: a guard must be dropped on the thread that created it.
pub struct CtxGuard {
    prev: Option<TraceCtx>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        let _ = CURRENT.try_with(|c| c.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enter_installs_and_restores_on_drop() {
        assert_eq!(current(), None);
        {
            let _g = enter(TraceCtx { request: 7, parent_span: 3 });
            assert_eq!(current(), Some(TraceCtx { request: 7, parent_span: 3 }));
            {
                let _inner = enter(TraceCtx { request: 8, parent_span: 0 });
                assert_eq!(current().map(|c| c.request), Some(8));
            }
            assert_eq!(current().map(|c| c.request), Some(7), "contexts nest");
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn set_parent_updates_in_place() {
        let _g = enter(TraceCtx { request: 9, parent_span: 0 });
        set_parent(41);
        assert_eq!(current(), Some(TraceCtx { request: 9, parent_span: 41 }));
    }

    #[test]
    fn context_does_not_leak_across_threads() {
        let _g = enter(TraceCtx { request: 5, parent_span: 1 });
        let seen = std::thread::spawn(current).join().expect("worker");
        assert_eq!(seen, None, "contexts are handed across threads explicitly, never ambiently");
    }

    #[test]
    fn request_ids_are_unique() {
        let a = next_request_id();
        let b = next_request_id();
        assert_ne!(a, b);
    }
}
