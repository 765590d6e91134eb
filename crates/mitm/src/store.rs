//! The flow database.
//!
//! §2.3: "The two different categories of the requests are finally stored
//! in different local databases." The store keeps every captured flow and
//! exposes the two categories as views, plus JSONL persistence so
//! campaigns can be archived and re-analysed offline.
//!
//! # Columnar capture arena
//!
//! A kept capture's flows live in **one allocation region**: sealing a
//! [`FlowSnapshot`] moves the appended flows into a contiguous
//! `Arc<[Flow]>` slab, and every view — capture order, per-class,
//! per-package — is a [`Flows`] window over that slab described by
//! `u32` indices. No per-flow `Arc`, no pointer chasing between
//! records, and the only refcount in the system is the slab's own.
//!
//! Appending or clearing flows invalidates the memoised snapshot; the
//! next [`FlowStore::snapshot`] call seals a fresh slab (re-using the
//! already-sealed prefix). Snapshots are immutable, so a stale snapshot
//! still describes exactly the capture it sealed.
//!
//! A capture analysed as it is recorded is never sealed:
//! [`FlowStore::drain`] hands the flows recorded so far to the caller in
//! capture order and leaves the store empty.
//!
//! The pre-snapshot cloning accessors ([`FlowStore::all`],
//! [`FlowStore::native_flows`], …) remain as thin compatibility shims
//! for tests and external tooling; production analysis code must use
//! the snapshot (CI greps for regressions — see
//! `tools/check_no_cloning.sh`).

use std::fmt;
use std::ops::Index;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use panoptes_http::hash::FastMap;
use panoptes_http::json;
use panoptes_http::Atom;

use crate::flow::{Flow, FlowClass};

/// A window over a snapshot's flow arena: either a contiguous
/// capture-order span or an index-selected view (a class or package).
///
/// `Flows` is `Copy` — two words of span plus the slab pointer — so it
/// passes by value. Iteration yields plain `&Flow` references into the
/// shared slab.
#[derive(Clone, Copy)]
pub struct Flows<'a> {
    slab: &'a [Flow],
    sel: Selection<'a>,
}

#[derive(Clone, Copy)]
enum Selection<'a> {
    /// Contiguous capture-order range `[start, end)` of the slab.
    Span(usize, usize),
    /// Arena indices, in view order.
    Indices(&'a [u32]),
}

impl<'a> Flows<'a> {
    /// Number of flows in the view.
    pub fn len(&self) -> usize {
        match self.sel {
            Selection::Span(a, b) => b - a,
            Selection::Indices(ix) => ix.len(),
        }
    }

    /// True when the view selects no flows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th flow of the view, if any. The returned reference
    /// borrows the arena, not this (copyable) view value.
    pub fn get(self, i: usize) -> Option<&'a Flow> {
        match self.sel {
            Selection::Span(a, b) => {
                if i < b - a {
                    self.slab.get(a + i)
                } else {
                    None
                }
            }
            Selection::Indices(ix) => ix.get(i).map(|&j| &self.slab[j as usize]),
        }
    }

    /// Iterates the view's flows in view order.
    pub fn iter(self) -> impl Iterator<Item = &'a Flow> + 'a {
        let slab = self.slab;
        let (span, indices) = match self.sel {
            Selection::Span(a, b) => (Some(&slab[a..b]), None),
            Selection::Indices(ix) => (None, Some(ix)),
        };
        span.into_iter()
            .flatten()
            .chain(indices.into_iter().flatten().map(move |&i| &slab[i as usize]))
    }
}

impl Index<usize> for Flows<'_> {
    type Output = Flow;
    fn index(&self, i: usize) -> &Flow {
        self.get(i).expect("flow view index out of bounds")
    }
}

impl fmt::Debug for Flows<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Flows").field("len", &self.len()).finish()
    }
}

impl<'a> IntoIterator for Flows<'a> {
    type Item = &'a Flow;
    type IntoIter = Box<dyn Iterator<Item = &'a Flow> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

/// A sealed, immutable view of a capture: one contiguous flow arena
/// plus per-class and per-package index vectors. Building a snapshot
/// never deep-copies an already-sealed flow, and every view is a
/// [`Flows`] window over the same slab.
pub struct FlowSnapshot {
    slab: Arc<[Flow]>,
    engine: Vec<u32>,
    native: Vec<u32>,
    pinned: Vec<u32>,
    blocked: Vec<u32>,
    by_package: FastMap<Atom, Vec<u32>>,
}

impl Default for FlowSnapshot {
    fn default() -> FlowSnapshot {
        FlowSnapshot::build(Arc::from(Vec::new()))
    }
}

impl fmt::Debug for FlowSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlowSnapshot")
            .field("flows", &self.slab.len())
            .field("engine", &self.engine.len())
            .field("native", &self.native.len())
            .field("packages", &self.by_package.len())
            .finish()
    }
}

impl FlowSnapshot {
    fn build(slab: Arc<[Flow]>) -> FlowSnapshot {
        let mut snap = FlowSnapshot {
            slab,
            engine: Vec::new(),
            native: Vec::new(),
            pinned: Vec::new(),
            blocked: Vec::new(),
            by_package: FastMap::default(),
        };
        for (i, flow) in snap.slab.iter().enumerate() {
            let i = i as u32;
            match flow.class {
                FlowClass::Engine => snap.engine.push(i),
                FlowClass::Native => snap.native.push(i),
                FlowClass::PinnedOpaque => snap.pinned.push(i),
                FlowClass::Blocked => snap.blocked.push(i),
            }
            snap.by_package.entry(flow.package.clone()).or_default().push(i);
        }
        snap
    }

    /// Every captured flow in capture order.
    pub fn all(&self) -> Flows<'_> {
        Flows { slab: &self.slab, sel: Selection::Span(0, self.slab.len()) }
    }

    /// Iterates every flow in capture order.
    pub fn iter(&self) -> impl Iterator<Item = &Flow> {
        self.slab.iter()
    }

    fn view<'a>(&'a self, indices: &'a [u32]) -> Flows<'a> {
        Flows { slab: &self.slab, sel: Selection::Indices(indices) }
    }

    /// The engine-traffic database view.
    pub fn engine(&self) -> Flows<'_> {
        self.view(&self.engine)
    }

    /// The native-traffic database view.
    pub fn native(&self) -> Flows<'_> {
        self.view(&self.native)
    }

    /// Flows of one classification.
    pub fn by_class(&self, class: FlowClass) -> Flows<'_> {
        match class {
            FlowClass::Engine => self.engine(),
            FlowClass::Native => self.native(),
            FlowClass::PinnedOpaque => self.view(&self.pinned),
            FlowClass::Blocked => self.view(&self.blocked),
        }
    }

    /// Flows sent by one app package (empty for unknown packages).
    pub fn by_package(&self, package: &str) -> Flows<'_> {
        self.view(self.by_package.get(package).map(Vec::as_slice).unwrap_or(&[]))
    }

    /// The packages observed in this capture, in arbitrary order.
    pub fn packages(&self) -> impl Iterator<Item = &str> {
        self.by_package.keys().map(Atom::as_str)
    }

    /// Total number of flows in the snapshot.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// True when the snapshot holds no flows.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }
}

/// Flows not yet sealed plus the last sealed arena. Appends go to the
/// open list; sealing moves them into a fresh contiguous slab (cloning
/// only the already-sealed prefix, which is rare: captures are built
/// up, sealed once, then analysed).
#[derive(Default)]
struct StoreState {
    sealed: Option<Arc<[Flow]>>,
    open: Vec<Flow>,
}

impl StoreState {
    fn len(&self) -> usize {
        self.sealed.as_ref().map_or(0, |s| s.len()) + self.open.len()
    }

    fn iter(&self) -> impl Iterator<Item = &Flow> {
        self.sealed.iter().flat_map(|s| s.iter()).chain(self.open.iter())
    }

    /// Moves every flow out in capture order, leaving the state empty.
    /// The open buffer is taken whole, so no capacity stays behind; the
    /// sealed prefix is copied, since snapshots may still share it.
    fn take_flows(&mut self) -> Vec<Flow> {
        let open = std::mem::take(&mut self.open);
        match self.sealed.take() {
            Some(sealed) => sealed.iter().cloned().chain(open).collect(),
            None => open,
        }
    }
}

/// Thread-safe, append-only capture database.
#[derive(Default)]
pub struct FlowStore {
    state: Mutex<StoreState>,
    /// Bumped on every mutation; lets [`Self::snapshot`] detect that a
    /// freshly built snapshot is already stale without nesting locks.
    generation: AtomicU64,
    /// Memoised sealed snapshot: `(generation it was built at, view)`.
    snapshot: Mutex<Option<(u64, Arc<FlowSnapshot>)>>,
}

impl FlowStore {
    /// An empty store.
    pub fn new() -> FlowStore {
        FlowStore::default()
    }

    /// Appends a flow. Invalidates the memoised snapshot.
    pub fn push(&self, flow: Flow) {
        self.state.lock().open.push(flow);
        self.invalidate();
    }

    /// Marks the store mutated and drops the memoised snapshot.
    fn invalidate(&self) {
        self.generation.fetch_add(1, Ordering::Release);
        *self.snapshot.lock() = None;
    }

    /// Moves any open flows into a contiguous arena and returns it.
    /// When nothing was appended since the last seal the existing slab
    /// is returned as-is — re-snapshotting is allocation-free.
    fn seal(&self) -> Arc<[Flow]> {
        let mut state = self.state.lock();
        if state.open.is_empty() {
            if let Some(sealed) = &state.sealed {
                return sealed.clone();
            }
        }
        let slab: Arc<[Flow]> = Arc::from(state.take_flows());
        state.sealed = Some(slab.clone());
        slab
    }

    /// The sealed snapshot of the capture: built once, then shared by
    /// every analysis pass until the store is mutated again.
    pub fn snapshot(&self) -> Arc<FlowSnapshot> {
        if let Some((gen, snap)) = self.snapshot.lock().as_ref() {
            if *gen == self.generation.load(Ordering::Acquire) {
                return snap.clone();
            }
        }
        // Seal under the state lock, index outside it: the builder only
        // touches the immutable slab.
        let gen = self.generation.load(Ordering::Acquire);
        let snap = Arc::new(FlowSnapshot::build(self.seal()));
        // Memoise only if no mutation raced the build; the returned
        // snapshot is still a correct view of the flows it was built on.
        if gen == self.generation.load(Ordering::Acquire) {
            *self.snapshot.lock() = Some((gen, snap.clone()));
        }
        snap
    }

    /// Cloning snapshot of every captured flow in capture order.
    ///
    /// Compatibility shim: deep-copies every flow. Analysis code must
    /// use [`Self::snapshot`] instead.
    pub fn all(&self) -> Vec<Flow> {
        self.state.lock().iter().cloned().collect()
    }

    /// The engine-traffic database (cloning shim; see [`Self::snapshot`]).
    pub fn engine_flows(&self) -> Vec<Flow> {
        self.by_class(FlowClass::Engine)
    }

    /// The native-traffic database (cloning shim; see [`Self::snapshot`]).
    pub fn native_flows(&self) -> Vec<Flow> {
        self.by_class(FlowClass::Native)
    }

    /// Flows of one classification (cloning shim; see [`Self::snapshot`]).
    pub fn by_class(&self, class: FlowClass) -> Vec<Flow> {
        self.state.lock().iter().filter(|f| f.class == class).cloned().collect()
    }

    /// Flows sent by one app package (cloning shim; see [`Self::snapshot`]).
    pub fn by_package(&self, package: &str) -> Vec<Flow> {
        self.state.lock().iter().filter(|f| f.package == package).cloned().collect()
    }

    /// Total number of captured flows.
    pub fn len(&self) -> usize {
        self.state.lock().len()
    }

    /// True when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Moves every recorded flow out in capture order and leaves the
    /// store empty: how a capture analysed as it is recorded hands over
    /// its flows without ever sealing them.
    pub fn drain(&self) -> Vec<Flow> {
        let flows = self.state.lock().take_flows();
        self.invalidate();
        flows
    }

    /// Removes every flow (start of a fresh campaign).
    pub fn clear(&self) {
        let mut state = self.state.lock();
        state.sealed = None;
        state.open.clear();
        drop(state);
        self.invalidate();
    }

    /// Serializes the whole capture as JSONL. The output buffer is
    /// pre-reserved from per-flow line estimates, and the store lock is
    /// taken exactly once.
    pub fn export_jsonl(&self) -> String {
        let state = self.state.lock();
        let mut out =
            String::with_capacity(state.iter().map(Flow::jsonl_len_estimate).sum());
        for flow in state.iter() {
            out.push_str(&flow.to_jsonl());
            out.push('\n');
        }
        out
    }

    /// Streams the capture as JSONL into `out`, one line at a time, so
    /// archive writers don't double-buffer the whole export.
    pub fn write_jsonl(&self, out: &mut impl fmt::Write) -> fmt::Result {
        let state = self.state.lock();
        for flow in state.iter() {
            out.write_str(&flow.to_jsonl())?;
            out.write_char('\n')?;
        }
        Ok(())
    }

    /// Parses a JSONL capture produced by [`Self::export_jsonl`].
    /// Returns the line number (1-based) of the first malformed record on
    /// failure.
    pub fn import_jsonl(text: &str) -> Result<FlowStore, usize> {
        let store = FlowStore::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let value = json::parse(line).map_err(|_| i + 1)?;
            let flow = Flow::from_json(&value).ok_or(i + 1)?;
            store.push(flow);
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panoptes_http::netaddr::IpAddr;
    use panoptes_http::method::Method;
    use panoptes_http::request::HttpVersion;

    fn flow(id: u64, class: FlowClass, package: &str) -> Flow {
        Flow {
            id,
            time_us: id * 1000,
            uid: 10000,
            package: package.into(),
            host: "h.com".into(),
            dst_ip: IpAddr::new(1, 2, 3, 4),
            dst_port: 443,
            method: Method::Get,
            url: "https://h.com/".into(),
            request_headers: vec![],
            request_body: String::new(),
            status: 200,
            bytes_out: 100,
            bytes_in: 200,
            version: HttpVersion::H2,
            class,
        }
    }

    #[test]
    fn classification_views() {
        let store = FlowStore::new();
        store.push(flow(1, FlowClass::Engine, "a"));
        store.push(flow(2, FlowClass::Native, "a"));
        store.push(flow(3, FlowClass::Native, "b"));
        store.push(flow(4, FlowClass::PinnedOpaque, "b"));
        assert_eq!(store.len(), 4);
        assert_eq!(store.engine_flows().len(), 1);
        assert_eq!(store.native_flows().len(), 2);
        assert_eq!(store.by_class(FlowClass::PinnedOpaque).len(), 1);
        assert_eq!(store.by_package("b").len(), 2);
    }

    #[test]
    fn snapshot_views_match_cloning_shims() {
        let store = FlowStore::new();
        store.push(flow(1, FlowClass::Engine, "a"));
        store.push(flow(2, FlowClass::Native, "a"));
        store.push(flow(3, FlowClass::Native, "b"));
        store.push(flow(4, FlowClass::Blocked, "b"));
        let snap = store.snapshot();
        assert_eq!(snap.len(), store.len());
        assert!(!snap.is_empty());
        let all: Vec<Flow> = snap.iter().cloned().collect();
        assert_eq!(all, store.all());
        for class in [
            FlowClass::Engine,
            FlowClass::Native,
            FlowClass::PinnedOpaque,
            FlowClass::Blocked,
        ] {
            let view: Vec<Flow> = snap.by_class(class).iter().cloned().collect();
            assert_eq!(view, store.by_class(class), "{class:?}");
        }
        assert_eq!(snap.engine().len(), 1);
        assert_eq!(snap.native().len(), 2);
        for pkg in ["a", "b"] {
            let view: Vec<Flow> = snap.by_package(pkg).iter().cloned().collect();
            assert_eq!(view, store.by_package(pkg), "{pkg}");
        }
        assert!(snap.by_package("unknown").is_empty());
        let mut pkgs: Vec<&str> = snap.packages().collect();
        pkgs.sort_unstable();
        assert_eq!(pkgs, vec!["a", "b"]);
    }

    #[test]
    fn snapshot_is_memoised_and_invalidated_by_mutation() {
        let store = FlowStore::new();
        store.push(flow(1, FlowClass::Native, "p"));
        let a = store.snapshot();
        let b = store.snapshot();
        assert!(Arc::ptr_eq(&a, &b), "same sealed snapshot reused");
        store.push(flow(2, FlowClass::Native, "p"));
        let c = store.snapshot();
        assert!(!Arc::ptr_eq(&a, &c), "mutation invalidates the memo");
        assert_eq!(c.len(), 2);
        // The old snapshot still reflects the capture it sealed.
        assert_eq!(a.len(), 1);
        store.clear();
        assert!(store.snapshot().is_empty());
    }

    #[test]
    fn snapshot_views_share_one_arena() {
        let store = FlowStore::new();
        store.push(flow(1, FlowClass::Native, "p"));
        store.push(flow(2, FlowClass::Engine, "p"));
        let snap = store.snapshot();
        // Class and package views resolve to the very same records in
        // the capture-order arena — identical addresses, no copies.
        let all = snap.all();
        assert!(std::ptr::eq(&all[0], &snap.native()[0]));
        assert!(std::ptr::eq(&all[0], &snap.by_package("p")[0]));
        assert!(std::ptr::eq(&all[1], &snap.engine()[0]));
        // The arena is exactly the capture-order flows.
        assert!(snap.iter().zip(all.iter()).all(|(a, b)| std::ptr::eq(a, b)));
    }

    #[test]
    fn flows_windows_index_and_iterate() {
        let store = FlowStore::new();
        for i in 1..=6 {
            let class = if i % 2 == 0 { FlowClass::Engine } else { FlowClass::Native };
            store.push(flow(i, class, "p"));
        }
        let snap = store.snapshot();
        let all = snap.all();
        assert_eq!(all.len(), 6);
        assert_eq!(all[3].id, 4);
        assert_eq!(all.get(6).map(|f| f.id), None);
        let native = snap.native();
        assert_eq!(native.iter().map(|f| f.id).collect::<Vec<_>>(), vec![1, 3, 5]);
        assert_eq!(native[1].id, 3);
        assert_eq!(native.get(3).map(|f| f.id), None);
        // IntoIterator lets views drive `for` loops directly.
        let mut seen = 0;
        for f in snap.engine() {
            assert_eq!(f.class, FlowClass::Engine);
            seen += 1;
        }
        assert_eq!(seen, 3);
    }

    #[test]
    fn reseal_preserves_order_and_reuses_nothing_stale() {
        let store = FlowStore::new();
        store.push(flow(1, FlowClass::Native, "p"));
        let first = store.snapshot();
        store.push(flow(2, FlowClass::Engine, "p"));
        store.push(flow(3, FlowClass::Native, "q"));
        let second = store.snapshot();
        assert_eq!(
            second.iter().map(|f| f.id).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "re-seal keeps capture order"
        );
        // The first snapshot's arena is untouched by the re-seal.
        assert_eq!(first.len(), 1);
        assert_eq!(first.all()[0].id, 1);
        // Snapshotting again without mutation reuses the sealed arena.
        let third = store.snapshot();
        assert!(Arc::ptr_eq(&second, &third));
    }

    #[test]
    fn jsonl_roundtrip() {
        let store = FlowStore::new();
        for i in 0..5 {
            store.push(flow(i, if i % 2 == 0 { FlowClass::Engine } else { FlowClass::Native }, "p"));
        }
        let text = store.export_jsonl();
        assert_eq!(text.lines().count(), 5);
        let restored = FlowStore::import_jsonl(&text).unwrap();
        assert_eq!(restored.all(), store.all());
    }

    #[test]
    fn streamed_export_matches_buffered() {
        let store = FlowStore::new();
        for i in 0..7 {
            store.push(flow(i, FlowClass::Native, "p"));
        }
        let mut streamed = String::new();
        store.write_jsonl(&mut streamed).unwrap();
        assert_eq!(streamed, store.export_jsonl());
    }

    #[test]
    fn export_covers_sealed_and_open_flows() {
        let store = FlowStore::new();
        store.push(flow(1, FlowClass::Native, "p"));
        let _ = store.snapshot(); // seal the first flow
        store.push(flow(2, FlowClass::Native, "p"));
        let text = store.export_jsonl();
        assert_eq!(text.lines().count(), 2, "sealed prefix and open tail both export");
        assert_eq!(store.len(), 2);
        assert_eq!(store.all().len(), 2);
    }

    #[test]
    fn export_reserve_estimate_covers_actual_lines() {
        let store = FlowStore::new();
        let mut f = flow(1, FlowClass::Native, "com.example.browser");
        f.url = "https://t.example/p?uid=abc&tz=Europe%2FAthens".into();
        f.request_headers = vec![("user-agent".into(), "UA \"quoted\"".into())];
        f.request_body = "{\"k\":\"v\\n\"}".into();
        store.push(f);
        let text = store.export_jsonl();
        let estimate: usize =
            store.snapshot().iter().map(Flow::jsonl_len_estimate).sum();
        assert!(estimate >= text.len(), "estimate {estimate} < actual {}", text.len());
    }

    #[test]
    fn import_reports_bad_line() {
        let good = flow(1, FlowClass::Native, "p").to_jsonl();
        let text = format!("{good}\nnot json\n");
        assert_eq!(FlowStore::import_jsonl(&text).map(|_| ()).unwrap_err(), 2);
        let text2 = format!("{good}\n{{\"id\":1}}\n");
        assert_eq!(FlowStore::import_jsonl(&text2).map(|_| ()).unwrap_err(), 2);
    }

    #[test]
    fn sealing_releases_the_open_buffer() {
        let store = FlowStore::new();
        for i in 0..100 {
            store.push(flow(i, FlowClass::Native, "p"));
        }
        assert!(store.state.lock().open.capacity() >= 100);
        assert_eq!(store.snapshot().len(), 100);
        assert_eq!(
            store.state.lock().open.capacity(),
            0,
            "first seal keeps no buffer"
        );
        store.push(flow(100, FlowClass::Native, "p"));
        assert_eq!(store.snapshot().len(), 101);
        assert_eq!(
            store.state.lock().open.capacity(),
            0,
            "re-seal keeps no buffer"
        );
    }

    #[test]
    fn interleaved_pushes_and_drains_yield_every_flow_once_in_order() {
        let store = FlowStore::new();
        let mut drained = Vec::new();
        let mut next = 0;
        // (flows to push, how many of them to seal before the drain).
        for (batch, sealed) in [(3, 0), (0, 0), (1, 0), (5, 2), (2, 2)] {
            for i in 0..batch {
                store.push(flow(next, FlowClass::Native, "p"));
                next += 1;
                if i + 1 == sealed {
                    // A sealed prefix drains too, ahead of the open tail.
                    let _ = store.snapshot();
                }
            }
            drained.extend(store.drain().into_iter().map(|f| f.id));
            assert!(store.is_empty());
            assert!(
                store.snapshot().is_empty(),
                "drained flows are gone from the snapshot"
            );
        }
        assert_eq!(drained, (0..next).collect::<Vec<_>>());
    }

    #[test]
    fn clear_empties() {
        let store = FlowStore::new();
        store.push(flow(1, FlowClass::Native, "p"));
        assert!(!store.is_empty());
        store.clear();
        assert!(store.is_empty());
    }
}
