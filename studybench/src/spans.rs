//! Span trees and exclusive self time, from `panoptes_obs` trace events.

use std::collections::{BTreeMap, HashMap};

use panoptes_obs::trace::{EventKind, TraceEvent};

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The span id.
    pub id: u64,
    /// The span name.
    pub name: String,
    /// The recording thread.
    pub thread: u64,
    /// Wall-clock start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Wall-clock end.
    pub end_ns: u64,
    /// The enclosing span: the innermost span of the same thread that
    /// contains this one, or else the span on the spawning side of the
    /// thread hand-off, as the trace context recorded it.
    pub parent: Option<u64>,
    /// The start event's annotation.
    pub detail: Option<String>,
}

impl Span {
    /// The span's wall-clock length.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Pairs start and end events into closed spans, keeping only spans whose
/// name starts with `prefix`, and links each to its parent.
pub fn spans_from_events(events: &[TraceEvent], prefix: &str) -> Vec<Span> {
    let mut open: HashMap<u64, &TraceEvent> = HashMap::new();
    let mut spans = Vec::new();
    for e in events.iter().filter(|e| e.name.starts_with(prefix)) {
        match e.kind {
            EventKind::Start => {
                open.insert(e.span, e);
            }
            EventKind::End => {
                if let Some(start) = open.remove(&e.span) {
                    spans.push(Span {
                        id: e.span,
                        name: e.name.clone(),
                        thread: start.thread,
                        start_ns: start.wall_ns,
                        end_ns: e.wall_ns,
                        parent: start.parent,
                        detail: start.detail.clone(),
                    });
                }
            }
            EventKind::Point => {}
        }
    }
    link_parents(&mut spans);
    spans
}

/// Replaces each span's hand-off parent by its innermost enclosing span
/// on the same thread, where one exists. Spans nest properly within a
/// thread, so a stack per thread suffices.
fn link_parents(spans: &mut [Span]) {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Outer spans first at equal starts, so they are on the stack when
    // their children arrive.
    order.sort_by_key(|&i| {
        (
            spans[i].thread,
            spans[i].start_ns,
            std::cmp::Reverse(spans[i].end_ns),
        )
    });
    let known: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
    let mut stack: Vec<usize> = Vec::new();
    let mut thread = None;
    for i in order {
        if thread != Some(spans[i].thread) {
            stack.clear();
            thread = Some(spans[i].thread);
        }
        while stack
            .last()
            .is_some_and(|&top| spans[top].end_ns < spans[i].end_ns)
        {
            stack.pop();
        }
        spans[i].parent = match stack.last() {
            Some(&top) => Some(spans[top].id),
            None => spans[i].parent.filter(|p| known.contains(p)),
        };
        stack.push(i);
    }
}

/// Each span's self time: its duration minus the part of it that the
/// union of its children's intervals covers. Children on several threads
/// that overlap in time are counted once. Indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans of this name.
    pub spans: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Sums span count, duration and self time by span name.
pub fn by_name(spans: &[Span]) -> BTreeMap<String, LayerTime> {
    let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(s.name.clone()).or_default();
        entry.spans += 1;
        entry.total_ns += s.duration_ns();
        entry.self_ns += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        kind: EventKind,
        name: &str,
        span: u64,
        thread: u64,
        wall_ns: u64,
        parent: Option<u64>,
    ) -> TraceEvent {
        TraceEvent {
            kind,
            name: name.to_string(),
            span,
            thread,
            seq: 0,
            wall_ns,
            sim_us: None,
            req: None,
            parent,
            detail: None,
        }
    }

    /// root [0,100] on thread 0 holds fleet [10,90]; the fleet hands two
    /// overlapping units to threads 1 and 2; the unit on thread 1 holds a
    /// nested seal [30,40]; render [92,96] follows on thread 0.
    fn fixture() -> Vec<TraceEvent> {
        use EventKind::{End, Start};
        let mut events = vec![
            ev(Start, "bench.study", 1, 0, 0, None),
            ev(Start, "bench.fleet", 2, 0, 10, Some(1)),
            ev(Start, "bench.unit", 3, 1, 20, Some(2)),
            ev(Start, "bench.seal", 4, 1, 30, Some(2)),
            ev(End, "bench.seal", 4, 1, 40, None),
            ev(Start, "bench.unit", 5, 2, 50, Some(2)),
            ev(End, "bench.unit", 3, 1, 60, None),
            ev(End, "bench.unit", 5, 2, 80, None),
            ev(End, "bench.fleet", 2, 0, 90, None),
            ev(Start, "bench.render", 6, 0, 92, Some(1)),
            ev(End, "bench.render", 6, 0, 96, None),
            ev(End, "bench.study", 1, 0, 100, None),
            // The program's own spans are filtered out by prefix.
            ev(Start, "fleet.unit", 7, 1, 21, Some(2)),
            ev(End, "fleet.unit", 7, 1, 59, None),
        ];
        events.sort_by_key(|e| e.wall_ns);
        events
    }

    #[test]
    fn parents_come_from_nesting_then_from_the_hand_off() {
        let spans = spans_from_events(&fixture(), "bench.");
        assert_eq!(spans.len(), 6);
        let parent_of = |id: u64| spans.iter().find(|s| s.id == id).and_then(|s| s.parent);
        assert_eq!(parent_of(1), None);
        assert_eq!(parent_of(2), Some(1));
        assert_eq!(parent_of(3), Some(2), "cross-thread: the hand-off parent");
        assert_eq!(
            parent_of(4),
            Some(3),
            "same thread: the enclosing unit, not the hand-off"
        );
        assert_eq!(parent_of(5), Some(2));
        assert_eq!(parent_of(6), Some(1));
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_across_threads() {
        let spans = spans_from_events(&fixture(), "bench.");
        let layers = by_name(&spans);
        // Units cover [20,60] ∪ [50,80] = 60 of the fleet's 80.
        assert_eq!(layers["bench.fleet"].self_ns, 20);
        // Fleet [10,90] and render [92,96] cover 84 of the root's 100.
        assert_eq!(layers["bench.study"].self_ns, 16);
        // Unit 3 loses the seal's 10; unit 5 keeps all 30.
        assert_eq!(
            layers["bench.unit"],
            LayerTime {
                spans: 2,
                total_ns: 70,
                self_ns: 60
            }
        );
        assert_eq!(layers["bench.seal"].self_ns, 10);
        // Self times sum to the root's 100 plus the 10 during which the
        // two units ran in parallel.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 110);
    }

    #[test]
    fn a_child_outliving_its_parent_is_clipped() {
        use EventKind::{End, Start};
        let events = vec![
            ev(Start, "bench.a", 1, 0, 0, None),
            ev(Start, "bench.b", 2, 1, 5, Some(1)),
            ev(End, "bench.a", 1, 0, 10, None),
            ev(End, "bench.b", 2, 1, 20, None),
        ];
        let spans = spans_from_events(&events, "bench.");
        let layers = by_name(&spans);
        assert_eq!(layers["bench.a"].self_ns, 5);
        assert_eq!(layers["bench.b"].self_ns, 15);
    }
}
