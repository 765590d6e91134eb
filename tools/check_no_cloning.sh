#!/usr/bin/env sh
# Guards the zero-copy analysis path: the analysis/core/bench crates
# must read captures through `FlowStore::snapshot()` (shared
# `Arc<Flow>` records), never through the deep-cloning shims that the
# mitm crate keeps for tests and for the pre-refactor benchmark
# baseline.
#
# A line may opt out with a `clone-ok` comment when cloning is the
# point (e.g. the benchmark's before/after comparison). Criterion
# benches under `benches/` are exempt wholesale for the same reason.
#
# Exits non-zero, listing offenders, if any analysis pass reintroduces
# `store.all()` / `native_flows()` / `engine_flows()` / `by_class(...)`
# / `by_package(...)` on a store.
#
# It also guards the zero-allocation capture path: fields that hold
# interned atoms (hosts, package names, certificate subjects, SNI) must
# be cloned as atoms (a refcount bump), never re-materialised as owned
# `String`s with `.to_string()` inside the capture crates. Cold paths
# (error construction, one-time world build) opt out with `clone-ok`.

set -eu

cd "$(dirname "$0")/.."

pattern='store(())?\.((all|native_flows|engine_flows)\(\)|by_(class|package)\()'
dirs="crates/analysis/src crates/core/src crates/bench/src"

offenders=$(grep -rnE "$pattern" $dirs --include='*.rs' | grep -v 'clone-ok' || true)

if [ -n "$offenders" ]; then
    echo "error: cloning FlowStore accessors in analysis-path code:" >&2
    echo "$offenders" >&2
    echo >&2
    echo "Use store.snapshot() and its borrowed views instead" >&2
    echo "(FlowSnapshot::all/engine/native/by_class/by_package)," >&2
    echo "or mark an intentional baseline with a 'clone-ok' comment." >&2
    exit 1
fi

echo "ok: no cloning FlowStore accessors in $dirs"

atom_pattern='\.(host|app_package|package|subject|sni)(\(\))?\.to_string\(\)'
capture_dirs="crates/nettypes/src crates/simnet/src crates/mitm/src crates/browsers/src crates/webworld/src"

atom_offenders=$(grep -rnE "$atom_pattern" $capture_dirs --include='*.rs' | grep -v 'clone-ok' || true)

if [ -n "$atom_offenders" ]; then
    echo "error: interned-atom fields re-materialised as owned Strings" >&2
    echo "in capture-path code:" >&2
    echo "$atom_offenders" >&2
    echo >&2
    echo "Clone the Atom (a refcount bump) instead of .to_string()," >&2
    echo "or mark an intentional cold-path copy with 'clone-ok'." >&2
    exit 1
fi

echo "ok: no atom-to-String conversions in $capture_dirs"

# Third gate: the fused study engine. Detectors must feed on the fused
# pass (`engine::CrawlPartials`) instead of opening their own snapshot
# iteration — every extra `store.snapshot()` walk outside the engine
# and facts layers is another full pass over the capture, and a second
# implementation of the detector. The renderers and both study runners
# (offline and served) read only analyses: a capture is dropped once
# the engine has walked it. No exceptions.

multipass_pattern='\.snapshot\(\)'
engine_dirs="crates/analysis/src crates/bench/src/render.rs crates/bench/src/study.rs crates/serve/src"

multipass_offenders=$(grep -rnE "$multipass_pattern" $engine_dirs --include='*.rs' \
    | grep -v 'crates/analysis/src/engine\.rs' \
    | grep -v 'crates/analysis/src/facts\.rs' || true)

if [ -n "$multipass_offenders" ]; then
    echo "error: detector opens its own snapshot iteration outside the" >&2
    echo "fused engine pass:" >&2
    echo "$multipass_offenders" >&2
    echo >&2
    echo "Feed the detector through engine::CrawlPartials (merge/" >&2
    echo "finish, plus a per-flow or per-observation step) so the study" >&2
    echo "stays single-pass." >&2
    exit 1
fi

echo "ok: no multi-pass snapshot iterations outside the fused engine in $engine_dirs"

# Fourth gate: structured progress output. Library crates must report
# progress through `panoptes_obs::progress::emit` (single atomic write,
# NO_COLOR/tty aware, mirrored into the trace when tracing is on) —
# never through bare `eprintln!`/`println!`, which tear under the
# parallel fleet and pollute the byte-compared repro stdout. Binaries
# under `src/bin/` own their stdout and are exempt; a deliberate
# library-side print opts out with a `print-ok` comment.

print_pattern='\be?println!\('
print_offenders=$(find crates -type d -name src | while read -r d; do
    grep -rnE "$print_pattern" "$d" --include='*.rs' | grep -v '/src/bin/' || true
done | grep -v 'print-ok' || true)

if [ -n "$print_offenders" ]; then
    echo "error: bare stdout/stderr prints in library crates:" >&2
    echo "$print_offenders" >&2
    echo >&2
    echo "Report progress through panoptes_obs::progress::emit (torn-" >&2
    echo "line safe, NO_COLOR aware, trace-mirrored), or mark a" >&2
    echo "deliberate print with a 'print-ok' comment." >&2
    exit 1
fi

echo "ok: no bare prints in library crates"

# Fifth gate: filterlist anchor/allocation discipline. The compiled
# match path (`should_block` → anchor Atom set → substring DFA) is
# allocation-free: anchors stay interned `Atom`s end to end, hosts and
# URLs are matched without re-materialising lowercase copies (case
# folding is compiled into the DFA). Allocating conversions in
# `crates/blocklist/src` are confined to parse time, the documented
# uppercase-host slow path, and the reference/baseline engines — each
# marked `alloc-ok`. Test modules (below `#[cfg(test)]`) and comment
# lines are exempt.

alloc_pattern='\.to_string\(\)|\.to_owned\(\)|String::from\(|format!\(|to_ascii_lowercase\(\)'
alloc_offenders=$(for f in crates/blocklist/src/*.rs; do
    awk '/#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' "$f"
done | grep -E "$alloc_pattern" | grep -vE ':[0-9]+: *//' | grep -v 'alloc-ok' || true)

if [ -n "$alloc_offenders" ]; then
    echo "error: allocating conversion in the blocklist match path:" >&2
    echo "$alloc_offenders" >&2
    echo >&2
    echo "Keep anchors as interned Atoms and match without lowercased" >&2
    echo "copies (the DFA is case-folded; AnchorSet compares Atom" >&2
    echo "pointers). Parse-time, slow-path, and reference-engine" >&2
    echo "allocations opt out with an 'alloc-ok' comment." >&2
    exit 1
fi

echo "ok: no allocating conversions in the blocklist match path"

# Sixth gate: the study server's request path. A malformed request, a
# mid-stream client hangup, or a failed socket write must never panic
# a server thread: crates/serve handles every IO `Result` explicitly
# (drop the connection, cancel the study's lane, abandon the cache
# slot). `.unwrap()`/`.expect()` are therefore banned in the serve
# library outside test modules. The only sanctioned expects are on
# process-level lock invariants (mutex/condvar poisoning — messages
# naming "lock"/"wait"); a deliberate logic-invariant unwrap opts out
# with an `unwrap-ok` comment. Binaries under `src/bin/` own their
# exit behaviour and are exempt.

serve_pattern='\.unwrap\(\)|\.expect\('
serve_offenders=$(for f in crates/serve/src/*.rs; do
    awk '/#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' "$f"
done | grep -E "$serve_pattern" | grep -vE ':[0-9]+: *//' \
    | grep -vE 'expect\("[^"]*(lock|wait)' \
    | grep -v 'unwrap-ok' || true)

if [ -n "$serve_offenders" ]; then
    echo "error: unwrap/expect on the serve request path:" >&2
    echo "$serve_offenders" >&2
    echo >&2
    echo "Handle the Result: a client hangup or torn request must drop" >&2
    echo "the connection (and cancel the study's lane), not panic a" >&2
    echo "server thread. Lock-poisoning expects name 'lock'/'wait';" >&2
    echo "other deliberate invariants opt out with 'unwrap-ok'." >&2
    exit 1
fi

echo "ok: no unwrap/expect on the serve request path"

# Seventh gate: the trace hot path. Instrumented crates must annotate
# spans with the *lazy* detail APIs (`span_with`/`point_with`, whose
# closures only run when tracing is enabled) — the eager `span_at`,
# which builds its detail String unconditionally, is reserved for the
# obs crate's own internals and tests. And the trace context that is
# stamped onto every event (`obs/src/ctx.rs`) must stay allocation-free:
# it sits inside the disabled-path budget (one relaxed load + a
# thread-local read), so no String/format!/Vec/Box may appear there.

eager_offenders=$(find crates -type d -name src | grep -v 'crates/obs/src' \
    | while read -r d; do
    grep -rnE '\btrace::span_at\(|\bspan_at\(' "$d" --include='*.rs' || true
done | grep -vE ':[0-9]+: *//' || true)

if [ -n "$eager_offenders" ]; then
    echo "error: eager span detail on the trace hot path:" >&2
    echo "$eager_offenders" >&2
    echo >&2
    echo "Use trace::span_with / trace::point_with — their detail" >&2
    echo "closures are skipped entirely while tracing is disabled, so" >&2
    echo "instrumented code pays no allocation. span_at is internal to" >&2
    echo "the obs crate." >&2
    exit 1
fi

echo "ok: no eager span detail outside crates/obs/src"

ctx_alloc_pattern='String|format!\(|to_string\(\)|to_owned\(\)|Vec<|Box<|\.clone\(\)'
ctx_offenders=$(awk '/#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' \
    crates/obs/src/ctx.rs | grep -E "$ctx_alloc_pattern" \
    | grep -vE ':[0-9]+: *(//|///|//!)' || true)

if [ -n "$ctx_offenders" ]; then
    echo "error: allocation in the trace-context hot path:" >&2
    echo "$ctx_offenders" >&2
    echo >&2
    echo "TraceCtx is two u64s handed across threads by copy; keeping" >&2
    echo "ctx.rs allocation-free keeps the disabled trace path at one" >&2
    echo "relaxed load plus a thread-local read." >&2
    exit 1
fi

echo "ok: trace-context hot path is allocation-free"
