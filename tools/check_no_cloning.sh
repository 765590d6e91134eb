#!/usr/bin/env sh
# Guards the zero-allocation capture path: fields that hold atoms
# (hosts, package names, certificate subjects, SNI) must be cloned as
# atoms (no string copy), never re-materialised as owned `String`s with
# `.to_string()` inside the capture crates. Cold paths (error
# construction, one-time world build) opt out with `clone-ok`. And a
# string literal in library code is a process constant, so it is a
# static atom (a clone copies a pointer), never interned (a clone
# writes a reference count that every worker shares).

set -eu

cd "$(dirname "$0")/.."

atom_pattern='\.(host|app_package|package|subject|sni)(\(\))?\.to_string\(\)'
capture_dirs="crates/nettypes/src crates/simnet/src crates/mitm/src crates/browsers/src crates/webworld/src"

atom_offenders=$(grep -rnE "$atom_pattern" $capture_dirs --include='*.rs' | grep -v 'clone-ok' || true)

if [ -n "$atom_offenders" ]; then
    echo "error: interned-atom fields re-materialised as owned Strings" >&2
    echo "in capture-path code:" >&2
    echo "$atom_offenders" >&2
    echo >&2
    echo "Clone the Atom (no string copy) instead of .to_string()," >&2
    echo "or mark an intentional cold-path copy with 'clone-ok'." >&2
    exit 1
fi

echo "ok: no atom-to-String conversions in $capture_dirs"

# Process constants are static atoms. A string literal passed to
# `Atom::intern` or `Atom::from` in library code names a process
# constant, and interning it makes every clone and drop write one
# reference count that all workers share. Build it once instead as a
# static atom (`static NAME: Atom = Atom::from_static(&"...")`), or take
# it from the header vocabulary (`panoptes_http::headers::vocab`).
# Binaries, test modules (below the first `#[cfg(test)]`) and comment
# lines are exempt. No opt-out marker.

literal_atom_offenders=$(find crates -path '*/src/*' -name '*.rs' | grep -v '/src/bin/' | sort \
    | while read -r f; do
    awk '/#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' "$f"
done | grep -E 'Atom::(intern|from)\((r#*)?"' | grep -vE ':[0-9]+: *//' || true)

if [ -n "$literal_atom_offenders" ]; then
    echo "error: string literal interned in library code:" >&2
    echo "$literal_atom_offenders" >&2
    echo >&2
    echo "A literal is a process constant: make it a static atom" >&2
    echo "(Atom::from_static in a static) or use headers::vocab()." >&2
    exit 1
fi

echo "ok: no interned string literals in crates/*/src"

# A captured flow's URL is the canonical text its request's `Url` wrote,
# so library code never parses it into a `Url` again (that re-interns
# the host and re-decodes every query pair of every flow the fold
# scans): it reads the pairs from the text with
# `panoptes_http::url::query_pairs`. Binaries, test modules (below the
# first `#[cfg(test)]`) and comment lines are exempt. No opt-out marker.

reparse_offenders=$(find crates -path '*/src/*' -name '*.rs' | grep -v '/src/bin/' | sort \
    | while read -r f; do
    awk '/#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' "$f"
done | grep -E 'Url::parse\(&[^()]*\.url\)' | grep -vE ':[0-9]+: *//' || true)

if [ -n "$reparse_offenders" ]; then
    echo "error: library code re-parses a captured flow's URL:" >&2
    echo "$reparse_offenders" >&2
    echo >&2
    echo "Read the query pairs from the flow's text with" >&2
    echo "panoptes_http::url::query_pairs(&flow.url) instead." >&2
    exit 1
fi

echo "ok: no captured flow's URL is parsed again in crates/*/src"

# A URL is never formatted only to be parsed: the world builds each of
# its URLs once, from canonical parts (`Url::https_at`, one allocation
# of exact size), and a page load clones it. `Url::parse(&format!(..))`
# pays a formatted intermediate and a full parse per URL: per request it
# is the cost the capture path no longer pays, and at world build it
# triples `World::build`. Binaries, test modules (below the first
# `#[cfg(test)]`) and comment lines are exempt. No opt-out marker.

format_parse_offenders=$(find crates -path '*/src/*' -name '*.rs' | grep -v '/src/bin/' | sort \
    | while read -r f; do
    awk '/#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' "$f"
done | grep -E 'Url::parse\(&format!\(' | grep -vE ':[0-9]+: *//' || true)

if [ -n "$format_parse_offenders" ]; then
    echo "error: library code formats a URL only to parse it:" >&2
    echo "$format_parse_offenders" >&2
    echo >&2
    echo "Build it from its canonical parts with Url::https_at (or" >&2
    echo "Url::https(..).with_path(..)), or clone the world's Url." >&2
    exit 1
fi

echo "ok: no URL is formatted only to be parsed in crates/*/src"

# One hash policy on the request and fold paths. A map keyed by values
# the program generates (hosts, paths, domains, URLs, cookie domains)
# takes `panoptes_http::hash::{FastMap, FastSet}`, one multiply per key
# word, never std's keyed SipHash; and the deterministic string hash is
# `panoptes_http::hash::fnv1a`, never a private copy of FNV-1a, whose
# values seed every study. Maps keyed by outside input (serve's query
# parameters, the parsed filter and hosts lists) live in other crates
# and keep std's `RandomState`. `hash.rs` itself, binaries, test
# modules (below the first `#[cfg(test)]`) and comment lines are
# exempt. No opt-out marker.

hash_dirs="crates/nettypes/src crates/simnet/src crates/webworld/src crates/browsers/src crates/mitm/src crates/analysis/src"
hash_offenders=$(find $hash_dirs -name '*.rs' | grep -v '/src/bin/' \
    | grep -v '^crates/nettypes/src/hash\.rs$' | sort \
    | while read -r f; do
    awk '/#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR": "$0}' "$f"
done | grep -E '\bHash(Map|Set)\b|0xcbf2_?9ce4_?8422_?2325' | grep -vE ':[0-9]+: *//' || true)

if [ -n "$hash_offenders" ]; then
    echo "error: std-hashed map or private FNV-1a on the request path:" >&2
    echo "$hash_offenders" >&2
    echo >&2
    echo "Key program-generated values with panoptes_http::hash::FastMap" >&2
    echo "or FastSet, and hash with panoptes_http::hash::fnv1a." >&2
    exit 1
fi

echo "ok: one hash policy in $hash_dirs"

# Third gate: the fused study engine. Detectors must feed on the fused
# pass (`engine::CrawlPartials`) instead of opening their own snapshot
# iteration — every extra `store.snapshot()` walk outside the engine is
# another full pass over the capture, and a second implementation of
# the detector. The renderers and both study runners (offline and
# served) read only analyses: a capture is dropped once the engine has
# walked it. No exceptions.

multipass_pattern='\.snapshot\(\)'
engine_dirs="crates/analysis/src crates/bench/src/render.rs crates/bench/src/study.rs crates/serve/src"

multipass_offenders=$(grep -rnE "$multipass_pattern" $engine_dirs --include='*.rs' \
    | grep -v 'crates/analysis/src/engine\.rs' || true)

if [ -n "$multipass_offenders" ]; then
    echo "error: detector opens its own snapshot iteration outside the" >&2
    echo "fused engine pass:" >&2
    echo "$multipass_offenders" >&2
    echo >&2
    echo "Feed the detector through engine::CrawlPartials (observe/" >&2
    echo "finish, per flow or per observation) so the study stays" >&2
    echo "single-pass." >&2
    exit 1
fi

echo "ok: no multi-pass snapshot iterations outside the fused engine in $engine_dirs"

# One analysis path: the study server runs and analyses every unit
# through the study's unit job (`panoptes_bench::study::analyse_unit`),
# the code `repro` runs, so a served study equals `repro` because it is
# the same code. Serve never runs a unit or analyses a capture itself.

serve_unit_pattern='\banalyze_(crawl|idle)\b|\brun_unit\b'
serve_unit_offenders=$(grep -rnE "$serve_unit_pattern" crates/serve/src --include='*.rs' \
    | grep -vE ':[0-9]+: *//' || true)

if [ -n "$serve_unit_offenders" ]; then
    echo "error: the study server runs or analyses a unit itself:" >&2
    echo "$serve_unit_offenders" >&2
    echo >&2
    echo "Run each unit through panoptes_bench::study::analyse_unit and" >&2
    echo "each phase through study::assemble, as Study::run does." >&2
    exit 1
fi

echo "ok: crates/serve/src runs units only through the study's unit job"

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
