#!/usr/bin/env bash
# CI entry point, split into named stages:
#
#   build        release build of the workspace
#   lint         clippy + rustfmt --check + rustdoc (all warnings denied),
#                then the grep guards against copies growing back: the
#                Kubernetes tick and kubelet boot each still live in one
#                file and the per-scenario `run_traced` twins stay gone;
#                `World::drive` is the one §6 driver (no DES in hpcc-adapt
#                or hpcc-core outside tests, no backend env knob);
#                hpcc-bench has exactly two drivers (`bench`, `repro`), no
#                `benches/` and no criterion; no per-tick caller recounts
#                the pod or node set (`list_pods` / `list_nodes`); a bench
#                suite has one golden or none (no `tests/bench`, no
#                `BENCH_core.json`, no tolerance or JSON reader); the
#                write path encodes and hashes a layer once (no
#                `.digest()` and no spare `.to_bytes()` in the build
#                service, build cache or image builder) and hpcc-crypto
#                has no `unsafe`; the seekable index is a flat table over
#                its bytes (no `BTreeMap<String` in seekable.rs) and the
#                engine shares the index blob (no `from_bytes` copy in
#                lazy.rs); a storm pull builds no metric name (no
#                `self.metrics.incr(`/`.add(` or `tier_metric` in
#                tiered.rs) and span attribute values are typed (no
#                `(Symbol, String)` above obs.rs's tests); one public surface: a
#                `pub` item nothing outside its crate names is a FAIL
#                naming the item (it is `pub(crate)` or deleted), and no
#                `allow(dead_code)` or `allow(unused…)` under crates/,
#                tests/ or examples/, and every
#                `allow(clippy::too_many_arguments)` has a `//` reason on
#                the line above
#   test         full test suite, then hpcc-codec and hpcc-vfs again under
#                `taskset -c 0` so the inline (one-core) path of block
#                compression is exercised too (skipped with a notice when
#                `taskset` is absent)
#   determinism  chaos suite + golden traces, each run twice with
#                identical seeds and their printed fingerprints diffed
#   goldens      checked-in golden traces *and experiment transcripts*
#                match the code (`repro --check`; re-bless with
#                `repro --bless [name...]`). It renders every transcript
#                twice, `quant11` (nine site-scale controller runs)
#                included: about 2 s of this stage, about 4 min of it
#                before a controller tick cost O(1) — the number to hold
#                the stage timer against
#   bench*       every bench-* stage is `bench <suite> --check`: the
#                suite's structural gates, and for the six deterministic
#                suites exact bytes against `BENCH_<suite>.json`
#                (`bench <suite> --bless` rewrites it; nothing else
#                does). All but `bench` are skipped under CI_QUICK=1.
#                What each suite's own gates claim:
#   bench        pipeline suite: parallelism never slows a cold pull,
#                warm pulls hit the blob store, siblings dedup
#   bench-adapt  adaptive-partition policy sweep: every workload
#                completes; on the bursty trace ewma-forecast beats static
#                on utilization and queue-threshold on p95 pod start
#   bench-core   simulator-core microbenches, the one suite that reads
#                the host clock and so has no golden: the live
#                event-dispatch speedup floor, about 2 s
#   bench-storm  fleet-scale pull-storm sweep (16 -> 10k nodes): tiered
#                latency stays flat and reaches the origin once per
#                blob while direct requests grow with the fleet
#   bench-lazy   lazy-vs-eager pull: lazy wins time-to-first-exec on
#                many-small-files and moves fewer bytes; full scans
#                still favor eager
#   bench-build  build-plane sweep (N tenants x M builds, cold / warm /
#                shared-base): warm rebuilds replay from cache, shared
#                base builds and uploads once (origin blob count flat)
#   bench-chaos  game-day chaos suite (rack power loss, row partition,
#                origin overload x none / breakers): the breaker rows
#                absorb every outage with zero failed pulls and recover
#                within the ceiling, the dead rack's broadcast subtree
#                re-heals
#   crash-matrix kill-at-every-crash-point recovery matrix, run in the
#                debug profile so the unregistered-journal-site debug
#                assertion is live; skipped under CI_QUICK=1
#   hostbench    the host-time benchmark package (`benchmark/`, its own
#                workspace and lock file) compiled and tested against
#                the workspace crates — the only stage that notices a
#                change breaking the call surface `benchmark/src/sut.rs`
#                is frozen against (`run_timed`, `CircuitBreaker`,
#                `broadcast_tree_from_seeds`, `sign_and_push`, ...); under
#                CI_QUICK=1 it only type-checks (`cargo check --all-targets`)
#
# Usage:
#   scripts/ci.sh                 run every stage
#   scripts/ci.sh --stage lint    run one stage
#   scripts/ci.sh --list-stages   print one stage name per line and exit
#                                 (machine-readable; the GitHub Actions
#                                 matrix is generated from this, so the
#                                 two can never drift)
#   CI_QUICK=1 scripts/ci.sh     fast path: skip the double-run
#                                 determinism gates (the goldens staleness
#                                 check still runs, so single-run drift is
#                                 still caught)
#
# Every stage is timed; a wall-clock summary prints at the end — also on
# failure, via the ERR trap, so a red run still shows where the time went.
# -E so the ERR trap fires inside stage functions too.
set -Eeuo pipefail
cd "$(dirname "$0")/.."

CHAOS_SEED="${CHAOS_SEED:-42}"
export CHAOS_SEED
CI_QUICK="${CI_QUICK:-0}"

STAGES=(build lint test determinism goldens bench bench-adapt bench-core bench-storm bench-lazy bench-build bench-chaos crash-matrix hostbench)
ONLY_STAGE=""
if [[ "${1:-}" == "--list-stages" ]]; then
    printf '%s\n' "${STAGES[@]}"
    exit 0
elif [[ "${1:-}" == "--stage" ]]; then
    ONLY_STAGE="${2:?--stage needs a name (${STAGES[*]})}"
    found=0
    for s in "${STAGES[@]}"; do [[ "$s" == "$ONLY_STAGE" ]] && found=1; done
    if [[ "$found" != 1 ]]; then
        echo "unknown stage '$ONLY_STAGE' (expected one of: ${STAGES[*]})" >&2
        exit 2
    fi
elif [[ $# -gt 0 ]]; then
    echo "usage: $0 [--stage <${STAGES[*]// /|}> | --list-stages]" >&2
    exit 2
fi

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

STAGE_NAMES=()
STAGE_SECONDS=()
CURRENT_STAGE=""
CURRENT_T0=0
SUMMARY_PRINTED=0

stage_build() {
    echo "==> cargo build --release"
    cargo build --release
}

stage_lint() {
    echo "==> cargo clippy (workspace, warnings are errors)"
    cargo clippy --workspace --all-targets -- -D warnings
    echo "==> cargo fmt --all -- --check"
    cargo fmt --all -- --check
    echo "==> cargo doc (workspace, no deps, warnings are errors)"
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
    echo "==> one co-simulation loop (DESIGN.md §\"One co-simulation loop\")"
    # Copies of the Slurm + Kubernetes tick grow back through these two
    # calls; hpcc-k8s's own unit tests aside, each has one home.
    only_in() {
        local what="$1" pattern="$2" skip="$3" home="$4" found
        found="$(grep -rlE "$pattern" crates/*/src examples --include='*.rs' \
            | grep -vE "$skip" | sort | tr '\n' ' ' || true)"
        if [[ "$found" != "$home " ]]; then
            echo "FAIL: $what belongs in $home only, found in: ${found:-nowhere}" >&2
            exit 1
        fi
    }
    only_in "the Kubernetes tick (Kubelet::sync / Kubelet::advance_to)" \
        '\.sync\(&|\.advance_to\(&' '^crates/k8s/src/kubelet\.rs$' crates/k8s/src/k3s.rs
    only_in "kubelet boot (Kubelet::start)" \
        '\bKubelet::start\(' '^crates/k8s/' crates/adapt/src/cosim.rs
    if grep -rnE 'run_traced|run_detailed_traced' crates examples tests --include='*.rs'; then
        echo "FAIL: one traced entry per scenario; pass Tracer::disabled() for an untraced run" >&2
        exit 1
    fi
    echo "OK: one tick, one kubelet boot, one entry per scenario"
    echo "==> one §6 driver (DESIGN.md §\"One co-simulation loop\")"
    # The pattern is split so this file does not match itself.
    if grep -rn 'HPCC_DES_''BACKEND\|from_''env' crates tests scripts .github; then
        echo "FAIL: the DES backend is chosen in code (Engine::with_backend), not by the environment" >&2
        exit 1
    fi
    for f in $(find crates/adapt/src crates/core/src -name '*.rs'); do
        if sed '/#\[cfg(test)\]/q' "$f" | grep -nE '\bdes::|\bEngine<|tick_event'; then
            echo "FAIL: $f drives ticks on the event queue; World::drive is the one §6 driver (the event-driven one is hpcc-adapt's test reference)" >&2
            exit 1
        fi
    done
    echo "OK: no backend knob, no event-driven driver outside tests"
    echo "==> no per-tick recount (DESIGN.md §\"What a tick costs\")"
    # The API server keeps the counts control loops read every tick; the
    # listing calls are for callers that want the objects themselves.
    only_in "listing every pod (list_pods(|_| true))" \
        'list_pods\(\|_\| true\)' '^crates/k8s/src/objects\.rs$' crates/adapt/src/cosim.rs
    if [[ "$(grep -c 'list_pods(|_| true)' crates/adapt/src/cosim.rs)" != 1 ]]; then
        echo "FAIL: World::finish is the one caller that lists every pod" >&2
        exit 1
    fi
    sync_body="$(sed -n '/pub fn sync(/,/pub fn advance_to(/p' crates/k8s/src/kubelet.rs)"
    if [[ -z "$sync_body" ]]; then
        echo "FAIL: cannot find Kubelet::sync (up to advance_to) in crates/k8s/src/kubelet.rs" >&2
        exit 1
    fi
    if grep -nE 'list_pods|list_nodes' crates/adapt/src/controller.rs crates/k8s/src/scheduler.rs \
        || grep -nE 'list_pods|list_nodes' <<< "$sync_body"; then
        echo "FAIL: the controller step, the pod scheduler and Kubelet::sync read ApiServer::pod_tallies / scheduled_pods, not a listing" >&2
        exit 1
    fi
    echo "OK: tick-path callers count nothing themselves"
    echo "==> two bench drivers (DESIGN.md §\"Bench harness\")"
    if [[ "$(ls crates/bench/src/bin | tr '\n' ' ')" != "bench.rs repro.rs " ]]; then
        echo "FAIL: crates/bench/src/bin holds bench.rs and repro.rs only; a new experiment is an entry of repro::EXPERIMENTS" >&2
        exit 1
    fi
    if [[ -e crates/bench/benches ]]; then
        echo "FAIL: crates/bench/benches is back; host time is measured by benchmark/, logical time by repro" >&2
        exit 1
    fi
    if grep -n criterion Cargo.toml crates/*/Cargo.toml crates/shims/*/Cargo.toml benchmark/Cargo.toml; then
        echo "FAIL: criterion is back in a Cargo.toml" >&2
        exit 1
    fi
    echo "OK: bench + repro, no benches/, no criterion"
    echo "==> one golden or none (DESIGN.md §\"Bench harness\")"
    if [[ -e tests/bench || -e BENCH_core.json ]]; then
        echo "FAIL: tests/bench or BENCH_core.json is back; a deterministic suite has one golden, BENCH_<suite>.json, and a wall-clock suite has none" >&2
        exit 1
    fi
    if grep -rnE '_TOLERANCE|gated_metrics|compare_to_baseline|HAS_QUICK|CHECK_RETRIES|json::parse' crates/bench/src; then
        echo "FAIL: the tolerance gate is growing back; bench --check compares bytes, and host time is compared by benchmark/run.sh compare" >&2
        exit 1
    fi
    echo "OK: no second baseline copy, no tolerance, no JSON reader"
    echo "==> a layer is encoded and hashed once (DESIGN.md §\"A layer is encoded and hashed once\")"
    if grep -rn 'unsafe' crates/crypto/src; then
        echo "FAIL: hpcc-crypto is safe portable Rust; a faster kernel is measured against benchmark/ first" >&2
        exit 1
    fi
    # file : layer encodings allowed above its tests. The build plane
    # carries SealedLayers (none); ImageBuilder::build encodes each layer
    # for the one Cas::put whose descriptor the manifest reuses.
    for site in crates/build/src/service.rs:0 crates/build/src/cache.rs:0 crates/oci/src/builder.rs:1; do
        f="${site%:*}"
        body="$(sed '/#\[cfg(test)\]/q' "$f")"
        if grep -nE '\.digest\(\)' <<< "$body"; then
            echo "FAIL: $f hashes an archive again; take the digest from the SealedLayer or from the descriptor Cas::put returned" >&2
            exit 1
        fi
        encodings="$(grep -E '\.to_bytes\(\)' <<< "$body" | grep -cvE '(config|manifest)\.to_bytes\(\)' || true)"
        if [[ "$encodings" -gt "${site##*:}" ]]; then
            echo "FAIL: $f calls .to_bytes() on a layer $encodings time(s), allowed ${site##*:}; seal it once and share the bytes" >&2
            exit 1
        fi
    done
    echo "OK: no unsafe in hpcc-crypto, no second encoding or digest on the write path"
    echo "==> the lazy-pull index is its own bytes (DESIGN.md §\"Lazy image format\")"
    if sed '/#\[cfg(test)\]/q' crates/vfs/src/seekable.rs | grep -n 'BTreeMap<String'; then
        echo "FAIL: crates/vfs/src/seekable.rs maps owned paths again; the index is a flat table over its encoding" >&2
        exit 1
    fi
    if sed '/#\[cfg(test)\]/q' crates/engine/src/lazy.rs | grep -n 'SeekableIndex::from_bytes'; then
        echo "FAIL: crates/engine/src/lazy.rs copies the index blob; hand its Arc to SeekableIndex::from_shared" >&2
        exit 1
    fi
    echo "OK: no path map in the seekable index, no copy of the index blob in the engine"
    echo "==> a storm pull builds no name (DESIGN.md §\"Observability\")"
    if sed '/#\[cfg(test)\]/q' crates/registry/src/tiered.rs \
        | grep -nE 'self\.metrics\.(incr|add)\(|fn tier_metric\b'; then
        echo "FAIL: crates/registry/src/tiered.rs looks a counter up by name per event; bump its Series handle, named once per topology" >&2
        exit 1
    fi
    if sed '/#\[cfg(test)\]/q' crates/sim/src/obs.rs | grep -nF '(Symbol, String)'; then
        echo "FAIL: crates/sim/src/obs.rs holds span attributes as strings again; values are typed (Symbol, AttrValue) pairs, formatted only by the exporter" >&2
        exit 1
    fi
    echo "OK: storm counters are handles, span attribute values are typed"
    echo "==> one public surface (docs/pr/25.md)"
    # `pub` hides an item from rustc's dead_code lint, and every module is
    # `pub mod`, so `unreachable_pub` cannot tell either: check names. A
    # `pub` item above a library's test module must be named outside the
    # library (other crates, tests/, examples/, benchmark/src, its own
    # src/bin) or by another `pub` signature of the library (a type it
    # exposes); comments name nothing, doc links do.
    local lib crate bad=0
    for lib in crates/*/src/lib.rs; do
        crate="${lib%/src/lib.rs}"
        find "$crate/src" -name '*.rs' -not -path "$crate/src/bin/*" | sort > "$tmpdir/lib"
        { find crates/*/src tests examples benchmark/src -name '*.rs' -not -path "$crate/src/*"
          find "$crate/src" -path "$crate/src/bin/*" -name '*.rs'; } \
            | xargs awk '!/^[ \t]*\/\// { print; next }
                { s = $0; while (match(s, /\[[^]]*\]/)) { print substr(s, RSTART, RLENGTH); s = substr(s, RSTART + RLENGTH) } }' \
            | tr -cs 'A-Za-z0-9_' '\n' | sort -u > "$tmpdir/outside"
        # First the outside words, then the library. A signature runs from
        # a `pub` line to its `{` or `;` (a field to its `,`; an enum, a
        # trait or an exported macro to its closing brace), plus trait
        # impls' associated types; within `impl T`, signatures do not
        # count as exposing `T` itself.
        xargs awk '
            FNR == NR { outside[$0] = 1; next }
            FNR == 1 { done = 0; sig = 0; gated = 0; owner = "" }
            done { next }
            prev ~ /^#\[cfg\(test\)\]/ && /^(pub(\([a-z]+\))? )?mod / { done = 1; next }
            { prev = $0 }
            /^[ \t]*#\[cfg\(test\)\]/ { gated = 1; next }
            /^#\[macro_export\]/ { exported = 1; next }
            /^[ \t]*(#|\/\/)/ { next }
            /^impl[ <]/ {
                owner = $0; sub(/^impl(<[^>]*>+)? */, "", owner); sub(/.* for +/, "", owner)
                sub(/[^A-Za-z0-9_].*/, "", owner); if (/\{ *\}$/) owner = ""
            }
            /^}/ { owner = "" }
            /^[ \t]*pub +/ && !/^[ \t]*pub +(use|mod|extern) / && !sig {
                s = $0
                sub(/^[ \t]*pub +((const|async|unsafe) +)*(fn|struct|enum|trait|type|const|static) +/, "", s)
                if (!gated && s != $0 && match(s, /^[A-Za-z_][A-Za-z0-9_]*/)) {
                    n++; name[n] = substr(s, 1, RLENGTH); at[n] = FILENAME ":" FNR
                }
                sig = 1; chunks++; indent = $0; sub(/[^ \t].*/, "", indent)
                body = $0 ~ /^[ \t]*pub +(enum|trait) /
                field = $0 ~ /^[ \t]*pub +[A-Za-z_][A-Za-z0-9_]* *:/
            }
            /^    type [A-Za-z_]+.*=/ && !sig { sig = 1; chunks++; body = 0; field = 0 }
            /^macro_rules!/ && exported { sig = 1; chunks++; indent = ""; body = 1; field = 0 }
            { gated = 0; exported = 0 }
            sig {
                line = $0; gsub(/[^A-Za-z0-9_]+/, " ", line)
                k = split(line, w, " ")
                for (i = 1; i <= k; i++) if (seen[w[i]] != chunks && w[i] != owner) { seen[w[i]] = chunks; named[w[i]]++ }
                if (body) { if ($0 == indent "}" || $0 ~ /^[ \t]*pub .*(\{ *\}|;)[ \t]*$/) sig = 0 }
                else if (field ? $0 ~ /,[ \t]*$/ : $0 ~ /[{;]/) sig = 0
            }
            END {
                # Its own declaration is one signature naming it.
                for (i = 1; i <= n; i++) if (!(name[i] in outside) && named[name[i]] < 2)
                    print "FAIL: " at[i] ": pub " name[i] " is named nowhere outside its crate; make it pub(crate), or delete it"
            }' "$tmpdir/outside" < "$tmpdir/lib" > "$tmpdir/surface"
        if [[ -s "$tmpdir/surface" ]]; then
            cat "$tmpdir/surface" >&2
            bad=1
        fi
    done
    if grep -rnE 'allow\((dead_code|unused)' crates tests examples --include='*.rs'; then
        echo "FAIL: dead code is deleted, not allowed" >&2
        bad=1
    fi
    # A long parameter list says why on the line above its allow, in a
    # plain `//` comment (a doc comment describes the function, not the
    # allow); arguments that travel together belong in a struct.
    local unexplained
    unexplained="$(find crates tests examples -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { prev = "" }
        /allow\(clippy::too_many_arguments\)/ && prev !~ /^[ \t]*\/\/([^\/!]|$)/ {
            print FILENAME ":" FNR ": " $0
        }
        { prev = $0 }')"
    if [[ -n "$unexplained" ]]; then
        echo "$unexplained" >&2
        echo "FAIL: an allow(clippy::too_many_arguments) without a // reason on the line above; bundle arguments that travel together into a struct, or say why they stay apart" >&2
        bad=1
    fi
    if [[ "$bad" != 0 ]]; then
        exit 1
    fi
    echo "OK: every pub item is named outside its crate or by a pub signature; no dead code allowed; every too_many_arguments allow says why"
}

stage_test() {
    echo "==> cargo test -q"
    cargo test -q
    # Block compression runs inline when only one core is available and on
    # scoped threads otherwise; runners have two or more, so pin the two
    # crates that use it to one core to keep the inline path tested.
    if command -v taskset > /dev/null; then
        echo "==> cargo test -q -p hpcc-codec -p hpcc-vfs (taskset -c 0: one core)"
        taskset -c 0 cargo test -q -p hpcc-codec -p hpcc-vfs
    else
        echo "NOTICE: taskset not found; the one-core rerun of hpcc-codec/hpcc-vfs is skipped"
    fi
}

stage_determinism() {
    if [[ "$CI_QUICK" == 1 ]]; then
        echo "==> determinism gates skipped (CI_QUICK=1)"
        return 0
    fi
    echo "==> chaos suite, two runs with CHAOS_SEED=${CHAOS_SEED}"
    for run in 1 2; do
        cargo test -q -p hpcc-core --test integration_faults \
            chaos_scenario_is_reproducible -- --nocapture \
            | grep '^CHAOS ' > "$tmpdir/chaos.$run"
    done
    if ! diff -u "$tmpdir/chaos.1" "$tmpdir/chaos.2"; then
        echo "FAIL: chaos metrics differ between identically-seeded runs" >&2
        exit 1
    fi
    echo "OK: chaos metrics identical across runs ($(wc -l < "$tmpdir/chaos.1") lines)"

    echo "==> golden traces, two runs"
    for run in 1 2; do
        cargo test -q -p hpcc-core --test integration_traces \
            golden_traces_are_reproducible -- --exact --nocapture \
            | grep '^TRACE ' > "$tmpdir/trace.$run"
    done
    if ! diff -u "$tmpdir/trace.1" "$tmpdir/trace.2"; then
        echo "FAIL: trace digests differ between runs" >&2
        exit 1
    fi
    echo "OK: trace digests identical across runs ($(wc -l < "$tmpdir/trace.1") lines)"
}

stage_goldens() {
    echo "==> experiment transcripts and golden traces vs checked-in files"
    # --release reuses the artifacts of the build stage; a plain
    # `cargo run -q` here used to force a second full debug build.
    cargo run --release -q -p hpcc-bench --bin repro -- --check
}

# Every bench stage is `bench <suite> --check`; the heavy sweeps are
# skipped under CI_QUICK=1.
bench_stage() {
    local suite="$1" banner="$2"
    if [[ "$CI_QUICK" == 1 ]]; then
        echo "==> $banner skipped (CI_QUICK=1)"
        return 0
    fi
    echo "==> $banner"
    cargo run --release -q -p hpcc-bench --bin bench -- "$suite" --check
}

# The quick job keeps the pipeline gate live, so this stage ignores CI_QUICK.
stage_bench() { CI_QUICK=0 bench_stage pipeline "pipeline benchmark suite: gates + golden"; }
stage_bench-adapt() { bench_stage adapt "adaptive-partition policy sweep: gates + golden"; }
stage_bench-core() { bench_stage core "simulator-core microbenches: live speedup floor (host clock, ~2 s)"; }
stage_bench-storm() { bench_stage storm "fleet-scale pull-storm sweep: flat-latency + origin-request gates + golden"; }
stage_bench-lazy() { bench_stage lazy "lazy-vs-eager pull: time-to-first-exec gates + golden"; }
stage_bench-build() { bench_stage build "build plane: incremental-rebuild + shared-base gates + golden"; }
stage_bench-chaos() { bench_stage chaos "game-day chaos suite: outage absorption + recovery + golden"; }

stage_crash-matrix() {
    if [[ "$CI_QUICK" == 1 ]]; then
        echo "==> crash matrix skipped (CI_QUICK=1)"
        return 0
    fi
    # Deliberately the debug profile: any journal write site that forgot
    # to register its crash points trips a debug assertion here.
    echo "==> crash matrix: kill at every registered crash point, recover"
    cargo test -q -p hpcc-core --test integration_crash
}

stage_hostbench() {
    # Read-only use of benchmark/: it builds into benchmark/target.
    if [[ "$CI_QUICK" == 1 ]]; then
        # Tier-1 never compiles benchmark/, so the quick job still type-checks
        # it: a signature change under sut.rs must be red here too.
        echo "==> hostbench: benchmark/ type-checks against the workspace (CI_QUICK=1)"
        (cd benchmark && cargo check -q --offline --all-targets)
        return 0
    fi
    echo "==> hostbench: benchmark/ compiles and passes against the workspace"
    (cd benchmark && cargo test -q --offline)
}

# Every STAGES entry must have a stage_<name>() function and vice versa;
# --list-stages feeds the GitHub Actions matrix, so drift here would
# silently drop a gate from CI.
for s in "${STAGES[@]}"; do
    if ! declare -F "stage_$s" > /dev/null; then
        echo "ci.sh drift: '$s' is in STAGES but stage_$s() is not defined" >&2
        exit 2
    fi
done
while read -r fn; do
    name="${fn#stage_}"
    found=0
    for s in "${STAGES[@]}"; do [[ "$s" == "$name" ]] && found=1; done
    if [[ "$found" != 1 ]]; then
        echo "ci.sh drift: stage_$name() is defined but '$name' is missing from STAGES" >&2
        exit 2
    fi
done < <(declare -F | awk '{print $3}' | grep '^stage_')

print_summary() {
    [[ "$SUMMARY_PRINTED" == 1 ]] && return 0
    SUMMARY_PRINTED=1
    echo
    echo "stage timing:"
    local total=0 i
    for i in "${!STAGE_NAMES[@]}"; do
        printf '  %-20s %4ds\n' "${STAGE_NAMES[$i]}" "${STAGE_SECONDS[$i]}"
        total=$((total + STAGE_SECONDS[i]))
    done
    printf '  %-20s %4ds\n' "total" "$total"
}

on_stage_err() {
    # A stage died mid-run; account for its partial wall-clock so the
    # summary still prints where the time went before the failure.
    if [[ -n "$CURRENT_STAGE" ]]; then
        STAGE_NAMES+=("$CURRENT_STAGE (FAILED)")
        STAGE_SECONDS+=($((SECONDS - CURRENT_T0)))
    fi
    print_summary >&2
}
trap on_stage_err ERR

run_stage() {
    CURRENT_STAGE="$1"
    CURRENT_T0=$SECONDS
    "stage_$CURRENT_STAGE"
    STAGE_NAMES+=("$CURRENT_STAGE")
    STAGE_SECONDS+=($((SECONDS - CURRENT_T0)))
    CURRENT_STAGE=""
}

if [[ -n "$ONLY_STAGE" ]]; then
    run_stage "$ONLY_STAGE"
else
    for s in "${STAGES[@]}"; do
        run_stage "$s"
    done
fi

print_summary
