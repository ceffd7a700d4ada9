#!/usr/bin/env bash
# Alternating A/B pairs of the host-time benchmark: a parent revision
# against this checkout.
#
#   scripts/ab_pairs.sh <parent-rev> <workload>... [--pairs N] [--seed S]
#
# Builds `benchmark/` (hostbench) twice, in turn, at one source path and
# into one target directory: first from `git archive <parent-rev>`, then
# from this checkout (HEAD plus whatever is uncommitted; untracked files
# that are not ignored count). Each binary is copied out after its build,
# so two builds of one source are the same binary and an A/B differs only
# by the change. Then, per workload, runs N pairs (default 10) at
# `--seconds 10 --trace 0`, pair k on seed S+k (default S = 1), parent
# first in even pairs and the change first in odd ones, so a host that
# changes speed mid-run charges both sides alike.
#
# Host modes: hostbench prints each run's class floors (the fastest op of
# each class). A pair whose two runs' floor sums differ by more than
# BAND (15 %), after dividing out the median of that ratio over the
# workload's first N pairs (the change's own effect on op time), ran in
# two host modes. It is flagged, left out of every count, and replaced by
# a pair on a fresh seed; at most N replacements per workload.
#
# Prints every run, then per workload and end-to-end metric: the median
# and quartiles of each side, the ratio of the medians, the median of the
# per-pair ratios, the sign count (pairs the change did better / worse /
# tied, by the metric's direction in BENCHMARK.json), and a verdict from
# those two: "better" or "worse" when a one-sided sign test passes at
# 2.5 % and the median per-pair ratio moves the parent's median by more
# than the parent's interquartile distance; "same" otherwise. A pair whose
# two sides disagree on `sim_digest` or fail any op is flagged. Builds and
# logs go to a fresh directory under ${TMPDIR:-/tmp}; nothing in the
# checkout is written.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    echo "usage: $0 <parent-rev> <workload>... [--pairs N] [--seed S]" >&2
    exit 2
}

[[ $# -ge 2 ]] || usage
parent_rev="$1"
shift
pairs=10
seed=1
workloads=()
while [[ $# -gt 0 ]]; do
    case "$1" in
        --pairs) pairs="${2:?--pairs needs a count}"; shift 2 ;;
        --seed) seed="${2:?--seed needs a number}"; shift 2 ;;
        -*) usage ;;
        *) workloads+=("$1"); shift ;;
    esac
done
[[ ${#workloads[@]} -gt 0 && "$pairs" -ge 1 ]] || usage
git rev-parse --verify --quiet "$parent_rev^{commit}" > /dev/null \
    || { echo "unknown revision '$parent_rev'" >&2; exit 2; }

BAND=0.15
work="$(mktemp -d "${TMPDIR:-/tmp}/ab_pairs.XXXXXX")"
echo "work directory: $work"
mkdir -p "$work/bin" "$work/out/parent" "$work/out/change"
# The change's files, taken before anything is built.
git ls-files -z --cached --others --exclude-standard \
    | tar --null --no-recursion --ignore-failed-read -T - -cf "$work/change.tar" 2> /dev/null

for side in parent change; do
    echo "building hostbench ($side)"
    rm -rf "$work/src"
    mkdir "$work/src"
    # -m: every file gets the extraction time, so cargo rebuilds what the
    # other side left in the shared target directory instead of trusting
    # the older mtimes an archive carries.
    if [[ $side == parent ]]; then
        git archive "$parent_rev" | tar -xm -C "$work/src"
    else
        # A tracked file deleted in the checkout is left out, as a commit would.
        tar -xm -C "$work/src" -f "$work/change.tar"
    fi
    CARGO_TARGET_DIR="$work/target" cargo build --release --offline --quiet \
        --manifest-path "$work/src/benchmark/Cargo.toml"
    cp "$work/target/release/hostbench" "$work/bin/$side"
done
if cmp -s "$work/bin/parent" "$work/bin/change"; then
    echo "the two binaries are identical (an A/A run)"
fi

# The five end-to-end metrics and whether higher is better.
metrics=(setup_s ops_per_s op_p50_ms op_p90_ms peak_rss_mb)
higher=(0 1 0 0 0)

run() { # side workload seed -> one line: metrics..., fail_ratio, sim_digest, floor sum
    local side="$1" out="$work/$1.$2.$3.log"
    HOSTBENCH_DIR="$work/out/$side" "$work/bin/$side" \
        --workload "$2" --seed "$3" --seconds 10 --trace 0 > "$out" 2>&1 \
        || { echo "hostbench ($side $2 seed $3) failed; see $out" >&2; exit 1; }
    awk -v names="${metrics[*]} fail_ratio sim_digest" '
        BEGIN { n = split(names, want, " ") }
        /class floors/ { for (i = 4; i <= NF; i++) floor += $i; next }
        $1 in got { next }
        { for (i = 1; i <= n; i++) if ($1 == want[i]) got[$1] = $2 }
        END {
            for (i = 1; i <= n; i++) printf "%s ", got[want[i]]
            printf "%.3f\n", floor
        }' "$out"
}

run_pair() { # pair seed: prints both runs, appends them to $rows
    local k="$1" s="$2" order side
    if ((k % 2 == 0)); then order=(parent change); else order=(change parent); fi
    declare -A row=()
    for side in "${order[@]}"; do row[$side]="$(run "$side" "$w" "$s")"; done
    for side in parent change; do
        read -r -a v <<< "${row[$side]}"
        printf '%-5s %-6s %-7s' "$k" "$s" "${order[0]}"
        printf ' %14s' "${v[@]:0:5}"
        printf '  %s %-6s floors %s' "${v[6]}" "$side" "${v[7]}"
        [[ "${v[5]}" == "0.000000" ]] || printf '  FAILED OPS (fail_ratio %s)' "${v[5]}"
        printf '\n'
        echo "$k $side ${row[$side]}" >> "$rows"
    done
    local p=(${row[parent]}) c=(${row[change]})
    [[ "${p[6]}" == "${c[6]}" ]] || echo "      sim_digest differs: the model changed"
}

floor_ratio() { # pair -> the change's floor sum over the parent's
    awk -v k="$1" '$1 == k && $2 == "parent" { p = $10 } $1 == k && $2 == "change" { c = $10 }
        END { print (p > 0 ? c / p : 1) }' "$rows"
}

mode_mismatch() { # pair median -> exit 0 when the two runs' floors are more than BAND apart
    awk -v r="$(floor_ratio "$1")" -v m="$2" -v band="$BAND" \
        'BEGIN { x = r / m; exit !(x > 1 + band || x < 1 / (1 + band)) }'
}

for w in "${workloads[@]}"; do
    echo
    echo "== $w: $pairs pairs, seeds $seed..$((seed + pairs - 1))"
    printf '%-5s %-6s %-7s' pair seed first
    printf ' %14s' "${metrics[@]}"
    printf '  %-16s %-6s %s\n' sim_digest side "floor sum (ms)"
    rows="$work/$w.rows"
    : > "$rows"
    for ((k = 0; k < pairs; k++)); do run_pair "$k" "$((seed + k))"; done
    median="$(for ((k = 0; k < pairs; k++)); do floor_ratio "$k"; done | sort -g \
        | awk '{ a[n++] = $1 } END { print (n % 2 ? a[int(n / 2)] : (a[n / 2 - 1] + a[n / 2]) / 2) }')"
    excluded=" "
    next_pair=$pairs
    owed=0
    for ((k = 0; k < pairs; k++)); do
        if mode_mismatch "$k" "$median"; then excluded+="$k "; owed=$((owed + 1)); fi
    done
    [[ $owed -eq 0 ]] || echo "-- mode mismatch (floors > ${BAND} apart after the median ratio ${median}):${excluded}re-run on fresh seeds"
    while ((owed > 0 && next_pair < 2 * pairs)); do
        k=$next_pair
        next_pair=$((next_pair + 1))
        run_pair "$k" "$((seed + k))"
        if mode_mismatch "$k" "$median"; then
            excluded+="$k "
            echo "      pair $k is a mode mismatch too"
        else
            owed=$((owed - 1))
        fi
    done
    [[ $owed -eq 0 ]] || echo "-- $owed mode-mismatched pairs not replaced: the re-run budget ($pairs) is spent"
    echo "-- $w summary over the pairs not flagged (median [q1, q3]; per-pair ratio = change / parent;"
    echo "   sign = pairs the change did better/worse/tied)"
    for i in "${!metrics[@]}"; do
        awk -v col=$((i + 3)) -v name="${metrics[$i]}" -v higher="${higher[$i]}" -v excluded="$excluded" '
            function quantile(a, n, q,   h, lo) {
                h = (n - 1) * q; lo = int(h)
                return lo + 1 < n ? a[lo] + (h - lo) * (a[lo + 1] - a[lo]) : a[lo]
            }
            function sorted(a, n,   i, j, t) {
                for (i = 1; i < n; i++) for (j = i; j > 0 && a[j - 1] > a[j]; j--) {
                    t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
                }
            }
            # One-sided sign test at 2.5 %: P(X >= k) for X ~ Bin(n, 1/2).
            function tail(k, n,   i, c, s) {
                c = 1; s = 0
                for (i = 0; i <= n; i++) {
                    if (i >= k) s += c
                    c = c * (n - i) / (i + 1)
                }
                return s / 2 ^ n
            }
            index(excluded, " " $1 " ") { next }
            $2 == "parent" { p[np++] = $col; pv[$1] = $col }
            $2 == "change" { c[nc++] = $col; cv[$1] = $col }
            END {
                for (k in pv) {
                    r[nr++] = pv[k] != 0 ? cv[k] / pv[k] : 1
                    if (cv[k] == pv[k]) tied++
                    else if (higher ? cv[k] > pv[k] : cv[k] < pv[k]) wins++
                    else losses++
                }
                sorted(p, np); sorted(c, nc); sorted(r, nr)
                pm = quantile(p, np, 0.5); cm = quantile(c, nc, 0.5); rm = quantile(r, nr, 0.5)
                iqr = quantile(p, np, 0.75) - quantile(p, np, 0.25)
                shift = pm * (rm - 1); if (shift < 0) shift = -shift
                verdict = "same"
                if (shift > iqr && tail(wins, wins + losses) <= 0.025) verdict = "better"
                if (shift > iqr && tail(losses, wins + losses) <= 0.025) verdict = "worse"
                printf "  %-12s parent %12.4f [%.4f, %.4f]  change %12.4f [%.4f, %.4f]  x%.3f  per-pair x%.3f  sign %d/%d/%d  %s\n",
                    name, pm, quantile(p, np, 0.25), quantile(p, np, 0.75),
                    cm, quantile(c, nc, 0.25), quantile(c, nc, 0.75),
                    (pm != 0 ? cm / pm : 0), rm, wins, losses, tied, verdict
            }' "$rows"
    done
done
