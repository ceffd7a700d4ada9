#!/usr/bin/env bash
# Alternating A/B pairs of the host-time benchmark: a parent revision
# against this checkout.
#
#   scripts/ab_pairs.sh <parent-rev> <workload>... [--pairs N] [--seed S]
#
# Builds `benchmark/` (hostbench) twice, into two target directories:
# once from `git archive <parent-rev>`, once from this checkout (HEAD plus
# whatever is uncommitted; untracked files that are not ignored count).
# Then, per workload, runs N pairs (default 10) at `--seconds 10 --trace
# 0`, pair k on seed S+k (default S = 1), parent first in even pairs and
# the change first in odd ones, so a host that changes speed mid-run
# charges both sides alike.
#
# Prints every run, then per workload and end-to-end metric: the median
# and quartiles of each side, the ratio of the medians, how many pairs the
# change won (by the metric's direction in BENCHMARK.json), and whether
# the medians are further apart than the parent's interquartile distance.
# A pair whose two sides disagree on `sim_digest` or fail any op is
# flagged. Builds and logs go to a fresh directory under ${TMPDIR:-/tmp};
# nothing in the checkout is written.
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

work="$(mktemp -d "${TMPDIR:-/tmp}/ab_pairs.XXXXXX")"
echo "work directory: $work"
mkdir -p "$work/parent/src" "$work/change/src"
git archive "$parent_rev" | tar -x -C "$work/parent/src"
# A tracked file deleted in the checkout is left out, as a commit would.
git ls-files -z --cached --others --exclude-standard \
    | tar --null --no-recursion --ignore-failed-read -T - -cf - 2> /dev/null \
    | tar -x -C "$work/change/src"

for side in parent change; do
    echo "building hostbench ($side)"
    CARGO_TARGET_DIR="$work/$side/target" cargo build --release --offline --quiet \
        --manifest-path "$work/$side/src/benchmark/Cargo.toml"
done

# The five end-to-end metrics and whether higher is better.
metrics=(setup_s ops_per_s op_p50_ms op_p90_ms peak_rss_mb)
higher=(0 1 0 0 0)

run() { # side workload seed -> one line: metrics..., fail_ratio, sim_digest
    local side="$1" out="$work/$1/$2.$3.log"
    HOSTBENCH_DIR="$work/$side/src/benchmark" "$work/$side/target/release/hostbench" \
        --workload "$2" --seed "$3" --seconds 10 --trace 0 > "$out" 2>&1 \
        || { echo "hostbench ($side $2 seed $3) failed; see $out" >&2; exit 1; }
    awk -v names="${metrics[*]} fail_ratio sim_digest" '
        BEGIN { n = split(names, want, " ") }
        $1 in got { next }
        { for (i = 1; i <= n; i++) if ($1 == want[i]) got[$1] = $2 }
        END { for (i = 1; i <= n; i++) printf "%s%s", got[want[i]], (i < n ? " " : "\n") }' "$out"
}

for w in "${workloads[@]}"; do
    echo
    echo "== $w: $pairs pairs, seeds $seed..$((seed + pairs - 1))"
    printf '%-5s %-6s %-7s' pair seed first
    printf ' %14s' "${metrics[@]}"
    printf '  %s\n' "sim_digest"
    : > "$work/$w.rows"
    for ((k = 0; k < pairs; k++)); do
        s=$((seed + k))
        if ((k % 2 == 0)); then order=(parent change); else order=(change parent); fi
        declare -A row=()
        for side in "${order[@]}"; do row[$side]="$(run "$side" "$w" "$s")"; done
        for side in parent change; do
            read -r -a v <<< "${row[$side]}"
            printf '%-5s %-6s %-7s' "$k" "$s" "${order[0]}"
            printf ' %14s' "${v[@]:0:5}"
            printf '  %s %s' "${v[6]}" "$side"
            [[ "${v[5]}" == "0.000000" ]] || printf '  FAILED OPS (fail_ratio %s)' "${v[5]}"
            printf '\n'
            echo "$k $side ${row[$side]}" >> "$work/$w.rows"
        done
        p=(${row[parent]}); c=(${row[change]})
        [[ "${p[6]}" == "${c[6]}" ]] || echo "      sim_digest differs: the model changed"
        unset row
    done
    echo "-- $w summary (median [q1, q3]; wins = pairs the change did better)"
    for i in "${!metrics[@]}"; do
        awk -v col=$((i + 3)) -v name="${metrics[$i]}" -v higher="${higher[$i]}" '
            function quantile(a, n, q,   h, lo) {
                h = (n - 1) * q; lo = int(h)
                return lo + 1 < n ? a[lo] + (h - lo) * (a[lo + 1] - a[lo]) : a[lo]
            }
            function sorted(a, n,   i, j, t) {
                for (i = 1; i < n; i++) for (j = i; j > 0 && a[j - 1] > a[j]; j--) {
                    t = a[j]; a[j] = a[j - 1]; a[j - 1] = t
                }
            }
            $2 == "parent" { p[np++] = $col; pv[$1] = $col }
            $2 == "change" { c[nc++] = $col; cv[$1] = $col }
            END {
                for (k in pv) if (higher ? cv[k] > pv[k] : cv[k] < pv[k]) wins++
                sorted(p, np); sorted(c, nc)
                pm = quantile(p, np, 0.5); cm = quantile(c, nc, 0.5)
                iqr = quantile(p, np, 0.75) - quantile(p, np, 0.25)
                d = cm - pm; if (d < 0) d = -d
                apart = d > iqr ? "apart > parent IQR" : "within parent IQR"
                printf "  %-12s parent %12.4f [%.4f, %.4f]  change %12.4f [%.4f, %.4f]  x%.3f  wins %d/%d  %s\n",
                    name, pm, quantile(p, np, 0.25), quantile(p, np, 0.75),
                    cm, quantile(c, nc, 0.25), quantile(c, nc, 0.75),
                    (pm != 0 ? cm / pm : 0), wins, np, apart
            }' "$work/$w.rows"
    done
done
