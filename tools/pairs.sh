#!/usr/bin/env bash
# Compares two commits on the wall-clock benchmark the way a change that
# claims (or disclaims) a gain has to report it: each commit is unpacked
# and built in its own directory, the two directories siblings with names
# of one length; every workload is then run as N pairs of the driver's
# command (BENCHMARK.json "command"), a process per run, alternating which
# side goes first; and the runs' result lines are rendered as one table of
# median (Q1-Q3) per side, the change of the median, the pairs the
# change won (a tie counts for neither side), and whether a gain holds:
# yes when the change won at least ceil(0.9 * pairs) pairs and its median
# differs from the parent's by more than the parent's Q3 - Q1.
#
# --layout adds an A/A control against code layout: the parent is built a
# second time in a sibling directory whose path has another length, and
# runs as a third side in every pair (the order rotates). Identical source
# then reads differently only by where the linker put it; the table's
# `layout` column is that parent-against-parent |change of the median|,
# and a gain holds only if it also exceeds that.
#
#   tools/pairs.sh <parent-rev> <change-rev> [--pairs N] [--seconds S]
#       [--seed N] [--trace 0|1] [--quick] [--workload W]... [--dir D]
#       [--layout]
#
# Defaults: 10 pairs, BENCHMARK.json's run_seconds, seed 4242, trace 0,
# every workload of BENCHMARK.json, D = target/pairs under the repository.
# An uncommitted tree can be named by `$(git stash create)`. Every run's
# result line is kept as D/runs/<workload>.<pair>.<side>.json; the table
# goes to stdout, progress to stderr. Exits 1 if any run was not correct
# or failed an operation. Offline; nothing but bash, git, tar, awk, cargo.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
manifest="$root/BENCHMARK.json"

usage() {
    sed -n '2,29s/^# \{0,1\}//p' "${BASH_SOURCE[0]}" >&2
    exit 2
}

[ $# -ge 2 ] || usage
parent_rev="$1"
change_rev="$2"
shift 2

pairs=10
seconds="$(awk -F'[:,]' '/"run_seconds"/ { print $2 + 0 }' "$manifest")"
seed=4242
trace=0
quick=()
workloads=()
dir="$root/target/pairs"
sides=(parent change)
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --quick) quick=(--quick); shift ;;
        --workload) workloads+=("$2"); shift 2 ;;
        --dir) dir="$2"; shift 2 ;;
        --layout) sides=(parent change parent_layout); shift ;;
        *) usage ;;
    esac
done
if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(awk -F'"' '/"why"/ { print $4 }' "$manifest")
fi

# The driver's command, one argument per line.
mapfile -t command < <(awk -F'"' '/"command"/ { for (i = 4; i < NF; i += 2) print $i }' "$manifest")

mkdir -p "$dir"
dir="$(cd "$dir" && pwd)"
rm -rf "$dir/parent" "$dir/change" "$dir/parent_layout" "$dir/runs"
mkdir -p "$dir/runs"
for side in "${sides[@]}"; do
    rev="${side%_layout}_rev"
    echo "pairs: unpacking and building $side (${!rev})" >&2
    mkdir "$dir/$side"
    git -C "$root" archive "${!rev}" | tar -x -C "$dir/$side"
    (cd "$dir/$side" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

bad=0
run() { # side workload pair
    local out="$dir/runs/$2.$3.$1.json"
    (cd "$dir/$1" && "${command[@]}" --workload "$2" --seed "$seed" \
        --seconds "$seconds" --trace "$trace" "${quick[@]}" 2>/dev/null | tail -n 1) >"$out"
    if ! grep -q '"correct":true' "$out" || ! grep -q '"failed":0,' "$out"; then
        echo "pairs: $2 pair $3 $1: not correct, or operations failed" >&2
        bad=1
    fi
}

for workload in "${workloads[@]}"; do
    for pair in $(seq 1 "$pairs"); do
        echo "pairs: $workload $pair/$pairs" >&2
        # Each pair starts one side later than the last: with two sides
        # they alternate, with three every side takes every place.
        for i in "${!sides[@]}"; do
            run "${sides[(pair - 1 + i) % ${#sides[@]}]}" "$workload" "$pair"
        done
    done
done

echo "parent \`$parent_rev\`, change \`$change_rev\`: $pairs alternated pairs," \
    "\`--seed $seed --seconds $seconds --trace $trace ${quick[*]}${sides[2]:+ --layout}\`"
echo
echo "| workload | metric | parent median (Q1–Q3) | change median (Q1–Q3) | Δ median | pairs won | layout | holds |"
echo "|---|---|---|---|---|---|---|---|"
awk -v pairs="$pairs" -v runs="$dir/runs" -v workloads="${workloads[*]}" -v layout="${#sides[@]}" '
    # BENCHMARK.json: one metric a line, in the order the table keeps.
    /"better"/ {
        split($0, q, "\"")
        names[++metrics] = q[4]
        better[q[4]] = q[12]
    }
    function result(file,    line) {
        getline line < file
        close(file)
        return line
    }
    # The number behind `"name":{"value":` on a result line, or "" if the
    # run did not report that metric.
    function value(line, name,    key, at) {
        key = "\"" name "\":{\"value\":"
        at = index(line, key)
        return at ? substr(line, at + length(key)) + 0 : ""
    }
    function sort(v, n,    i, j, t) {
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
    }
    # Quantile p of sorted v[1..n], interpolating between neighbours.
    function quantile(v, n, p,    h, lo) {
        h = 1 + (n - 1) * p
        lo = int(h)
        return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    function abs(x) {
        return x < 0 ? -x : x
    }
    function shown(x) {
        return x >= 1000 ? sprintf("%.0f", x) : sprintf("%.4g", x)
    }
    function summary(v, n) {
        sort(v, n)
        return shown(quantile(v, n, 0.5)) " (" shown(quantile(v, n, 0.25)) "–" shown(quantile(v, n, 0.75)) ")"
    }
    END {
        count = split(workloads, workload, " ")
        for (w = 1; w <= count; w++) {
            for (pair = 1; pair <= pairs; pair++) {
                parent[pair] = result(runs "/" workload[w] "." pair ".parent.json")
                change[pair] = result(runs "/" workload[w] "." pair ".change.json")
                if (layout == 3)
                    twin[pair] = result(runs "/" workload[w] "." pair ".parent_layout.json")
            }
            for (m = 1; m <= metrics; m++) {
                name = names[m]
                if (value(parent[1], name) == "") continue
                won = 0
                for (pair = 1; pair <= pairs; pair++) {
                    a[pair] = value(parent[pair], name)
                    b[pair] = value(change[pair], name)
                    won += (better[name] == "higher" ? b[pair] > a[pair] : b[pair] < a[pair])
                }
                before = summary(a, pairs)
                after = summary(b, pairs)
                base = quantile(a, pairs, 0.5)
                moved = quantile(b, pairs, 0.5) - base
                delta = base ? sprintf("%+.1f %%", 100 * moved / base) : "–"
                # The claim rule: ceil(0.9 * pairs) pairs won, and the
                # medians further apart than the IQR of the parent runs
                # and, under --layout, than the parent from its twin.
                iqr = quantile(a, pairs, 0.75) - quantile(a, pairs, 0.25)
                spread = 0
                shift = "–"
                if (layout == 3) {
                    for (pair = 1; pair <= pairs; pair++)
                        c[pair] = value(twin[pair], name)
                    sort(c, pairs)
                    spread = abs(quantile(c, pairs, 0.5) - base)
                    shift = base ? sprintf("%.1f %%", 100 * spread / base) : "–"
                }
                holds = won >= int((9 * pairs + 9) / 10) && abs(moved) > iqr && abs(moved) > spread
                printf "| %s | %s | %s | %s | %s | %d/%d | %s | %s |\n", workload[w], name, before, after, delta, won, pairs, shift, holds ? "yes" : "no"
            }
        }
    }
' "$manifest"
exit "$bad"
