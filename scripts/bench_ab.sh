#!/bin/sh
# A/B of in-process Go benchmarks between two revisions of this repository:
#
#   make bench-ab A=<rev> B=<rev> PKG=<package> BENCH=<regex> [PAIRS=8]
#
# e.g. A=HEAD~1 B=HEAD PKG=./internal/space BENCH='BenchmarkDistance/l2/128-refine'.
# Each rev is extracted with git archive into its own temporary directory
# (all removed on exit) and built into one test binary with go test -c. The
# two binaries then run PAIRS times each, alternating and flipping the order
# every pair (A B, B A, A B, ...), so drift on a shared machine falls on both
# sides alike. Prints every run's ns/op and custom metrics as the benchmark
# reports them, then per row and unit the median [q1-q3] of each side, B's
# change of median, and in how many pairs B read lower than A.
set -eu

: "${A:?A=<rev> required}" "${B:?B=<rev> required}"
: "${PKG:?PKG=<package> required}" "${BENCH:?BENCH=<regex> required}"
PAIRS=${PAIRS:-8}
GO=${GO:-go}
ROOT=$(git rev-parse --show-toplevel)
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT INT TERM

for side in A B; do
    eval rev=\$$side
    mkdir "$TMP/$side"
    git -C "$ROOT" archive "$rev" | tar -x -C "$TMP/$side"
    echo "$side = $rev ($(git -C "$ROOT" rev-parse --short "$rev"))"
    (cd "$TMP/$side" && "$GO" test -c -o "$TMP/$side.test" "$PKG")
done

# One line per run and metric: side, pair, row, unit, value.
p=1
while [ "$p" -le "$PAIRS" ]; do
    order="A B"
    [ $((p % 2)) -eq 0 ] && order="B A"
    for side in $order; do
        (cd "$TMP/$side/$PKG" && "$TMP/$side.test" -test.run '^$' -test.bench "$BENCH") >"$TMP/out"
        grep '^Benchmark' "$TMP/out" | sed "s/^/pair $p $side: /"
        awk -v side="$side" -v pair="$p" '/^Benchmark/ {
            for (i = 3; i < NF; i += 2) printf "%s %d %s %s %s\n", side, pair, $1, $(i + 1), $i
        }' "$TMP/out" >>"$TMP/runs"
    done
    p=$((p + 1))
done
[ -s "$TMP/runs" ] || { echo "bench-ab: no benchmark matched $BENCH in $PKG" >&2; exit 1; }

echo
awk -v pairs="$PAIRS" '
function sortn(v, n,    i, j, x) {
    for (i = 2; i <= n; i++) {
        x = v[i]
        for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
        v[j + 1] = x
    }
}
# q-th quantile of the sorted v[1..n], interpolating between neighbours.
function quant(v, n, q,    h, lo) {
    h = 1 + (n - 1) * q
    lo = int(h)
    return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
}
function num(x) {
    return x >= 100 || x <= -100 ? sprintf("%.0f", x) : sprintf("%.3g", x)
}
function summary(side, key,    v, n, p) {
    n = 0
    for (p = 1; p <= pairs; p++) if ((side, key, p) in val) v[++n] = val[side, key, p]
    sortn(v, n)
    med[side] = quant(v, n, 0.5)
    return num(med[side]) " [" num(quant(v, n, 0.25)) "-" num(quant(v, n, 0.75)) "]"
}
{
    key = $3 SUBSEP $4
    if (!(key in seen)) { seen[key] = 1; keys[++nk] = key }
    val[$1, key, $2] = $5
}
END {
    printf "%-48s %-10s %-26s %-26s %8s  %s\n", "row", "unit", "A median [q1-q3]", "B median [q1-q3]", "B vs A", "B lower"
    for (k = 1; k <= nk; k++) {
        key = keys[k]
        split(key, part, SUBSEP)
        a = summary("A", key)
        b = summary("B", key)
        lower = 0
        both = 0
        for (p = 1; p <= pairs; p++)
            if ((("A", key, p) in val) && (("B", key, p) in val)) {
                both++
                if (val["B", key, p] + 0 < val["A", key, p] + 0) lower++
            }
        delta = med["A"] != 0 ? sprintf("%+.1f%%", 100 * (med["B"] - med["A"]) / med["A"]) : "-"
        printf "%-48s %-10s %-26s %-26s %8s  %d/%d\n", part[1], part[2], a, b, delta, lower, both
    }
}' "$TMP/runs"
