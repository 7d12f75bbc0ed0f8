#!/usr/bin/env bash
# Alternating same-session pairs of two benchmark builds.
#
#   tools/pairs.sh <parent-bin> <change-bin> <workload> <seed> <n>
#
# Each bin is a `benchmark` executable built with its own CARGO_TARGET_DIR
# (the shipped `node` must sit beside it, as `benchmark/run.sh` leaves it).
# Pair i runs both bins once on <workload> at <seed>; odd pairs run the
# parent first, even pairs the change first. Every run prints its four
# end-to-end metrics, the host's steal time over the run (from
# /proc/stat, where the kernel provides it) and, for the simulator, its
# reference-kernel sample and unscaled CPU per transaction. After the last pair, each
# side's median and quartiles (linear interpolation between order
# statistics) and the number of pairs the change won, per metric in the
# metric's better direction. A claim needs wins >= 9 of 10 and a median
# gap larger than the parent's IQR (benchmark/README.md, "Measuring a later
# change"). RUN_SECONDS (default 20) and TRACE (default 0) are passed on.
# Raw lines go to stdout; nothing is written under benchmark/.
set -euo pipefail

if [ "$#" -ne 5 ]; then
    echo "usage: $0 <parent-bin> <change-bin> <workload> <seed> <n>" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 seed=$4 n=$5
run_seconds=${RUN_SECONDS:-20}
trace=${TRACE:-0}
metrics="committed_tps cpu_us_per_txn peak_rss_mb setup_s"

steal_ticks() {
    awk '/^cpu / { print $9 + 0; exit }' /proc/stat 2>/dev/null || echo 0
}

# run <label> <bin>: one benchmark run; prints one `RUN` line.
run() {
    local label=$1 bin=$2 out s0 s1 line notes failed
    s0=$(steal_ticks)
    out=$("$bin" --workload "$workload" --seed "$seed" --seconds "$run_seconds" --trace "$trace" 2>"$stderr" | tail -n 1)
    s1=$(steal_ticks)
    # The simulator's run notes (on stderr) its reference-kernel sample and
    # the unscaled CPU figure; keep both beside the metrics when present.
    notes=$(sed -n 's/.*reference kernel \([0-9.]*\) ns\/access.*unscaled: \([0-9.]*\) us.*/host_ns=\1 unscaled_us=\2/p' "$stderr")
    line="RUN $label"
    for m in $metrics; do
        v=$(printf '%s\n' "$out" | grep -o "\"$m\": {\"value\": [-0-9.eE+]*" | awk '{ print $NF }')
        line="$line $m=${v:-nan}"
    done
    failed=$(printf '%s\n' "$out" | grep -o '"failed": [0-9]*' | awk '{ print $NF }')
    echo "$line failed=${failed:-nan} steal_ticks=$((s1 - s0))${notes:+ $notes}"
}

results=$(mktemp)
stderr=$(mktemp)
trap 'rm -f "$results" "$stderr"' EXIT
for i in $(seq 1 "$n"); do
    if [ $((i % 2)) -eq 1 ]; then
        run "pair=$i side=parent" "$parent" | tee -a "$results"
        run "pair=$i side=change" "$change" | tee -a "$results"
    else
        run "pair=$i side=change" "$change" | tee -a "$results"
        run "pair=$i side=parent" "$parent" | tee -a "$results"
    fi
done

echo "== $workload seed $seed, $n pairs (median [q1, q3]; wins = pairs the change did better)"
awk -v metrics="$metrics" '
function quant(arr, k, q,    pos, lo, hi) {
    pos = (k - 1) * q + 1; lo = int(pos); hi = (lo < k) ? lo + 1 : lo
    return arr[lo] + (pos - lo) * (arr[hi] - arr[lo])
}
function sorted(src, k, dst,    i, j, t) {
    for (i = 1; i <= k; i++) dst[i] = src[i]
    for (i = 2; i <= k; i++) for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) {
        t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t
    }
}
{
    split($2, p, "="); split($3, s, "="); pair = p[2]; side = s[2]
    for (f = 4; f <= NF; f++) { split($f, kv, "="); val[side, pair, kv[1]] = kv[2] }
    if (pair > npairs) npairs = pair
}
END {
    nm = split(metrics, names, " ")
    for (m = 1; m <= nm; m++) {
        name = names[m]; higher = (name == "committed_tps")
        wins = 0
        for (i = 1; i <= npairs; i++) {
            a[i] = val["parent", i, name] + 0; b[i] = val["change", i, name] + 0
            if ((higher && b[i] > a[i]) || (!higher && b[i] < a[i])) wins++
        }
        sorted(a, npairs, sa); sorted(b, npairs, sb)
        printf "%-15s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  wins %d/%d\n", name,
            quant(sa, npairs, 0.5), quant(sa, npairs, 0.25), quant(sa, npairs, 0.75),
            quant(sb, npairs, 0.5), quant(sb, npairs, 0.25), quant(sb, npairs, 0.75), wins, npairs
    }
}' "$results"
