#!/usr/bin/env bash
# Split each process's CPU between its event-loop thread and the rest.
#
#   tools/thread_cpu.sh <pid>...            # sample over 8 s
#   INTERVAL=4 tools/thread_cpu.sh <pid>...
#
# For every pid it reads utime+stime (clock ticks) of each thread in
# /proc/<pid>/task/*/stat at the start and the end of the interval, and
# prints the ticks spent by the main thread (tid == pid: a `node`'s event
# loop) and by all other threads (for a `node`: the transport's reader,
# sender and accept threads), plus the other threads' share. A thread that
# starts or exits inside the interval counts only the ticks it has at the
# end, or none. The last line sums every pid.
set -euo pipefail

if [ $# -eq 0 ]; then
    echo "usage: $0 <pid>..." >&2
    exit 2
fi
interval="${INTERVAL:-8}"

# Print "<tid> <utime+stime>" for every thread of pid $1.
ticks() {
    local stat rest tid f
    for stat in /proc/"$1"/task/*/stat; do
        rest=$(cat "$stat" 2>/dev/null) || continue
        # Field 2 (comm) may hold spaces; the fields after it start at ") ".
        rest=${rest##*) }
        read -r -a f <<<"$rest"
        tid=${stat%/stat}
        # utime and stime are fields 14 and 15, i.e. 11 and 12 after comm.
        echo "${tid##*/}" "$((f[11] + f[12]))"
    done
}

declare -A before
for pid in "$@"; do
    while read -r tid t; do
        before["$pid/$tid"]=$t
    done < <(ticks "$pid")
done
sleep "$interval"

printf '%-8s %10s %10s %8s\n' pid main other other_frac
sum_main=0
sum_other=0
for pid in "$@"; do
    main=0
    other=0
    while read -r tid t; do
        d=$((t - ${before["$pid/$tid"]:-0}))
        if [ "$tid" = "$pid" ]; then
            main=$((main + d))
        else
            other=$((other + d))
        fi
    done < <(ticks "$pid")
    sum_main=$((sum_main + main))
    sum_other=$((sum_other + other))
    printf '%-8s %10d %10d %8s\n' "$pid" "$main" "$other" \
        "$(awk -v m="$main" -v o="$other" 'BEGIN { printf "%.3f", (m + o) ? o / (m + o) : 0 }')"
done
printf '%-8s %10d %10d %8s\n' all "$sum_main" "$sum_other" \
    "$(awk -v m="$sum_main" -v o="$sum_other" 'BEGIN { printf "%.3f", (m + o) ? o / (m + o) : 0 }')"
echo "interval ${interval}s, $(getconf CLK_TCK) ticks/s"
