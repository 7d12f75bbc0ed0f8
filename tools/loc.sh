#!/usr/bin/env bash
# Non-test / test line counts per crate and for the workspace.
#
# Method (the one PR 18 and ISSUE 19 sized against): every `.rs` file under
# `crates/`, `src/`, `tests/` and `examples/`; a file under a `tests/` or
# `benches/` directory is all test; in any other file the lines above the
# first `#[cfg(test)]` that opens a `mod` are non-test and the rest is
# test. All lines count (blank and comment lines included). Prints only —
# nothing to keep in step by hand.
set -euo pipefail
cd "$(dirname "$0")/.."

find crates src tests examples -name '*.rs' | sort | xargs awk '
function unit(path,    p) {
    if (split(path, p, "/") > 2 && p[1] == "crates") return "crates/" p[2]
    return p[1]
}
FNR == 1 {
    u = unit(FILENAME)
    if (!(u in non)) { order[++n] = u; non[u] = 0; test[u] = 0 }
    all_test = FILENAME ~ /(^|\/)(tests|benches)\//
    in_test = 0; pending = 0
}
{
    if (!all_test && !in_test) {
        # `#[cfg(test)]` counts as test only when a `mod` follows it.
        if (pending && $0 ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod /) { in_test = 1; test[u]++; non[u]-- }
        pending = ($0 ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/)
    }
    if (all_test || in_test) test[u]++; else non[u]++
}
END {
    printf "%-22s %9s %9s\n", "unit", "non-test", "test"
    for (i = 1; i <= n; i++) {
        u = order[i]
        printf "%-22s %9d %9d\n", u, non[u], test[u]
        tn += non[u]; tt += test[u]
    }
    printf "%-22s %9d %9d\n", "workspace", tn, tt
}'
