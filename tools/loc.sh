#!/usr/bin/env bash
# Non-test / test line counts per crate and for the workspace.
#
# Method (the one PR 18 and ISSUE 19 sized against): every `.rs` file under
# `crates/`, `src/`, `tests/` and `examples/`; a file under a `tests/` or
# `benches/` directory is all test; in any other file the lines above the
# first `#[cfg(test)]` that opens a `mod` are non-test and the rest is
# test. An out-of-line `#[cfg(test)] mod x;` is followed to its file
# (`x.rs` or `x/mod.rs` beside a `lib.rs`/`main.rs`/`mod.rs`, else under
# the declaring file's own directory), which is then all test; the
# declaration's two lines are test and the declaring file reads on. All
# lines count (blank and comment lines included). Prints only — nothing to
# keep in step by hand.
set -euo pipefail
cd "$(dirname "$0")/.."

files=$(find crates src tests examples -name '*.rs' | sort)

# Files declared by an out-of-line `#[cfg(test)] mod x;`, one per line.
test_mods=$(printf '%s\n' $files | xargs awk '
FNR == 1 { pending = 0 }
{
    if (pending && match($0, /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+[[:space:]]*;/)) {
        name = $0
        sub(/^[[:space:]]*(pub(\([a-z]+\))? )?mod /, "", name)
        sub(/[[:space:]]*;.*$/, "", name)
        dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
        base = FILENAME; sub(/^.*\//, "", base)
        if (base != "lib.rs" && base != "main.rs" && base != "mod.rs") {
            sub(/\.rs$/, "", base); dir = dir "/" base
        }
        print dir "/" name ".rs"
        print dir "/" name "/mod.rs"
    }
    pending = ($0 ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/)
}')

printf '%s\n' $files | xargs awk -v test_mods="$test_mods" '
BEGIN { n_mods = split(test_mods, m, "\n"); for (i = 1; i <= n_mods; i++) declared[m[i]] = 1 }
function unit(path,    p) {
    if (split(path, p, "/") > 2 && p[1] == "crates") return "crates/" p[2]
    return p[1]
}
FNR == 1 {
    u = unit(FILENAME)
    if (!(u in non)) { order[++n] = u; non[u] = 0; test[u] = 0 }
    all_test = FILENAME ~ /(^|\/)(tests|benches)\// || (FILENAME in declared)
    in_test = 0; pending = 0
}
{
    if (!all_test && !in_test) {
        # `#[cfg(test)]` counts as test only when a `mod` follows it; an
        # out-of-line `mod x;` is test itself but leaves the rest as it is.
        if (pending && $0 ~ /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+[[:space:]]*;/) {
            test[u] += 2; non[u]--; pending = 0; next
        }
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
