#!/usr/bin/env bash
# Counts the library's non-test lines, the line metric ROADMAP.md and
# CHANGES.md cite: every line above the first `#[cfg(test)]` of each `.rs`
# file under crates/*/src (crates/compat excluded: it stands in for
# published crates) and of src/*.rs. Prints one row per crate, then the
# total.
#
#   tools/loc.sh
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

{
    find crates -path crates/compat -prune -o -path 'crates/*/src/*' -name '*.rs' -print
    ls src/*.rs
} | LC_ALL=C sort | xargs awk '
    FNR == 1 {
        split(FILENAME, part, "/")
        crate = part[1] == "crates" ? part[2] : "rmodp (src)"
        if (!(crate in lines)) order[++crates] = crate
        lines[crate] += 0
        above = 1
    }
    /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { above = 0 }
    above { lines[crate]++; total++ }
    END {
        for (i = 1; i <= crates; i++) printf "%-14s %7d\n", order[i], lines[order[i]]
        printf "%-14s %7d\n", "total", total
    }
'
