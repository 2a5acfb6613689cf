#!/bin/sh
# Non-test crate source lines: for every `crates/*/src/**/*.rs` file, the
# lines before its first `#[cfg(test)]` (the whole file when it has none).
# Prints one row per crate and a total; run from anywhere in the repo.
#
#   ./loc.sh
cd "$(dirname "$0")" || exit 1
for crate in crates/*/; do
    name=$(basename "$crate")
    find "$crate/src" -name '*.rs' | sort | xargs awk -v crate="$name" '
        FNR == 1 { counting = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting { n++ }
        END { printf "%-8s %6d\n", crate, n }'
done | awk '{ print; total += $2 } END { printf "%-8s %6d\n", "total", total }'
