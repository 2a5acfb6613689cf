#!/bin/sh
# Public functions without an outside caller: every `pub fn` name declared in
# a `crates/*/src/**/*.rs` file (before its first `#[cfg(test)]`) that appears
# as a word in no other `.rs` file under `crates/`, `src/`, `tests/`,
# `examples/` or `octobench/`. Prints one `file: name` row per finding and
# exits 1 if there is any; run from anywhere in the repo.
#
#   ./pub_audit.sh
cd "$(dirname "$0")" || exit 1
all=$(find crates src tests examples octobench -name '*.rs' -not -path '*/target/*' | sort)
found=$(
    find crates/*/src -name '*.rs' | sort | while read -r file; do
        awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { print }' "$file" |
            sed -nE 's/^[[:space:]]*pub (const )?fn ([A-Za-z_][A-Za-z0-9_]*).*/\2/p' |
            sort -u | while read -r name; do
                printf '%s\n' "$all" | grep -vxF "$file" | xargs grep -qw -- "$name" ||
                    echo "$file: $name"
            done
    done
)
[ -z "$found" ] && exit 0
printf '%s\n' "$found"
echo "$(printf '%s\n' "$found" | wc -l) pub fn name(s) with no caller outside their file" >&2
exit 1
