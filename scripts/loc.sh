#!/usr/bin/env bash
# Prints the non-test code lines of the Rust sources under crates/: blank
# lines, `//` comment lines and `#[cfg(test)]` items are not counted, nor is
# anything under a `tests/` or `benches/` directory. It prints only; it is
# not a gate.
#
#   scripts/loc.sh            # total
#   scripts/loc.sh --files    # per file, largest first, then the total
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    awk '
        FNR == 1 { skip = 0 }
        skip {
            line = $0
            opens = gsub(/\{/, "", line); closes = gsub(/\}/, "", line)
            depth += opens - closes
            if (opens) opened = 1
            if ((opened && depth <= 0) || (!opened && $0 ~ /;[[:space:]]*$/)) skip = 0
            next
        }
        /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; next }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n[FILENAME]++ }
        END { for (f in n) print n[f], f }
    ' "$@"
}

mapfile -t files < <(find crates -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' \
    -not -path '*/target/*' | sort)
if [[ "${1:-}" == "--files" ]]; then
    count "${files[@]}" | sort -rn
fi
count "${files[@]}" | awk '{ total += $1 } END { print total, "non-test code lines under crates/" }'
