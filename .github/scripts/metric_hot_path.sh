#!/usr/bin/env bash
# Fails when non-test code of the four layers builds a metric's name at the
# call that updates or reads it: a `format!` (or any other `String`
# construction) inside an argument of `.add(` / `.incr(` / `.record(` /
# `.record_value(` / `.counter(`. Names are resolved to `sim::Counter` /
# `sim::Hist` handles once, at construction; a per-update name is the
# allocation-per-metric-update this check keeps from coming back.
# Scanned: everything before a file's `#[cfg(test)]` module, comments
# stripped, calls followed across lines to their closing parenthesis.
set -euo pipefail
cd "$(dirname "$0")/../.."

status=0
for f in crates/{sim,fabric,rdma,core}/src/*.rs; do
    awk -v file="$f" '
        /^#\[cfg\(test\)\]/ { exit }
        {
            line = $0
            sub(/^[[:space:]]*\/\/.*$/, "", line)
            src = src line "\n"
        }
        END {
            bad = 0
            n = length(src)
            lineno = 1
            for (i = 1; i <= n; i++) {
                c = substr(src, i, 1)
                if (c == "\n") { lineno++; continue }
                if (c != ".") continue
                rest = substr(src, i + 1, 14)
                if (!match(rest, /^(add|incr|record|record_value|counter)\(/)) continue
                # Walk to the matching close paren.
                start = i + RLENGTH
                depth = 1
                for (j = start + 1; j <= n && depth > 0; j++) {
                    d = substr(src, j, 1)
                    if (d == "(") depth++
                    else if (d == ")") depth--
                }
                args = substr(src, start + 1, j - start - 2)
                if (args ~ /format!|String::|to_string\(|to_owned\(|push_str\(/) {
                    gsub(/[[:space:]]+/, " ", args)
                    printf "%s:%d: metric name built at the call: .%s%s)\n", file, lineno, substr(rest, 1, RLENGTH), args
                    bad = 1
                }
            }
            exit bad
        }
    ' "$f" || status=1
done
if [ "$status" -ne 0 ]; then
    echo "FAIL: resolve the name to a sim::Counter / sim::Hist handle at construction instead" >&2
fi
exit $status
