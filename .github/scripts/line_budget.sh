#!/usr/bin/env bash
# Prints the code size of the three data-path files ROADMAP item 2 tracks and
# of the master (one extent-move protocol, ROADMAP item 1b), and fails when
# one outgrows its ceiling. Counted: non-blank, non-comment lines before the
# file's `#[cfg(test)]` module.
set -euo pipefail
cd "$(dirname "$0")/../.."

total=0
status=0
check() { # <file> <ceiling>
    local n
    n=$(awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*(\/\/.*)?$/ { n++ } END { print n + 0 }' "$1")
    total=$((total + n))
    printf '%-28s %5d  (ceiling %d)\n' "$1" "$n" "$2"
    if [ "$n" -gt "$2" ]; then
        echo "FAIL: $1 is over its line budget" >&2
        status=1
    fi
}
check crates/rdma/src/device.rs 1241
check crates/core/src/region.rs 840
check crates/core/src/kv.rs 1250
printf '%-28s %5d  (ceiling %d)\n' total "$total" 3330
if [ "$total" -gt 3330 ]; then
    echo "FAIL: the three files together are over their line budget" >&2
    status=1
fi
# Outside the three-file total: a second mover beside `move_extent` would
# not fit under this.
check crates/core/src/master.rs 1274
exit $status
