#!/usr/bin/env bash
# Prints the code size of the three data-path files ROADMAP item 2 tracks, of
# the master (one extent-move protocol, ROADMAP item 1b) and of the recording
# spine in `sim` (one recorder, one per-op handle, one ring: ROADMAP item 4),
# and fails when one outgrows its ceiling. Counted: non-blank, non-comment
# lines before the file's `#[cfg(test)]` module.
set -euo pipefail
cd "$(dirname "$0")/../.."

total=0
status=0
count() { # <file>
    awk '/^#\[cfg\(test\)\]/ { exit } !/^[[:space:]]*(\/\/.*)?$/ { n++ } END { print n + 0 }' "$1"
}
check() { # <file> <ceiling>
    local n
    n=$(count "$1")
    total=$((total + n))
    printf '%-28s %5d  (ceiling %d)\n' "$1" "$n" "$2"
    if [ "$n" -gt "$2" ]; then
        echo "FAIL: $1 is over its line budget" >&2
        status=1
    fi
}
check crates/rdma/src/device.rs 1181
check crates/core/src/region.rs 804
check crates/core/src/kv.rs 1231
printf '%-28s %5d  (ceiling %d)\n' total "$total" 3216
if [ "$total" -gt 3216 ]; then
    echo "FAIL: the three files together are over their line budget" >&2
    status=1
fi
# Outside the three-file total: a second mover beside `move_extent` would
# not fit under this.
check crates/core/src/master.rs 1256
# The recording spine and the registry it folds into, as one total: a second
# per-op handle, recorder or ring beside the one would not fit under this.
spine=0
for f in crates/sim/src/{trace,ledger,optrace,timeseries,metrics}.rs; do
    spine=$((spine + $(count "$f")))
done
printf '%-28s %5d  (ceiling %d)\n' 'sim recording spine (5)' "$spine" 1454
if [ "$spine" -gt 1454 ]; then
    echo "FAIL: sim's recording files together are over their line budget" >&2
    status=1
fi
exit $status
