#!/usr/bin/env bash
# Fails when non-test code of the data path schedules a boxed closure: a
# `.schedule(` / `.schedule_at(` call in crates/fabric/src/lib.rs,
# crates/rdma/src/device.rs, crates/core/src/region.rs or
# crates/core/src/client.rs (the data-QP dialer's IO backstop). Those layers
# schedule typed events on a `sim::EventSink` (`Sim::schedule_event`), which
# allocates nothing and hands back the `TimerId` their timeouts are cancelled
# with; a closure per event is the allocation per message, per chunk and per
# WR this check keeps from coming back. tests/alloc_discipline.rs pins the
# same line by count.
# Scanned: everything before a file's `#[cfg(test)]` module, comment lines
# stripped.
set -euo pipefail
cd "$(dirname "$0")/../.."

status=0
for f in crates/fabric/src/lib.rs crates/rdma/src/device.rs crates/core/src/{region,client}.rs; do
    awk -v file="$f" '
        /^#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        /\.schedule(_at)?\(/ {
            printf "%s:%d: boxed closure scheduled on the data path: %s\n", file, NR, $0
            bad = 1
        }
        END { exit bad }
    ' "$f" || status=1
done
if [ "$status" -ne 0 ]; then
    echo "FAIL: schedule a typed event on an EventSink (Sim::schedule_event) instead" >&2
fi
exit $status
