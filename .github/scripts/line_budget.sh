#!/usr/bin/env bash
# Prints the code size of the three data-path files (one posting path, one
# region IO form — one round per direction, which serves both region kinds —
# and one KvTable skeleton with one slot unlock: DESIGN.md "Inline and
# scatter-gather WRs" and "KV cached index and online resize"), of the
# master (one extent-move protocol: DESIGN.md "Extent moves and leases"), of
# the control plane (one channel, one error format, one wire form per
# message, one typed reply per request: DESIGN.md "Control plane") and of
# the recording spine in `sim` (one recorder, one per-op handle, one ring:
# DESIGN.md "Recording spine") and of the fault-episode
# driver with its three experiments (one worker loop: EXPERIMENTS.md "Fault
# episodes") and of the device arena (one backing form: DESIGN.md "Arena
# backing") and of the sorter (one worker body for real and fluid runs),
# and fails when one outgrows its ceiling. Every data-path QP —
# a client's, the scrubber's, an extent copy's — comes from one dialer
# (DESIGN.md "One data-QP dialer"): a second QP cache beside it would not fit
# under the master, region and control-plane ceilings. The deterministic suite
# is one `figures` run checked by one exact `bench diff` (EXPERIMENTS.md
# "Baselines and the exact gate"): a tolerance path beside the exact
# comparison would not fit under the baseline-gate ceiling.
# Counted: non-blank, non-comment lines before the file's `#[cfg(test)]`
# `mod tests` pair (a `#[cfg(test)]` on some other item does not end the
# count).
set -euo pipefail
cd "$(dirname "$0")/../.."

total=0
status=0
count() { # <file>
    awk '/^mod tests/ && prev ~ /^#\[cfg\(test\)\]/ { n--; exit }
         { prev = $0 } !/^[[:space:]]*(\/\/.*)?$/ { n++ } END { print n + 0 }' "$1"
}
group() { # <label> <ceiling> <file>...
    local label=$1 ceiling=$2 n=0 f
    shift 2
    for f in "$@"; do
        n=$((n + $(count "$f")))
    done
    printf '%-28s %5d  (ceiling %d)\n' "$label" "$n" "$ceiling"
    if [ "$n" -gt "$ceiling" ]; then
        echo "FAIL: $label: these files together are over their line budget" >&2
        status=1
    fi
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
check crates/rdma/src/device.rs 1163
# A contended write chases inside the one mutation path, and a chase round's
# read-back is an option of the one CAS: a second lock path beside `mutate`,
# or a second CAS beside `cas_word_l`, would not fit under these.
check crates/core/src/region.rs 724
check crates/core/src/kv.rs 1222
printf '%-28s %5d  (ceiling %d)\n' total "$total" 3109
if [ "$total" -gt 3109 ]; then
    echo "FAIL: the three files together are over their line budget" >&2
    status=1
fi
# Outside the three-file total: a second mover beside `move_extent` would
# not fit under this.
check crates/core/src/master.rs 1165
# Likewise: a block is one `Vec`, reserved at `alloc` and as long as what was
# written; a chunk table beside it would not fit under this.
check crates/rdma/src/memory.rs 533
# The five files every control call passes through, as one total: a second
# channel or a second error format beside the one would not fit under this,
# nor would a second encoder or decoder beside a message's field list (one
# wire form per message), nor a second reply enum beside a request's `Reply`
# (one RPC form: DESIGN.md "Control plane").
group 'control plane (5)' 1326 crates/core/src/{client,server,rpc,proto,error}.rs
# The recording spine and the registry it folds into, as one total: a second
# per-op handle, recorder or ring beside the one would not fit under this.
group 'sim recording spine (5)' 1454 crates/sim/src/{trace,ledger,optrace,timeseries,metrics}.rs
# The paced verified-KV driver and the three experiments that run on it, as
# one total: a second copy of the worker loop would not fit under this.
group 'fault episodes (4)' 881 crates/bench/src/episode.rs \
    crates/bench/src/experiments/{e13_timeline,e15_elasticity,e17_forensics}.rs
# The sorter's worker and its planning math, as one total: real and fluid
# runs share one worker body, and the mode is consulted only at the five
# `SortMode` steps that touch a record's bytes (DESIGN.md, the 256 GB
# TeraSort substitution). A second phase structure for fluid runs would not
# fit under this.
check crates/rsort/src/distributed.rs 328
group 'rsort (2)' 400 crates/rsort/src/{distributed,plan}.rs
# The comparison, the self-check and the two binaries that run and gate the
# suite, as one total: a second comparison mode would not fit under this.
group 'baseline gate (4)' 371 crates/bench/src/{diff,check}.rs \
    crates/bench/src/bin/{bench,figures}.rs
exit $status
