#!/usr/bin/env bash
# Prints the code size of the three data-path files (one posting path with
# one WRITE form, one region IO form — one round per direction, which serves
# both region kinds — and one KvTable skeleton with one slot unlock:
# DESIGN.md "Scatter-gather WRs" and "KV cached index"), of the KV hint
# cache (one entry list and one index: DESIGN.md "What the index costs the
# host"), of
# the master (one extent-move protocol: DESIGN.md "Extent moves and leases"), of
# the stripe layout (a region's geometry is two numbers, fixed at alloc:
# DESIGN.md "RStore design"), of
# the control plane (one channel, one error format, one wire form per
# message, one typed reply per request: DESIGN.md "Control plane") and of
# the recording spine in `sim` (one recorder, one per-op handle, one ring:
# DESIGN.md "Recording spine") and of the fault-episode
# driver with its three experiments (one worker loop: EXPERIMENTS.md "Fault
# episodes") and of the device arena (one backing form: DESIGN.md "Arena
# backing") and of the sorter (one worker body for real and fluid runs)
# and of the graph framework (one superstep worker for every kernel) and of
# the message-passing baseline and the gang runner every multi-worker job
# steps through and of the timing model's calibration (one named constant
# per value no caller varies: DESIGN.md "Calibration constants") and of the
# bench report (one entry form per experiment, built by its own module, and
# one registry of ids: EXPERIMENTS.md "Baselines and the exact gate"), and
# fails when one outgrows its ceiling. Every data-path QP —
# a client's, the scrubber's, an extent copy's — comes from one dialer
# (DESIGN.md "One data-QP dialer"): a second QP cache beside it would not fit
# under the master, region and control-plane ceilings. Every posted WR and
# every pending connect completes into a cell of one recycled table,
# `sim::Rendezvous`: a second rendezvous type beside the table (a channel or
# a map of waiters per request) would not fit under the device, region and
# control-plane ceilings, which fell by what the table replaced. The
# deterministic suite is one `figures` run checked by one exact `bench diff`
# (EXPERIMENTS.md "Baselines and the exact gate"): a tolerance path beside
# the exact comparison would not fit under the baseline-gate ceiling.
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
# One WRITE form: a second WRITE variant beside the scatter-gather one would
# not fit under these.
check crates/rdma/src/device.rs 1128
# A contended write chases inside the one mutation path, and a chase round's
# read-back is an option of the one CAS: a second lock path beside `mutate`,
# or a second CAS beside `cas_word_l`, would not fit under these. A slot's
# version moves only when its key changes, so the version a key was seen at
# is the one proof a hinted CAS needs: a second validation of a hint beside
# it would not fit either. That version is trusted only when the primary
# served the READ that saw it (`Region::failovers`, read around the READ):
# region.rs +6 and kv.rs +28 for that rule. A writer's lock waits are paced
# by the one schedule on `LockWatch` (`pause`, by locked words seen): kv.rs
# +9 for it, and a second wait schedule beside it would not fit.
check crates/core/src/region.rs 678
check crates/core/src/kv.rs 898
printf '%-28s %5d  (ceiling %d)\n' total "$total" 2704
if [ "$total" -gt 2704 ]; then
    echo "FAIL: the three files together are over their line budget" >&2
    status=1
fi
# The KV hint cache, outside the three-file total (DESIGN.md "What the index
# costs the host"): one entry list and one open-addressed index, grown while
# the cache fills and then reused. A hint cache that allocates per insert,
# or a second index beside this one, would not fit.
check crates/core/src/hint.rs 178
# The bytes a region read lends, outside the three-file total (DESIGN.md
# "Arena backing"): one buffer that holds its staging block's backing and
# gives both back when it drops. A copy of the bytes beside it would not fit.
check crates/core/src/readbuf.rs 63
# Outside the three-file total: a second mover beside `move_extent` would
# not fit under this.
check crates/core/src/master.rs 1073
# A region's geometry is (size, stripe size), fixed at alloc: a per-stripe
# offset table beside it would not fit under this.
check crates/core/src/layout.rs 122
# Likewise: a block is one `Vec`, empty at `alloc`, as long as what was
# written and grown only to hold that; a chunk table beside it would not fit
# under this.
check crates/rdma/src/memory.rs 518
# The five files every control call passes through, as one total: a second
# channel or a second error format beside the one would not fit under this,
# nor would a second encoder or decoder beside a message's field list (one
# wire form per message), nor a second reply enum beside a request's `Reply`
# (one RPC form: DESIGN.md "Control plane"). A call allocates nothing:
# messages decode where they landed, a request is encoded into the one
# buffer its thread keeps, and a handler's future and its reply run in a
# call slot its service keeps (DESIGN.md "What a call costs the host"); a
# boxed future or a fresh message `Vec` per call, beside those kept ones,
# would not fit.
group 'control plane (5)' 1298 crates/core/src/{client,server,rpc,proto,error}.rs
# The recording spine and the registry it folds into, as one total: a second
# per-op handle, recorder or ring beside the one would not fit under this.
group 'sim recording spine (5)' 1452 crates/sim/src/{trace,ledger,optrace,timeseries,metrics}.rs
# The paced verified-KV driver and the three experiments that run on it, as
# one total: a second copy of the worker loop would not fit under this.
group 'fault episodes (4)' 878 crates/bench/src/episode.rs \
    crates/bench/src/experiments/{e13_timeline,e15_elasticity,e17_forensics}.rs
# The sorter's worker and its planning math, as one total: real and fluid
# runs share one worker body, and the mode is consulted only at the five
# `SortMode` steps that touch a record's bytes (DESIGN.md, the 256 GB
# TeraSort substitution). A second phase structure for fluid runs would not
# fit under this, nor would a spawn-and-barrier loop beside the gang.
check crates/rsort/src/distributed.rs 294
group 'rsort (2)' 366 crates/rsort/src/{distributed,plan}.rs
# The comparison, the self-check and the two binaries that run and gate the
# suite, as one total: a second comparison mode would not fit under this.
group 'baseline gate (4)' 370 crates/bench/src/{diff,check}.rs \
    crates/bench/src/bin/{bench,figures}.rs
# Every experiment's report entry, as one total: each module builds its own
# entry from its one measurement, a stats struct's block is its field list
# (`export_fields!`) and `report::EXPERIMENTS` is the one list of ids. A
# second per-experiment export path beside the registry would not fit under
# this, and neither would a key restated by hand beside a field list.
group 'bench report (18)' 3808 crates/bench/src/report.rs crates/bench/src/experiments/*.rs
# The graph framework, as one total: PageRank, WCC and SSSP run one pull
# superstep body, and BFS shares its job setup and convergence vote
# (`rgraph::run`, DESIGN.md S5); the workers run as one gang, and the first
# to fail ends the job. A second superstep loop beside the one would not fit
# under this.
group 'rgraph (7)' 779 crates/rgraph/src/*.rs
# Every multi-worker job (rgraph, rsort, the message-passing baseline) runs
# its workers through the one gang in `sim::sync` (DESIGN.md S1): a second
# spawn-and-barrier loop beside the gang would not fit under these.
check crates/baseline/src/msg_graph.rs 180
check crates/sim/src/sync.rs 285
# The timing model's calibration, as one total: the fabric and NIC timing
# and the two analytic baselines' costs are named constants beside the code
# that reads them, and the config structs hold only what some caller sets
# to a second value. A calibration value returns to a config struct only
# together with a second caller that sets it, such as a sensitivity arm of
# the closed-form model or of the co-located topology (ROADMAP.md items 5
# and 6).
group 'model calibration (4)' 762 crates/fabric/src/lib.rs crates/rdma/src/config.rs \
    crates/baseline/src/{hadoop,twosided}.rs
exit $status
