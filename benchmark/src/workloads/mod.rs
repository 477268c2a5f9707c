//! The five workloads and what they share: the closed-loop op log, the
//! pass result, and the registry snapshot read at pass boundaries.
//!
//! Run shape (all workloads): N simulated client tasks each issue their
//! next op when the previous one returns. Scripts are pre-drawn from the
//! seed and the pass index before the measured window opens; the store
//! receives only the generated ops, on default `ClientConfig`/`RdmaConfig`.

pub mod elastic;
pub mod kv;
pub mod region;

use std::borrow::Cow;
use std::collections::BTreeSet;

use sim::Metrics;

use crate::host::HostCost;
use crate::spans::Span;

/// An op that still errors after this many attempts is abandoned, which
/// fails the run.
pub const MAX_ATTEMPTS: u32 = 200;

/// One completed op on both clocks. Host stamps are taken only in a
/// traced pass (0 otherwise).
#[derive(Clone, Copy, Debug)]
pub struct OpRec {
    /// Index into the workload's [`Workload::kinds`].
    pub kind: u8,
    /// Payload bytes the op moved.
    pub bytes: u32,
    pub virt_start_ns: u64,
    pub virt_end_ns: u64,
    pub host_start_ns: u64,
    pub host_end_ns: u64,
}

/// What one simulated client did in a pass.
#[derive(Debug, Default)]
pub struct ClientLog {
    pub recs: Vec<OpRec>,
    /// Calls into the store, retries included.
    pub attempts: u64,
    /// Attempts that returned an error (and were retried).
    pub errors: u64,
    /// Gets that returned intact bytes of a put older than the client's
    /// last acknowledged one (`elastic_chaos` only; fatal elsewhere).
    pub stale_reads: u64,
}

/// Declares [`Registry`] once: the typed fields plus the name ↔ field
/// mapping the pass record needs to cross the process boundary.
macro_rules! registry {
    ($($(#[$doc:meta])* $field:ident),* $(,)?) => {
        /// Counts and splits read by name from the always-on metrics
        /// registry after a pass (it is reset when the pass opens). `None`
        /// means the program emitted nothing under that name in the pass —
        /// the layer did no such work, or a later change renamed the
        /// counter — and is reported as `null`, never as an error and never
        /// as a 0 that could be mistaken for a count.
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct Registry { $($(#[$doc])* pub $field: Option<u64>),* }

        impl Registry {
            /// The fields the program emitted, by name.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                [$((stringify!($field), self.$field)),*].into_iter().filter_map(|(n, v)| Some((n, v?))).collect()
            }

            /// Sets the field called `name`; false if there is none.
            pub fn set(&mut self, name: &str, value: u64) -> bool {
                match name {
                    $(stringify!($field) => self.$field = Some(value),)*
                    _ => return false,
                }
                true
            }
        }
    };
}

registry! {
    doorbells,
    /// One-sided work requests completed (READ, WRITE, CAS, FAA).
    wrs,
    wr_read_p50_ns,
    wr_write_p50_ns,
    wr_cas_p50_ns,
    wire_bytes,
    msgs,
    /// Busiest link direction, in busy nanoseconds.
    link_busy_ns_max,
    dropped_msgs,
    hint_hits,
    hint_misses,
    hint_stale,
    hint_evictions,
    lock_breaks,
    inflight_max,
    crc_verify_failures,
    /// Client control RPCs (alloc, grow, lookup, free, stat).
    ctrl_rpcs,
    redials,
    io_timeouts,
    desc_refreshes,
    repair_extents,
    drain_bytes,
    rebalance_bytes,
}

/// The readings that exist, folded with `f`; `None` if none exists.
fn reduce(readings: impl Iterator<Item = Option<u64>>, f: fn(u64, u64) -> u64) -> Option<u64> {
    readings.flatten().reduce(f)
}

impl Registry {
    /// Reads the registry of a cluster with fabric nodes `0..nodes`.
    pub fn read(m: &Metrics, nodes: u32) -> Registry {
        let counters: BTreeSet<String> = m.counter_names().into_iter().collect();
        let counter = |name: &str| counters.contains(name).then(|| m.counter(name));
        let samples = |name: &str| m.histogram(name).map(|h| h.len() as u64);
        let p50 = |name: &str| m.histogram(name).map(|h| h.p50());
        let sum = |names: &[String]| reduce(names.iter().map(|n| counter(n)), |a, b| a + b);
        let named = |prefix: &str, parts: &[&str]| parts.iter().map(|p| format!("{prefix}{p}")).collect::<Vec<_>>();
        let per_link = |what: &str| (0..nodes).map(|n| format!("fabric.link{n}.{what}")).collect::<Vec<_>>();
        let wr_kinds = named("rdma.wr_latency.", &["read", "write", "comp_swap", "fetch_add"]);
        let ctrl_kinds = named("rstore.ctrl_latency.", &["alloc", "grow", "lookup", "free", "stat"]);
        let busy = [per_link("tx_busy_ns"), per_link("rx_busy_ns")].concat();
        Registry {
            doorbells: counter("rdma.doorbells"),
            wrs: reduce(wr_kinds.iter().map(|n| samples(n)), |a, b| a + b),
            wr_read_p50_ns: p50("rdma.wr_latency.read"),
            wr_write_p50_ns: p50("rdma.wr_latency.write"),
            wr_cas_p50_ns: p50("rdma.wr_latency.comp_swap"),
            wire_bytes: counter("fabric.tx_bytes"),
            msgs: sum(&per_link("tx_msgs")),
            link_busy_ns_max: reduce(busy.iter().map(|n| counter(n)), u64::max),
            dropped_msgs: sum(&named("fabric.dropped.", &["dst_down", "endpoint_down", "injected", "no_inbox"])),
            hint_hits: counter("kv.index.hit"),
            hint_misses: counter("kv.index.miss"),
            hint_stale: counter("kv.index.stale"),
            hint_evictions: counter("kv.index.evict"),
            lock_breaks: counter("kv.lock.break"),
            inflight_max: counter("rstore.pipeline.inflight_max"),
            crc_verify_failures: counter("integrity.read_mismatch"),
            ctrl_rpcs: reduce(ctrl_kinds.iter().map(|n| samples(n)), |a, b| a + b),
            redials: counter("rstore.redial.attempts"),
            io_timeouts: counter("rstore.io_timeout"),
            desc_refreshes: counter("rstore.desc.refresh"),
            repair_extents: counter("rstore.repair.extents"),
            drain_bytes: counter("drain.bytes"),
            rebalance_bytes: counter("rebalance.bytes"),
        }
    }
}

/// End-state facts only `elastic_chaos` produces.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Chaos {
    /// Virtual ns from the crash instant until `lookup` reports Healthy.
    pub recover_ns: u64,
    /// Bytes the drained node hosted at the drain instant.
    pub drain_hosted_bytes: u64,
}

/// One pass: the traffic, what it cost the host, and the registry after it.
#[derive(Debug, Default)]
pub struct Pass {
    pub logs: Vec<ClientLog>,
    /// Virtual span of the traffic window.
    pub virt_start_ns: u64,
    pub virt_end_ns: u64,
    pub host: HostCost,
    pub registry: Registry,
    pub live_tasks_end: u64,
    pub chaos: Option<Chaos>,
}

impl Pass {
    /// The op records as closed spans under the pass span `parent`.
    pub fn op_spans<'a>(&'a self, parent: u32, kinds: &'static [&'static str]) -> impl Iterator<Item = Span> + 'a {
        self.logs.iter().enumerate().flat_map(move |(client, log)| {
            log.recs.iter().map(move |r| Span {
                parent,
                kind: "op",
                label: Cow::Borrowed(kinds[r.kind as usize]),
                client: client as u32,
                bytes: r.bytes as u64,
                host_start_ns: r.host_start_ns,
                host_end_ns: r.host_end_ns,
                virt_start_ns: r.virt_start_ns,
                virt_end_ns: r.virt_end_ns,
            })
        })
    }
}

/// A benchmark workload. Every measured pass runs in a process of its own
/// (see `main.rs`), so `setup` and `measure` are each called once.
pub trait Workload {
    /// Names of the op kinds [`OpRec::kind`] indexes.
    fn kinds(&self) -> &'static [&'static str];

    /// Virtual think time between a client's ops.
    fn think_ns(&self) -> u64 {
        0
    }

    /// Boots a cluster, loads the data, opens the handles and warms up
    /// (on script [`WARMUP`], never measured).
    fn setup(&mut self) -> Result<(), String>;

    /// Runs measured pass `pass` (1-based) on the scripts drawn from the
    /// seed and the pass index, and checks every byte it reads. The passes
    /// of a run are different samples of one workload: their ops are pooled.
    fn measure(&mut self, pass: u32, traced: bool) -> Result<Pass, String>;
}

/// Script index of the warm-up; measured pass N runs script N.
pub const WARMUP: u32 = 0;

/// Whether the oracle self-test corrupts the expectation of this check: with
/// `--self-test`, the first checked op of client 0 at or after op 100 of a
/// measured pass sees one flipped bit in what it expects, so a working
/// oracle must fail the run there.
pub fn self_test_hits(self_test: bool, script: u32, client: usize, op: usize) -> bool {
    self_test && script != WARMUP && client == 0 && op >= 100
}

/// Mixes the run seed with a script and a stream index (splitmix64
/// finalizer), so no two scripts share a generator state.
pub fn mix_seed(seed: u64, script: u32, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add((script as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the named workload.
pub fn by_name(name: &str, seed: u64, self_test: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "kv_read" => Box::new(kv::Kv::new(kv::READ, seed, self_test)),
        "kv_update" => Box::new(kv::Kv::new(kv::UPDATE, seed, self_test)),
        "region_stream" => Box::new(region::RegionIo::new(region::STREAM, seed, self_test)),
        "region_ck" => Box::new(region::RegionIo::new(region::CHECKSUMMED, seed, self_test)),
        "elastic_chaos" => Box::new(elastic::Elastic::new(seed, self_test)),
        _ => return None,
    })
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 5] = ["kv_read", "kv_update", "region_stream", "region_ck", "elastic_chaos"];
