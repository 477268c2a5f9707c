//! E17 — causal op forensics across a fault/repair episode.
//!
//! E13 shows *that* p99 spikes when a memory server dies; E17 shows *why*.
//! The same episode ([`crash_episode`]: replicated KV table, paced put/get
//! traffic, one server killed, master repair) runs with the simulator's
//! forensics registry enabled: every ledgered op carries a causal span tree
//! (post, doorbell, wire, server residency, CQE settle, retry, failover
//! rounds, lock wait/break, descriptor revalidation, migration seals), the
//! critical-path analyzer reduces each finished tree to a per-phase blame
//! vector, and the registry keeps the K slowest exemplars per op kind per
//! 50 ms window plus a flight-recorder ring of recent ops.
//!
//! The experiment's claim: the fault-era latency spike is attributable.
//! The slowest fault-era exemplar's blame vector must pin the spike on
//! stall phases (retry / lock wait / failover / seal), not on the wire or
//! posting path — asserted structurally here and grepped from the exported
//! `exemplars` block in CI.
//!
//! The run is fully virtual-time and seeded: two runs produce
//! byte-identical exemplars, blame vectors, and era notes.

use sim::{EraNote, Exemplar, FlightRec, ForensicsConfig, Level, Phase};

use crate::episode::{crash_episode, Totals, KILL_AT};
use crate::report::{export_fields, Entry, WithSpans};
use crate::table::Table;

const SEED: u64 = 0xE17;

/// Phases that represent the op *stalling* (waiting out a fault era) rather
/// than doing useful transfer work. The E17 claim is that fault-era tail
/// blame lands here.
pub const STALL_PHASES: [Phase; 5] = [
    Phase::Retry,
    Phase::Failover,
    Phase::LockWait,
    Phase::LockBreak,
    Phase::Seal,
];

/// Phases of the clean transfer path (posting, wire, server residency).
pub const TRANSFER_PHASES: [Phase; 3] = [Phase::Post, Phase::Wire, Phase::Server];

/// One E17 run: tail exemplars, flight ring, era notes, and episode
/// aggregates.
#[derive(Clone, Debug, PartialEq)]
pub struct ForensicsStats {
    /// All retained exemplars, in deterministic (kind, window, rank) order.
    pub exemplars: Vec<Exemplar>,
    /// Flight-recorder ring at end of run, oldest first.
    pub ring: Vec<FlightRec>,
    /// Cluster-era notes (faults, lease expiries, repairs, seals).
    pub era_notes: Vec<EraNote>,
    /// The traffic's op and error counts.
    pub totals: Totals,
    /// Virtual time of the server kill, ns.
    pub kill_ns: u64,
    /// Exemplar window width, ns.
    pub window_ns: u64,
    /// Whether the final lookup after the episode reported `Healthy`.
    pub healthy_after_repair: bool,
    /// Ops the forensics registry saw finish.
    pub finished: u64,
    /// Ops that finished with a structured error.
    pub failed: u64,
    /// Triage bundles produced (one per structured error).
    pub bundles: u64,
    /// The last triage bundle rendered, if any op failed.
    pub last_bundle: Option<String>,
}

impl ForensicsStats {
    /// Index of the exemplar window containing the kill instant.
    pub fn fault_window(&self) -> u64 {
        self.kill_ns / self.window_ns
    }

    /// Flight-ring records kept at end of run.
    pub fn ring_len(&self) -> usize {
        self.ring.len()
    }

    /// Era notes kept.
    pub fn era_notes_len(&self) -> usize {
        self.era_notes.len()
    }

    /// Exemplars retained.
    pub fn exemplars_len(&self) -> usize {
        self.exemplars.len()
    }

    /// The slowest fault-era exemplar with its full span tree.
    pub fn slowest_fault(&self) -> WithSpans<'_> {
        WithSpans(self.slowest_fault_exemplar())
    }

    /// The single slowest exemplar at or after the fault window — the op
    /// that *is* the episode's p99 spike. Deterministic: exemplar order is
    /// pinned, and elapsed ties break on (start, id).
    pub fn slowest_fault_exemplar(&self) -> &Exemplar {
        let fw = self.fault_window();
        self.exemplars
            .iter()
            .filter(|e| e.window >= fw)
            .max_by_key(|e| {
                (
                    e.rec.elapsed_ns,
                    std::cmp::Reverse((e.rec.start_ns, e.rec.id)),
                )
            })
            .expect("fault era must retain at least one exemplar")
    }

    /// Blame attributed to stall phases (retry/failover/lock/seal) in `rec`.
    pub fn stall_ns(rec: &FlightRec) -> u64 {
        STALL_PHASES.iter().map(|&p| rec.blame[p as usize]).sum()
    }

    /// Blame attributed to the clean transfer path in `rec`.
    pub fn transfer_ns(rec: &FlightRec) -> u64 {
        TRANSFER_PHASES.iter().map(|&p| rec.blame[p as usize]).sum()
    }

    /// The E17 claim: the slowest fault-era exemplar's critical path is
    /// dominated by stalling, not by the wire or posting path.
    pub fn fault_blame_pins_on_stall(&self) -> bool {
        let rec = &self.slowest_fault_exemplar().rec;
        Self::stall_ns(rec) > Self::transfer_ns(rec)
    }

    /// The phase with the largest blame share in `rec`.
    pub fn dominant_phase(rec: &FlightRec) -> Phase {
        Phase::ALL
            .iter()
            .copied()
            .max_by_key(|&p| (rec.blame[p as usize], std::cmp::Reverse(p as usize)))
            .expect("Phase::ALL is non-empty")
    }
}

export_fields!(ForensicsStats: window_ns, kill_ns, totals, healthy_after_repair, finished, failed,
    bundles, exemplars; fault_window(), ring_len(), era_notes_len(), exemplars_len(),
    slowest_fault());

/// E17's report entry from one measurement: the `exemplars` block, and the
/// asserts that the fault-era spike's blame pins on stall phases, that no op
/// read wrong data or was abandoned, that repair restored health and that
/// the recorder kept bundles and exemplars.
pub fn entry(s: &ForensicsStats) -> Entry {
    let mut e = Entry::new(tables(s));
    e.block("exemplars", s);
    let a = &mut e.asserts;
    a.holds("fault_blame_pins_on_stall", s.fault_blame_pins_on_stall());
    a.eq("value_errors", s.totals.value_errors, 0);
    a.eq("abandoned", s.totals.abandoned, 0);
    a.holds("healthy_after_repair", s.healthy_after_repair);
    a.positive("bundles", s.bundles);
    a.positive("exemplars", s.exemplars.len() as u64);
    e
}

/// Runs the forensics scenario once and collects exemplars, ring, and notes.
pub fn measure() -> ForensicsStats {
    let fx_cfg = ForensicsConfig::default();
    let ep = crash_episode(SEED, "fx", None, |cluster| {
        let recorder = cluster.sim.recorder();
        recorder.enable(Level::Spans(fx_cfg), 0);
        recorder
    });
    let recorder = &ep.recording;
    ForensicsStats {
        exemplars: recorder.exemplars(),
        ring: recorder.ring(),
        era_notes: recorder.era_notes(),
        totals: ep.totals,
        kill_ns: KILL_AT.as_nanos() as u64,
        window_ns: fx_cfg.window_ns,
        healthy_after_repair: ep.healthy_after_repair,
        finished: recorder.finished(),
        failed: recorder.failed(),
        bundles: recorder.bundles(),
        last_bundle: recorder.last_bundle(),
    }
}

fn fmt_us(ns: u64) -> String {
    format!("{}", ns / 1_000)
}

/// Renders E17's tables from one measurement.
pub fn tables(s: &ForensicsStats) -> Vec<Table> {
    let mut t = Table::new(
        "E17: causal blame for the tail of a server-crash episode (4 servers, 2 replicas)",
        &[
            "window",
            "kind",
            "op",
            "elapsed us",
            "dominant",
            "stall us",
            "transfer us",
            "error",
        ],
    );
    // Rank every retained exemplar worst-first; the fault window's rows
    // carry the spike and its blame.
    let mut ranked: Vec<&Exemplar> = s.exemplars.iter().collect();
    ranked.sort_by_key(|e| {
        (
            std::cmp::Reverse(e.rec.elapsed_ns),
            e.rec.start_ns,
            e.rec.id,
        )
    });
    for e in ranked.iter().take(10) {
        let mark = if e.window == s.fault_window() {
            " *kill*"
        } else {
            ""
        };
        t.row(vec![
            format!("{}{}", e.window, mark),
            e.rec.kind.to_string(),
            format!("#{}", e.rec.id),
            fmt_us(e.rec.elapsed_ns),
            ForensicsStats::dominant_phase(&e.rec).name().to_string(),
            fmt_us(ForensicsStats::stall_ns(&e.rec)),
            fmt_us(ForensicsStats::transfer_ns(&e.rec)),
            e.rec.error.unwrap_or("-").to_string(),
        ]);
    }
    let spike = s.slowest_fault_exemplar();
    t.note(format!(
        "slowest fault-era op: {} #{} at {} us, blame {} us stall vs {} us transfer ({}); \
         {} exemplars, {} ring records, {} era notes, {} bundles; \
         {} ops, {} transient errors, post-episode lookup {}",
        spike.rec.kind,
        spike.rec.id,
        spike.rec.elapsed_ns / 1_000,
        ForensicsStats::stall_ns(&spike.rec) / 1_000,
        ForensicsStats::transfer_ns(&spike.rec) / 1_000,
        if s.fault_blame_pins_on_stall() {
            "stall-dominated"
        } else {
            "transfer-dominated"
        },
        s.exemplars.len(),
        s.ring.len(),
        s.era_notes.len(),
        s.bundles,
        s.totals.ops,
        s.totals.io_errors,
        if s.healthy_after_repair {
            "Healthy"
        } else {
            "Degraded"
        },
    ));
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_era_blame_pins_on_stall_phases_and_is_deterministic() {
        let a = measure();
        assert_eq!(
            a.totals.value_errors, 0,
            "KV reads must never return wrong data"
        );
        assert_eq!(a.totals.abandoned, 0, "every op must eventually succeed");
        assert!(a.totals.io_errors > 0, "the kill must be client-visible");
        assert!(a.healthy_after_repair, "repair must restore health");
        assert!(a.finished > 0, "forensics must see ops finish");
        assert!(
            !a.exemplars.is_empty(),
            "tail exemplars must be retained across the episode"
        );

        // The tentpole claim: the op that is the fault-era spike carries a
        // blame vector pinning its latency on stall phases, not the wire.
        let spike = a.slowest_fault_exemplar();
        assert!(
            spike.rec.elapsed_ns > 1_000_000,
            "fault-era tail op must be in the milliseconds ({} ns)",
            spike.rec.elapsed_ns
        );
        assert!(
            a.fault_blame_pins_on_stall(),
            "fault-era blame must land on retry/lock-wait/failover/seal, \
             got blame {:?}",
            spike.rec.blame
        );
        // The blame vector is conservative: no phase exceeds the elapsed.
        for p in sim::Phase::ALL {
            assert!(
                spike.rec.blame[p as usize] <= spike.rec.elapsed_ns,
                "phase {} blame exceeds elapsed",
                p.name()
            );
        }

        // Transient errors are structured (Io) failures: each must have
        // produced a triage bundle, and the last one must be parseable and
        // self-contained (checked in depth below).
        assert!(a.failed > 0, "fault-era attempts must fail visibly");
        assert_eq!(a.bundles, a.failed, "one bundle per structured failure");
        assert!(a.last_bundle.is_some());

        // The cluster era is on record: the crash note and the lease expiry
        // land before the first repair note.
        assert!(
            a.era_notes
                .iter()
                .any(|n| n.cat == "fault" && n.name == "crash"),
            "the injected crash must be era-noted"
        );
        assert!(
            a.era_notes
                .iter()
                .any(|n| n.cat == "lease" && n.name == "server_expired"),
            "the lease expiry must be era-noted"
        );
        assert!(
            a.era_notes
                .iter()
                .any(|n| n.cat == "repair" && n.name == "extents_repaired"),
            "the repair must be era-noted"
        );

        // The last triage bundle parses back and is self-contained: the
        // failing op's blame, structured error and span tree, the ring, the
        // era notes, and a gauge snapshot.
        let bundle = a
            .last_bundle
            .as_deref()
            .expect("fault era must produce a bundle");
        let doc = crate::json::parse(bundle).expect("bundle must be valid JSON");
        let crate::json::Json::Obj(m) = &doc else {
            panic!("bundle must be an object")
        };
        assert_eq!(
            m.get("schema"),
            Some(&crate::json::Json::str("rstore-triage-v1"))
        );
        let Some(crate::json::Json::Obj(op)) = m.get("op") else {
            panic!("bundle must embed the failing op")
        };
        assert!(op.contains_key("blame"), "op must carry its blame");
        assert!(
            matches!(op.get("error"), Some(crate::json::Json::Str(_))),
            "the failing op must name its structured error"
        );
        let Some(crate::json::Json::Arr(spans)) = m.get("spans") else {
            panic!("bundle must embed the failing op's span tree")
        };
        assert!(!spans.is_empty(), "a fault-era op records spans");
        let Some(crate::json::Json::Arr(ring)) = m.get("ring") else {
            panic!("bundle must embed the flight ring")
        };
        assert!(!ring.is_empty(), "the ring has prior ops by fault time");
        assert!(m.contains_key("era_notes"), "bundle must carry era notes");
        let Some(crate::json::Json::Obj(gauges)) = m.get("gauges") else {
            panic!("bundle must embed a gauge snapshot")
        };
        assert!(!gauges.is_empty(), "gauges snapshot the metrics registry");

        // The report entry: every exemplar with its blame, the spike with
        // its span tree, every assert passing, byte-identical across
        // seeded runs.
        let json = entry(&a).json("e17").render();
        crate::json::validate(&json).expect("e17 report must be valid JSON");
        for field in [
            "\"exemplars\"",
            "\"name\": \"fault_blame_pins_on_stall\"",
            "\"slowest_fault\"",
            "\"blame_ns\"",
            "\"spans\"",
            "\"value_errors\": 0",
            "\"abandoned\": 0",
            "\"healthy_after_repair\": true",
        ] {
            assert!(json.contains(field), "e17 export must carry {field}");
        }
        assert!(
            !json.contains("\"pass\": false"),
            "an E17 assert failed:\n{json}"
        );
        let b = measure();
        assert_eq!(a, b, "same seed must reproduce identical forensics");
        assert_eq!(json, entry(&b).json("e17").render(), "the export too");
    }

    #[test]
    fn ring_keeps_recent_ops_and_exemplars_stay_ranked() {
        let s = measure();
        assert!(!s.ring.is_empty(), "the flight ring must retain ops");
        // Ring is ordered by finish time (ops finish out of id order when a
        // tail op straddles the fault era).
        for w in s.ring.windows(2) {
            assert!(
                w[0].start_ns + w[0].elapsed_ns <= w[1].start_ns + w[1].elapsed_ns,
                "ring must be ordered oldest-finished-first"
            );
        }
        // Exemplar rank 0 is the slowest of its (kind, window) bucket.
        for e in &s.exemplars {
            let bucket: Vec<&Exemplar> = s
                .exemplars
                .iter()
                .filter(|x| x.rec.kind == e.rec.kind && x.window == e.window)
                .collect();
            let max_elapsed = bucket
                .iter()
                .map(|x| x.rec.elapsed_ns)
                .max()
                .expect("bucket non-empty");
            let rank0 = bucket
                .iter()
                .find(|x| x.rank == 0)
                .expect("every bucket has a rank-0 exemplar");
            assert_eq!(
                rank0.rec.elapsed_ns, max_elapsed,
                "rank 0 must be the bucket's slowest"
            );
        }
    }
}
