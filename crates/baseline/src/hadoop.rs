//! An analytic cost model of Hadoop TeraSort (circa 2014), the baseline for
//! the paper's 256 GB sort comparison.
//!
//! Hadoop's sort is structurally handicapped against RStore's: every byte
//! passes the disk several times (HDFS read, map spill, spill re-read,
//! reduce merge, triple-replicated output), the shuffle runs over TCP on
//! 10 GbE, and the JVM/MapReduce framework adds per-byte CPU overhead. The
//! model charges each phase at device throughput and takes the per-node
//! maximum (TeraSort is balanced by construction).

use std::time::Duration;

/// Aggregate disk bandwidth per node, bytes/s: 6 spindles x 150 MB/s.
const DISK_BPS: u64 = 900_000_000;
/// Network bandwidth per node, bytes/s: a 10 GbE NIC.
const NET_BPS: u64 = 1_250_000_000;
/// Framework + (de)serialization CPU throughput per node, bytes/s.
const CPU_BPS: u64 = 1_500_000_000;
/// In-memory sort/merge throughput per node, bytes/s.
const SORT_BPS: u64 = 2_500_000_000;
/// HDFS replication factor for the output.
const REPLICATION: u32 = 3;
/// Fixed job start-up cost (JVM launch, scheduling).
const STARTUP: Duration = Duration::from_secs(8);

/// Phase breakdown of a modeled TeraSort run.
#[derive(Clone, Copy, Debug)]
pub struct TeraSortEstimate {
    /// Job start-up.
    pub startup: Duration,
    /// Map: HDFS read + partition + spill write.
    pub map: Duration,
    /// Shuffle: spill re-read + network transfer.
    pub shuffle: Duration,
    /// Reduce: merge passes + in-memory sort.
    pub reduce: Duration,
    /// Output: replicated HDFS write (disk on three nodes + network for the
    /// remote copies).
    pub output: Duration,
}

impl TeraSortEstimate {
    /// End-to-end job time.
    pub fn total(&self) -> Duration {
        self.startup + self.map + self.shuffle + self.reduce + self.output
    }
}

fn t(bytes: f64, bps: u64) -> Duration {
    Duration::from_secs_f64(bytes / bps as f64)
}

/// Estimates a TeraSort of `total_bytes` on a cluster of `nodes` workers.
pub fn terasort_time(nodes: u32, total_bytes: u64) -> TeraSortEstimate {
    let per_node = total_bytes as f64 / nodes as f64;

    // Map: read input from HDFS (local disk), run it through the framework,
    // write the partitioned spill back to disk.
    let map = t(per_node, DISK_BPS) + t(per_node, CPU_BPS) + t(per_node, DISK_BPS);

    // Shuffle: re-read the spill, move (nodes-1)/nodes of it across the
    // network (disk and network overlap poorly in stock Hadoop; charge the
    // max plus the non-overlapped remainder ~ sum of halves).
    let remote_frac = (nodes.saturating_sub(1)) as f64 / nodes as f64;
    let shuffle_disk = t(per_node, DISK_BPS);
    let shuffle_net = t(per_node * remote_frac, NET_BPS);
    let shuffle = shuffle_disk.max(shuffle_net) + shuffle_disk.min(shuffle_net) / 2;

    // Reduce: merge pass over disk plus the in-memory sort.
    let reduce = t(per_node, DISK_BPS) + t(per_node, SORT_BPS);

    // Output: each node writes its partition `REPLICATION` times
    // cluster-wide (disk), with (REPLICATION - 1) copies crossing the network.
    let output_disk = t(per_node * REPLICATION as f64, DISK_BPS);
    let output_net = t(per_node * (REPLICATION - 1) as f64, NET_BPS);
    let output = output_disk.max(output_net);

    TeraSortEstimate {
        startup: STARTUP,
        map,
        shuffle,
        reduce,
        output,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_lands_in_published_hadoop_range() {
        // Published TeraSort results of the era: ~0.5-2 GB/s/node end to
        // end for well-tuned clusters; stock clusters considerably slower.
        // The paper reports Hadoop at ~8x RStore's 31.7 s for 256 GB, i.e.
        // ~250 s on 12 machines.
        let est = terasort_time(12, 256 << 30);
        let secs = est.total().as_secs_f64();
        assert!(
            (180.0..350.0).contains(&secs),
            "256 GB on 12 nodes should take ~250 s, got {secs:.1}"
        );
    }

    #[test]
    fn scales_roughly_linearly_in_data() {
        let t1 = terasort_time(12, 64 << 30).total().as_secs_f64();
        let t4 = terasort_time(12, 256 << 30).total().as_secs_f64();
        let ratio = (t4 - STARTUP.as_secs_f64()) / (t1 - STARTUP.as_secs_f64());
        assert!((3.5..4.5).contains(&ratio), "ratio {ratio:.2}");
    }

    #[test]
    fn more_nodes_speed_it_up() {
        let small = terasort_time(6, 64 << 30);
        let big = terasort_time(24, 64 << 30);
        assert!(big.total() < small.total());
    }

    #[test]
    fn phases_are_all_positive() {
        let est = terasort_time(12, 1 << 30);
        assert!(est.map > Duration::ZERO);
        assert!(est.shuffle > Duration::ZERO);
        assert!(est.reduce > Duration::ZERO);
        assert!(est.output > Duration::ZERO);
        assert_eq!(
            est.total(),
            est.startup + est.map + est.shuffle + est.reduce + est.output
        );
    }
}
