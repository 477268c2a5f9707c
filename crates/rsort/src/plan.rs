//! Pure sort-planning math: splitter selection, record routing, and shuffle
//! offset computation.

use workload::{KEY_BYTES, RECORD_BYTES};

/// A sort key (first 10 bytes of a record).
pub type Key = [u8; KEY_BYTES];

/// Picks `k - 1` splitters from a sample of keys, partitioning the key space
/// into `k` roughly equal ranges. The sample is sorted in place.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn choose_splitters(sample: &mut Vec<Key>, k: usize) -> Vec<Key> {
    assert!(k > 0, "need at least one partition");
    sample.sort_unstable();
    (1..k)
        .map(|i| {
            if sample.is_empty() {
                [0u8; KEY_BYTES]
            } else {
                sample[(i * sample.len() / k).min(sample.len() - 1)]
            }
        })
        .collect()
}

/// The partition a key belongs to: `dest_of(key) = |{s in splitters : s <= key}|`.
pub fn dest_of(key: &[u8], splitters: &[Key]) -> usize {
    splitters.partition_point(|s| s.as_slice() <= key)
}

/// The expected counts row of an `m`-record slice of TeraGen's uniform keys:
/// `⌊m·F(s_{j+1})⌋ − ⌊m·F(s_j)⌋` records for partition `j`, where `F` is a
/// key's first 8 bytes read big-endian over 2^64, `F(s_0) = 0` and
/// `F(s_k) = 1`. The row sums to exactly `m`.
pub fn uniform_counts(splitters: &[Key], m: u64) -> Vec<u64> {
    let below = |j: usize| match splitters.get(j) {
        Some(s) => {
            let f = u64::from_be_bytes(s[..8].try_into().expect("8 bytes"));
            ((m as u128 * f as u128) >> 64) as u64
        }
        None => m,
    };
    (0..=splitters.len())
        .map(|j| below(j) - j.checked_sub(1).map_or(0, below))
        .collect()
}

/// Groups a flat record buffer by destination partition, returning one
/// contiguous byte buffer per destination (records keep their order within a
/// destination).
///
/// # Panics
///
/// Panics if `buf` is not a whole number of records.
pub fn partition_records(buf: &[u8], splitters: &[Key]) -> Vec<Vec<u8>> {
    assert_eq!(buf.len() % RECORD_BYTES, 0, "ragged record buffer");
    let k = splitters.len() + 1;
    let mut out = vec![Vec::new(); k];
    for rec in buf.chunks_exact(RECORD_BYTES) {
        out[dest_of(&rec[..KEY_BYTES], splitters)].extend_from_slice(rec);
    }
    out
}

/// The global shuffle plan derived from the full `k × k` counts matrix
/// (`counts[i][j]` = records worker `i` sends to partition `j`).
#[derive(Clone, Debug)]
pub struct ShufflePlan {
    counts: Vec<Vec<u64>>,
    /// `base[j]` = first record index of partition `j` in the output.
    base: Vec<u64>,
}

impl ShufflePlan {
    /// Builds the plan.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn new(counts: Vec<Vec<u64>>) -> ShufflePlan {
        let k = counts.len();
        for row in &counts {
            assert_eq!(row.len(), k, "counts matrix must be square");
        }
        let mut base = Vec::with_capacity(k + 1);
        let mut acc = 0u64;
        for j in 0..k {
            base.push(acc);
            acc += counts.iter().map(|row| row[j]).sum::<u64>();
        }
        base.push(acc);
        ShufflePlan { counts, base }
    }

    /// Total records.
    pub fn total(&self) -> u64 {
        *self.base.last().expect("sentinel")
    }

    /// Record range `[start, end)` of partition `j` in the output.
    pub fn partition_range(&self, j: usize) -> (u64, u64) {
        (self.base[j], self.base[j + 1])
    }

    /// The output record index where worker `i`'s chunk for partition `j`
    /// begins: partition base plus everything earlier workers send there.
    pub fn write_index(&self, i: usize, j: usize) -> u64 {
        self.base[j] + self.counts[..i].iter().map(|row| row[j]).sum::<u64>()
    }

    /// Records worker `i` sends to partition `j`.
    pub fn count(&self, i: usize, j: usize) -> u64 {
        self.counts[i][j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(b: u8) -> Key {
        [b; KEY_BYTES]
    }

    #[test]
    fn splitters_partition_evenly() {
        let mut sample: Vec<Key> = (0..100u8).map(key).collect();
        let s = choose_splitters(&mut sample, 4);
        assert_eq!(s.len(), 3);
        assert!(s[0] < s[1] && s[1] < s[2]);
        // Each quarter of the sample maps to its own destination.
        assert_eq!(dest_of(&key(0), &s), 0);
        assert_eq!(dest_of(&key(30), &s), 1);
        assert_eq!(dest_of(&key(60), &s), 2);
        assert_eq!(dest_of(&key(99), &s), 3);
    }

    #[test]
    fn dest_of_is_monotone_and_exhaustive() {
        let mut sample: Vec<Key> = (0..=255u8).map(key).collect();
        let s = choose_splitters(&mut sample, 7);
        let mut prev = 0;
        for b in 0..=255u8 {
            let d = dest_of(&key(b), &s);
            assert!(d >= prev && d < 7);
            prev = d;
        }
        assert_eq!(prev, 6, "largest keys reach the last partition");
    }

    #[test]
    fn empty_sample_degenerates() {
        let mut sample = Vec::new();
        let s = choose_splitters(&mut sample, 3);
        assert_eq!(s.len(), 2);
        // All-zero splitters: every non-zero key lands in the last bucket.
        assert_eq!(dest_of(&key(5), &s), 2);
    }

    #[test]
    fn partition_records_preserves_bytes() {
        let recs = workload::teragen(64, 3);
        let mut sample: Vec<Key> = (0..64)
            .map(|i| workload::record_key(&recs, i).try_into().unwrap())
            .collect();
        let s = choose_splitters(&mut sample, 5);
        let parts = partition_records(&recs, &s);
        assert_eq!(parts.len(), 5);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, recs.len());
        // Every record in partition d must indeed route to d.
        for (d, part) in parts.iter().enumerate() {
            for rec in part.chunks_exact(RECORD_BYTES) {
                assert_eq!(dest_of(&rec[..KEY_BYTES], &s), d);
            }
        }
    }

    #[test]
    fn uniform_counts_follow_the_splitters_and_sum_to_the_slice() {
        let mut quarter = [0u8; KEY_BYTES];
        quarter[0] = 0x40;
        let mut half = [0u8; KEY_BYTES];
        half[0] = 0x80;
        assert_eq!(uniform_counts(&[quarter, half], 1001), vec![250, 250, 501]);
        assert_eq!(uniform_counts(&[], 7), vec![7]);
        let s = [key(0), key(0x55), key(0xAA), key(0xFF)];
        assert_eq!(uniform_counts(&s, 12_345).iter().sum::<u64>(), 12_345);
    }

    #[test]
    fn shuffle_plan_offsets_are_disjoint_and_dense() {
        // 3 workers, 3 partitions with irregular counts.
        let counts = vec![vec![2u64, 0, 5], vec![1, 3, 1], vec![0, 4, 2]];
        let plan = ShufflePlan::new(counts);
        assert_eq!(plan.total(), 18);
        assert_eq!(plan.partition_range(0), (0, 3));
        assert_eq!(plan.partition_range(1), (3, 10));
        assert_eq!(plan.partition_range(2), (10, 18));
        // Chunks tile each partition exactly.
        for j in 0..3 {
            let (start, end) = plan.partition_range(j);
            let mut cursor = start;
            for i in 0..3 {
                assert_eq!(plan.write_index(i, j), cursor);
                cursor += plan.count(i, j);
            }
            assert_eq!(cursor, end);
        }
    }

    #[test]
    #[should_panic(expected = "square")]
    fn ragged_counts_rejected() {
        ShufflePlan::new(vec![vec![1, 2], vec![3]]);
    }
}
