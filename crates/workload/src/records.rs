//! TeraSort-style records and key distributions.

use sim::DetRng;

/// Size of a sort record: 10-byte key + 90-byte value, as in TeraGen.
pub const RECORD_BYTES: usize = 100;
/// Size of a record key.
pub const KEY_BYTES: usize = 10;

/// The key [`teragen`] writes at record index `i`: uniformly random, and a
/// function of `(seed, i)` alone, so any record's key can be computed
/// without generating the records before it.
pub fn key_at(seed: u64, i: u64) -> [u8; KEY_BYTES] {
    let mut key = [0u8; KEY_BYTES];
    DetRng::new(seed).fork(i).fill_bytes(&mut key);
    key
}

/// Generates `count` TeraGen-style records into a flat byte buffer
/// (`count * 100` bytes). Record `i`'s key is [`key_at`]`(seed, i)`; the
/// value embeds the record index so corruption is detectable.
pub fn teragen(count: u64, seed: u64) -> Vec<u8> {
    // The rest of the value is a fixed filler pattern.
    let filler: Vec<u8> = (0..RECORD_BYTES - KEY_BYTES - 8)
        .map(|j| (j % 251) as u8)
        .collect();
    let mut out = Vec::with_capacity(count as usize * RECORD_BYTES);
    for i in 0..count {
        out.extend_from_slice(&key_at(seed, i));
        out.extend_from_slice(&i.to_le_bytes());
        out.extend_from_slice(&filler);
    }
    out
}

/// Extracts the key of record `i` from a flat record buffer.
///
/// # Panics
///
/// Panics if the buffer does not contain record `i`.
pub fn record_key(buf: &[u8], i: usize) -> &[u8] {
    &buf[i * RECORD_BYTES..i * RECORD_BYTES + KEY_BYTES]
}

/// Checks that a flat record buffer is sorted by key.
pub fn is_sorted(buf: &[u8]) -> bool {
    let n = buf.len() / RECORD_BYTES;
    (1..n).all(|i| record_key(buf, i - 1) <= record_key(buf, i))
}

/// Sorts a flat record buffer in place by key (the "local sort" phase).
/// Stable: records with equal keys keep their order.
pub fn sort_records(buf: &mut [u8]) {
    debug_assert_eq!(buf.len() % RECORD_BYTES, 0);
    // One u128 per record: the key in the top 80 bits and the record's
    // index below it, so integer order is key order with ties by index.
    let mut order: Vec<u128> = buf
        .chunks_exact(RECORD_BYTES)
        .enumerate()
        .map(|(i, rec)| {
            let mut word = [0u8; 16];
            word[..KEY_BYTES].copy_from_slice(&rec[..KEY_BYTES]);
            u128::from_be_bytes(word) | i as u128
        })
        .collect();
    order.sort_unstable();
    let mut out = Vec::with_capacity(buf.len());
    for &w in &order {
        let src = (w as u64 & 0xFFFF_FFFF_FFFF) as usize * RECORD_BYTES;
        out.extend_from_slice(&buf[src..src + RECORD_BYTES]);
    }
    buf.copy_from_slice(&out);
}

const LN_2: f64 = std::f64::consts::LN_2;
const SQRT_2: f64 = std::f64::consts::SQRT_2;

/// `log2(x)` for finite `x > 0`, computed from IEEE-exact arithmetic only
/// (`+ - * /` and exponent-bit manipulation — every step is
/// correctly-rounded by the standard, no libm calls). `f64::ln`/`powf`
/// lower to the platform's libm, whose last-ulp behaviour differs across
/// implementations; benchmark workloads that feed committed byte-identical
/// baselines (the Zipf sampler) must not depend on that.
fn det_log2(x: f64) -> f64 {
    debug_assert!(x.is_finite() && x > 0.0);
    let bits = x.to_bits();
    let mut e = ((bits >> 52) & 0x7FF) as i64 - 1023;
    let mut m = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) | (1023u64 << 52));
    // Re-centre the mantissa on [√2/2, √2) so t below stays small.
    if m > SQRT_2 {
        m *= 0.5;
        e += 1;
    }
    // ln(m) = 2·atanh(t) with t = (m-1)/(m+1); odd series in t².
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    let mut series = 0.0;
    for k in (0..9).rev() {
        series = series * t2 + 1.0 / (2 * k + 1) as f64;
    }
    e as f64 + (2.0 * t * series) / LN_2
}

/// `2^y` for `y` in a sane range, from IEEE-exact arithmetic only
/// (see [`det_log2`]).
fn det_exp2(y: f64) -> f64 {
    let n = y.floor();
    let z = (y - n) * LN_2;
    // e^z on [0, ln 2) via a Horner-nested Taylor tail.
    let mut acc = 1.0;
    for k in (1..=18).rev() {
        acc = 1.0 + acc * z / (k as f64);
    }
    acc * f64::from_bits(((1023 + n as i64) as u64) << 52)
}

/// Bit-deterministic replacement for `x.powf(theta)` (`x > 0`).
fn det_pow(x: f64, theta: f64) -> f64 {
    if theta == 0.0 {
        return 1.0;
    }
    det_exp2(theta * det_log2(x))
}

/// A Zipf-distributed key sampler (for skewed KV access patterns).
#[derive(Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
    rng: DetRng,
}

impl Zipf {
    /// Builds a sampler over `n` items with exponent `theta` (0 = uniform;
    /// 0.99 = YCSB's default skew).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, theta: f64, seed: u64) -> Zipf {
        assert!(n > 0, "zipf over empty domain");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 1..=n {
            acc += 1.0 / det_pow(i as f64, theta);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf {
            cdf,
            rng: DetRng::new(seed),
        }
    }

    /// Draws the next item index in `[0, n)`.
    #[allow(clippy::should_implement_trait)] // not an Iterator: infinite, needs no Option
    pub fn next(&mut self) -> usize {
        let r = self.rng.f64();
        self.cdf.partition_point(|&c| c < r).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det_pow_matches_libm_closely() {
        // det_pow must track the libm answer to well under a part in 1e12
        // (so the Zipf CDF it feeds is statistically indistinguishable)
        // while itself using only IEEE-exact operations.
        for i in 1..=4096u32 {
            let x = i as f64;
            for theta in [0.25, 0.5, 0.75, 0.99, 1.0, 1.5] {
                let got = det_pow(x, theta);
                let want = x.powf(theta);
                let rel = ((got - want) / want).abs();
                assert!(rel < 1e-12, "det_pow({x}, {theta}) = {got}, libm {want}");
            }
        }
        // Exact cases.
        assert_eq!(det_pow(123.0, 0.0), 1.0);
        assert_eq!(det_pow(1.0, 0.99), 1.0);
        assert_eq!(det_pow(4.0, 1.0), 4.0);
        assert_eq!(det_pow(1024.0, 0.5), 32.0);
    }

    #[test]
    fn zipf_cdf_is_bit_stable() {
        // Golden bits: the E14 baselines are committed byte-identical, so
        // the zipfian draw sequence may never shift across toolchains or
        // libm versions. These constants pin the deterministic CDF.
        let z = Zipf::new(1 << 16, 0.99, 7);
        let pick = |i: usize| z.cdf[i].to_bits();
        assert_eq!(pick(0), 0x3FB4_CDDF_DB6D_E2D8u64);
        assert_eq!(pick(1 << 8), 0x3FE0_57C9_14FE_36DAu64);
        assert_eq!(pick(1 << 15), 0x3FED_FE3C_943B_DF45u64);
        assert_eq!(pick((1 << 16) - 1), 0x3FF0_0000_0000_0000u64);
    }

    #[test]
    fn teragen_is_deterministic_and_sized() {
        let a = teragen(100, 1);
        let b = teragen(100, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100 * RECORD_BYTES);
        assert_ne!(a, teragen(100, 2));
    }

    #[test]
    fn teragen_keys_are_key_at() {
        let buf = teragen(200, 17);
        for i in 0..200usize {
            assert_eq!(record_key(&buf, i), key_at(17, i as u64));
        }
        assert_ne!(key_at(17, 3), key_at(18, 3));
    }

    #[test]
    fn records_carry_index_in_value() {
        let buf = teragen(10, 3);
        for i in 0..10usize {
            let rec = &buf[i * RECORD_BYTES..(i + 1) * RECORD_BYTES];
            let idx = u64::from_le_bytes(rec[KEY_BYTES..KEY_BYTES + 8].try_into().unwrap());
            assert_eq!(idx, i as u64);
        }
    }

    #[test]
    fn sort_records_orders_and_permutes() {
        let mut buf = teragen(500, 9);
        let mut before: Vec<Vec<u8>> = (0..500)
            .map(|i| buf[i * RECORD_BYTES..(i + 1) * RECORD_BYTES].to_vec())
            .collect();
        sort_records(&mut buf);
        assert!(is_sorted(&buf));
        let mut after: Vec<Vec<u8>> = (0..500)
            .map(|i| buf[i * RECORD_BYTES..(i + 1) * RECORD_BYTES].to_vec())
            .collect();
        before.sort();
        after.sort();
        assert_eq!(before, after, "sorting must be a permutation");
    }

    #[test]
    fn is_sorted_detects_disorder() {
        let mut buf = teragen(50, 4);
        sort_records(&mut buf);
        assert!(is_sorted(&buf));
        buf[0..KEY_BYTES].copy_from_slice(&[0xFF; KEY_BYTES]);
        assert!(!is_sorted(&buf));
    }

    #[test]
    fn zipf_is_skewed_toward_low_indexes() {
        let mut z = Zipf::new(1000, 0.99, 5);
        let mut counts = vec![0u32; 1000];
        for _ in 0..20_000 {
            counts[z.next()] += 1;
        }
        let head: u32 = counts[..10].iter().sum();
        assert!(
            head as f64 > 20_000.0 * 0.15,
            "top-10 of 1000 should absorb >15% of zipf(0.99) draws, got {head}"
        );
    }

    #[test]
    fn zipf_theta_zero_is_roughly_uniform() {
        let mut z = Zipf::new(10, 0.0, 6);
        let mut counts = vec![0u32; 10];
        for _ in 0..10_000 {
            counts[z.next()] += 1;
        }
        for &c in &counts {
            assert!(
                (700..1300).contains(&c),
                "uniform-ish expected, got {counts:?}"
            );
        }
    }
}
