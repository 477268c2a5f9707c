//! Self-contained CRC32C (Castagnoli), the checksum guarding stripe data.
//!
//! Reflected polynomial `0x82F63B78` — the same algorithm the
//! iSCSI/ext4/SSE4.2 `crc32` instruction implements, so the values here can
//! be cross-checked against any standard implementation. No external crates
//! (the workspace builds hermetically).
//!
//! Three kernels share one set of lookup tables, computed once at first use:
//!
//! * [`crc32c_scalar`] — the classic byte-at-a-time table fold. Kept as the
//!   bit-exact reference both fast kernels are property-tested against, and
//!   as the baseline the E16 µ-bench measures speedup over.
//! * [`crc32c_sliced`] — slicing-by-16: the head is folded per byte until
//!   the cursor is 8-byte aligned, then each iteration consumes two aligned
//!   `u64` lanes with sixteen independent table lookups (no loop-carried
//!   dependency between them), then the tail is folded per byte. Safe,
//!   portable Rust; the fast path on any CPU without SSE4.2.
//! * The SSE4.2 kernel — the `crc32` instruction over three independent
//!   lanes of `LANE` bytes per `3 × LANE` chunk, so three instructions are
//!   in flight at once (a 4 KiB block is one chunk and a 16-byte tail). CRC
//!   is linear, so the lanes are joined by advancing a lane's state over
//!   `LANE` zero bytes: four lookups into a table built beside the slicing
//!   tables. The tail after the last whole chunk is folded in one lane.
//!
//! [`crc32c`] / [`Crc32c`] run the SSE4.2 kernel where
//! `is_x86_feature_detected!("sse4.2")` holds and slicing-by-16 elsewhere;
//! the choice depends on the CPU only and is resolved once per [`Crc32c`]
//! handle, together with the `OnceLock` holding the tables (or once per
//! `crc32c` call), never inside the byte loop. Hot call sites that checksum
//! many buffers hoist a `Crc32c` and pay both loads once.
//!
//! A checksummed stripe is guarded per [`CK_BLOCK`] of its data: its trailer
//! holds one entry per block, the block's CRC widened to a u64 (high 32 bits
//! zero) so the slot stays 8-byte sized and future algorithms have headroom.
//! [`seal_blocks`] and [`verify_blocks`] are the one place that format is
//! written and checked (DESIGN.md, "Checksum blocks").

use std::sync::OnceLock;

use crate::proto::CK_BYTES;

/// Bytes of stripe data one trailer entry guards. A stripe's last block may
/// be short; a stripe of at most one block has the single-CRC trailer.
pub const CK_BLOCK: u64 = 4096;

/// Bytes of trailer behind a stripe of `len` data bytes: one entry per block.
pub fn trailer_len(len: u64) -> u64 {
    CK_BYTES * len.div_ceil(CK_BLOCK)
}

/// One trailer entry: `block`'s CRC32C as a little-endian u64.
fn entry(ck: &Crc32c, block: &[u8]) -> [u8; CK_BYTES as usize] {
    (ck.checksum(block) as u64).to_le_bytes()
}

/// Seals `data` into `entries`, one entry per block. `data` starts on a
/// block boundary of its stripe and runs whole blocks from there; only the
/// stripe's last block may be short.
pub fn seal_blocks(data: &[u8], entries: &mut [u8]) {
    debug_assert_eq!(entries.len() as u64, trailer_len(data.len() as u64));
    let ck = Crc32c::new();
    let slots = entries.chunks_exact_mut(CK_BYTES as usize);
    for (block, slot) in data.chunks(CK_BLOCK as usize).zip(slots) {
        slot.copy_from_slice(&entry(&ck, block));
    }
}

/// Checks `data` (laid out as for [`seal_blocks`]) against `entries`: the
/// index of the first block whose CRC is not its entry, `None` when every
/// block verifies.
pub fn verify_blocks(data: &[u8], entries: &[u8]) -> Option<usize> {
    debug_assert_eq!(entries.len() as u64, trailer_len(data.len() as u64));
    let ck = Crc32c::new();
    let slots = entries.chunks_exact(CK_BYTES as usize);
    data.chunks(CK_BLOCK as usize)
        .zip(slots)
        .position(|(block, slot)| entry(&ck, block) != slot)
}

/// The trailer of a never-written (all-zero) stripe of `len` bytes, so that
/// it verifies clean. Two CRCs whatever the length: a zero block's and the
/// short tail's.
pub fn zero_trailer(len: u64) -> Vec<u8> {
    let zeros = [0u8; CK_BLOCK as usize];
    let ck = Crc32c::new();
    let mut trailer = entry(&ck, &zeros).repeat((len / CK_BLOCK) as usize);
    let tail = (len % CK_BLOCK) as usize;
    if tail > 0 {
        trailer.extend(entry(&ck, &zeros[..tail]));
    }
    trailer
}

/// Reflected CRC32C polynomial.
const POLY: u32 = 0x82F6_3B78;

/// Number of slicing tables: two u64 lanes per main-loop iteration.
const SLICES: usize = 16;

/// Bytes per lane of the SSE4.2 kernel, which folds `3 × LANE` bytes per
/// chunk. A multiple of 8, sized so a 4 KiB block is one chunk and a
/// 16-byte tail.
const LANE: usize = 1360;

type Slices = [[u32; 256]; SLICES];

/// The lookup tables, built together at first use.
struct Tables {
    /// The slicing tables. `slices[0]` is the classic byte table
    /// (`crc' = (crc >> 8) ^ t0[(crc ^ b) & 0xFF]`); table `k` advances a
    /// byte through `k` additional zero bytes, so sixteen lookups fold two
    /// whole `u64` lanes.
    slices: Slices,
    /// `shift[k][b]` is the state `b << 8k` advanced over `LANE` zero
    /// bytes. The fold over zeros is linear in the state, so four lookups
    /// advance any state ([`Tables::advance`]).
    shift: [[u32; 256]; 4],
}

impl Tables {
    /// `crc` (a running state) advanced over `LANE` zero bytes.
    #[inline]
    fn advance(&self, crc: u32) -> u32 {
        let s = &self.shift;
        s[0][(crc & 0xFF) as usize]
            ^ s[1][((crc >> 8) & 0xFF) as usize]
            ^ s[2][((crc >> 16) & 0xFF) as usize]
            ^ s[3][(crc >> 24) as usize]
    }
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; SLICES];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            t[0][i] = crc;
            i += 1;
        }
        let mut k = 1;
        while k < SLICES {
            let mut i = 0;
            while i < 256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
                i += 1;
            }
            k += 1;
        }
        // Each single-bit state advanced over LANE zero bytes; any other
        // state's advance is the xor of its set bits'.
        let bits: [u32; 32] = std::array::from_fn(|j| {
            (0..LANE).fold(1 << j, |crc, _| (crc >> 8) ^ t[0][(crc & 0xFF) as usize])
        });
        let mut shift = [[0u32; 256]; 4];
        for (k, row) in shift.iter_mut().enumerate() {
            for i in 1..256usize {
                row[i] = row[i & (i - 1)] ^ bits[8 * k + i.trailing_zeros() as usize];
            }
        }
        Tables { slices: t, shift }
    })
}

/// Byte-at-a-time reference implementation (initial value all-ones, final
/// xor all-ones). Bit-exact with [`crc32c`]; both fast kernels are verified
/// against this on random lengths, offsets, and alignments.
pub fn crc32c_scalar(bytes: &[u8]) -> u32 {
    let t0 = &tables().slices[0];
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ t0[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// CRC32C of `bytes` by slicing-by-16 whatever the CPU: the portable
/// kernel [`Crc32c`] falls back to, callable directly so it can be
/// measured and tested where the hardware kernel is what `Crc32c` runs.
pub fn crc32c_sliced(bytes: &[u8]) -> u32 {
    let sliced = Crc32c {
        t: tables(),
        kernel: Kernel::Sliced,
    };
    sliced.checksum(bytes)
}

/// The kernel a [`Crc32c`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernel {
    Sliced,
    #[cfg(target_arch = "x86_64")]
    Sse42,
}

impl Kernel {
    /// The fastest kernel this CPU runs.
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            return Kernel::Sse42;
        }
        Kernel::Sliced
    }
}

/// A CRC32C engine holding a resolved reference to the lookup tables and
/// the kernel this CPU runs.
///
/// Construction performs the single `OnceLock` load and the feature check;
/// [`Crc32c::checksum`] then runs with no synchronization at all. Call
/// sites that checksum in a loop (the stripe verifier, the write path's
/// trailer maintenance) hoist one of these instead of paying both per
/// buffer.
#[derive(Clone, Copy)]
pub struct Crc32c {
    t: &'static Tables,
    kernel: Kernel,
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32c {
    /// Resolves the table set (computing it on first use anywhere) and the
    /// kernel: SSE4.2 where the CPU has it, slicing-by-16 elsewhere.
    pub fn new() -> Crc32c {
        Crc32c {
            t: tables(),
            kernel: Kernel::detect(),
        }
    }

    /// CRC32C of `bytes` (initial value all-ones, final xor all-ones).
    pub fn checksum(&self, bytes: &[u8]) -> u32 {
        !match self.kernel {
            Kernel::Sliced => self.fold_sliced(!0u32, bytes),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Kernel::Sse42` comes only from `Kernel::detect`,
            // which returns it only where the CPU reports SSE4.2.
            Kernel::Sse42 => unsafe { fold_sse42(self.t, !0u32, bytes) },
        }
    }

    /// Slicing-by-16: folds `bytes` into a running (pre-inverted) CRC
    /// state.
    fn fold_sliced(&self, mut crc: u32, bytes: &[u8]) -> u32 {
        let t = &self.t.slices;
        // Head: fold per byte until the cursor is 8-byte aligned, so the
        // main loop reads naturally aligned u64 lanes.
        let head = bytes.as_ptr().align_offset(8).min(bytes.len());
        let (head_bytes, rest) = bytes.split_at(head);
        for &b in head_bytes {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        // Body: two u64 lanes per iteration, sixteen independent lookups —
        // the CRC state only touches the low lane, so the high lane's eight
        // lookups have no dependency on it at all.
        let mut chunks = rest.chunks_exact(16);
        for chunk in &mut chunks {
            let lo = u64::from_le_bytes(chunk[..8].try_into().expect("8-byte lane"));
            let hi = u64::from_le_bytes(chunk[8..].try_into().expect("8-byte lane"));
            let x = lo ^ crc as u64;
            crc = t[15][(x & 0xFF) as usize]
                ^ t[14][((x >> 8) & 0xFF) as usize]
                ^ t[13][((x >> 16) & 0xFF) as usize]
                ^ t[12][((x >> 24) & 0xFF) as usize]
                ^ t[11][((x >> 32) & 0xFF) as usize]
                ^ t[10][((x >> 40) & 0xFF) as usize]
                ^ t[9][((x >> 48) & 0xFF) as usize]
                ^ t[8][((x >> 56) & 0xFF) as usize]
                ^ t[7][(hi & 0xFF) as usize]
                ^ t[6][((hi >> 8) & 0xFF) as usize]
                ^ t[5][((hi >> 16) & 0xFF) as usize]
                ^ t[4][((hi >> 24) & 0xFF) as usize]
                ^ t[3][((hi >> 32) & 0xFF) as usize]
                ^ t[2][((hi >> 40) & 0xFF) as usize]
                ^ t[1][((hi >> 48) & 0xFF) as usize]
                ^ t[0][((hi >> 56) & 0xFF) as usize];
        }
        // Mid-tail: one remaining u64 lane, folded with the low-half tables.
        let mut rem = chunks.remainder().chunks_exact(8);
        for chunk in &mut rem {
            let lane = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            let x = lane ^ crc as u64;
            crc = t[7][(x & 0xFF) as usize]
                ^ t[6][((x >> 8) & 0xFF) as usize]
                ^ t[5][((x >> 16) & 0xFF) as usize]
                ^ t[4][((x >> 24) & 0xFF) as usize]
                ^ t[3][((x >> 32) & 0xFF) as usize]
                ^ t[2][((x >> 40) & 0xFF) as usize]
                ^ t[1][((x >> 48) & 0xFF) as usize]
                ^ t[0][((x >> 56) & 0xFF) as usize];
        }
        // Tail: up to 7 remaining bytes.
        for &b in rem.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc
    }
}

/// The SSE4.2 kernel: folds `bytes` into a running (pre-inverted) CRC
/// state with the `crc32` instruction. Each `3 × LANE` chunk runs as three
/// independent lanes — the first from the running state, the other two
/// from zero — so their instructions overlap instead of waiting on one
/// another; the lanes are then joined by advancing over `LANE` zero bytes.
/// What is left after the last whole chunk is folded in one lane.
///
/// # Safety
///
/// Callers outside an SSE4.2 context must have checked that the CPU has
/// SSE4.2 ([`Kernel::detect`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn fold_sse42(t: &Tables, mut crc: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("8-byte word"));
    let mut chunks = bytes.chunks_exact(3 * LANE);
    for chunk in &mut chunks {
        let (a, rest) = chunk.split_at(LANE);
        let (b, c) = rest.split_at(LANE);
        let (mut ca, mut cb, mut cc) = (crc as u64, 0, 0);
        let lanes = a
            .chunks_exact(8)
            .zip(b.chunks_exact(8))
            .zip(c.chunks_exact(8));
        for ((wa, wb), wc) in lanes {
            ca = _mm_crc32_u64(ca, word(wa));
            cb = _mm_crc32_u64(cb, word(wb));
            cc = _mm_crc32_u64(cc, word(wc));
        }
        crc = t.advance(t.advance(ca as u32) ^ cb as u32) ^ cc as u32;
    }
    let mut words = chunks.remainder().chunks_exact(8);
    let mut lane = crc as u64;
    for w in &mut words {
        lane = _mm_crc32_u64(lane, word(w));
    }
    crc = lane as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

/// CRC32C of `bytes` (initial value all-ones, final xor all-ones).
/// Convenience wrapper over [`Crc32c`]; loops should hoist the handle.
pub fn crc32c(bytes: &[u8]) -> u32 {
    Crc32c::new().checksum(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::DetRng;

    /// Known-answer vectors from RFC 3720 (iSCSI) appendix B.4 and common
    /// CRC32C test suites.
    #[test]
    fn known_answers() {
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"a"), 0xC1D0_4330);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0..32u8).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
    }

    /// The block codec: one entry per 4 KiB with a short tail, a one-block
    /// stripe keeps the single-CRC trailer, a flip is pinned to its block,
    /// and a zero stripe's trailer is what sealing the zeros gives.
    #[test]
    fn block_codec_seals_verifies_and_localizes() {
        let mut rng = DetRng::new(0xB10C);
        for len in [1usize, 1024, 4096, 4097, 6 << 10, 64 << 10] {
            let mut data = vec![0u8; len];
            let mut entries = vec![0u8; trailer_len(len as u64) as usize];
            assert_eq!(entries.len(), len.div_ceil(4096) * 8);
            seal_blocks(&data, &mut entries);
            assert_eq!(entries, zero_trailer(len as u64), "len={len}");
            rng.fill_bytes(&mut data);
            seal_blocks(&data, &mut entries);
            assert_eq!(verify_blocks(&data, &entries), None);
            if len <= CK_BLOCK as usize {
                assert_eq!(entries, (crc32c(&data) as u64).to_le_bytes());
            }
            let last = (len - 1) / 4096;
            data[len - 1] ^= 0x10;
            assert_eq!(verify_blocks(&data, &entries), Some(last), "len={len}");
            data[len - 1] ^= 0x10;
            entries[0] ^= 1;
            assert_eq!(verify_blocks(&data, &entries), Some(0));
            // A sub-range from a block boundary verifies on its own entries.
            let tail = last * 4096;
            assert_eq!(verify_blocks(&data[tail..], &entries[last * 8..]), {
                (last == 0).then_some(0)
            });
        }
    }

    #[test]
    fn scalar_matches_known_answers() {
        assert_eq!(crc32c_scalar(b""), 0);
        assert_eq!(crc32c_scalar(b"a"), 0xC1D0_4330);
        assert_eq!(crc32c_scalar(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let data: Vec<u8> = (0..255u8).cycle().take(4096).collect();
        let base = crc32c(&data);
        for bit in [0usize, 7, 4095 * 8 + 3, 2048 * 8] {
            let mut flipped = data.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32c(&flipped), base, "bit {bit} must change the CRC");
        }
    }

    #[test]
    fn incremental_equals_whole() {
        // Sanity: the one-shot API over concatenated slices is what the
        // stripe verifier uses; make sure chunk boundaries don't matter by
        // comparing against a byte-at-a-time reference fold.
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 31 % 251) as u8).collect();
        let t0 = &tables().slices[0];
        let mut crc = !0u32;
        for &b in &data {
            crc = (crc >> 8) ^ t0[((crc ^ b as u32) & 0xFF) as usize];
        }
        assert_eq!(!crc, crc32c(&data));
    }

    type Checksum = fn(&[u8]) -> u32;

    /// The kernels under test, each called directly: slicing-by-16 always,
    /// and the SSE4.2 kernel where the CPU has it — in which case
    /// [`Crc32c::new`] must have picked it.
    fn kernels() -> Vec<(&'static str, Checksum)> {
        let mut kernels: Vec<(&'static str, Checksum)> = vec![("sliced", crc32c_sliced)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            assert_eq!(Crc32c::new().kernel, Kernel::Sse42, "SSE4.2 not chosen");
            kernels.push(("sse4.2", |s| Crc32c::new().checksum(s)));
        }
        kernels
    }

    /// Property: every kernel is bit-exact with the scalar fold on every
    /// start alignment of the tiny lengths (the head/lane/tail splits of
    /// the sliced loop and the one-lane tail of the SSE4.2 one), on both
    /// sides of the SSE4.2 kernel's `3 × LANE` chunk, on whole blocks and
    /// large buffers, and on random slices of a 2 MiB pool.
    #[test]
    fn every_kernel_matches_scalar_on_random_slices() {
        let mut rng = DetRng::new(0xC7C3_2C16);
        let mut pool = vec![0u8; 2 << 20];
        rng.fill_bytes(&mut pool);
        let chunk = 3 * LANE;
        let fixed = [
            chunk - 1,
            chunk,
            chunk + 1,
            chunk + 17,
            4096,
            64 << 10,
            (1 << 20) + 7,
        ];
        let mut cases: Vec<(usize, usize)> = Vec::new();
        for start in 0..8usize {
            cases.extend((0..=40usize).map(|len| (start, len)));
            cases.extend(fixed.iter().map(|&len| (start, len)));
        }
        for _ in 0..300 {
            let start = rng.index(pool.len());
            cases.push((start, rng.index(pool.len() - start + 1)));
        }
        let slice = |&(start, len): &(usize, usize)| &pool[start..start + len];
        let want: Vec<u32> = cases.iter().map(|c| crc32c_scalar(slice(c))).collect();
        for (name, kernel) in kernels() {
            for (c, &want) in cases.iter().zip(&want) {
                assert_eq!(kernel(slice(c)), want, "{name}: (start, len) = {c:?}");
            }
        }
    }

    /// A 64 KiB stripe whose last block is short seals and verifies
    /// through whichever kernel `Crc32c` runs, and its entries are the
    /// per-block CRCs of the scalar reference.
    #[test]
    fn seal_verify_round_trip_with_a_short_last_block() {
        let mut data = vec![0u8; (64 << 10) - 1000];
        DetRng::new(0x5EA1).fill_bytes(&mut data);
        let mut entries = vec![0u8; trailer_len(data.len() as u64) as usize];
        seal_blocks(&data, &mut entries);
        for (block, slot) in data.chunks(CK_BLOCK as usize).zip(entries.chunks_exact(8)) {
            assert_eq!(slot, (crc32c_scalar(block) as u64).to_le_bytes());
        }
        assert_eq!(verify_blocks(&data, &entries), None);
        let last = entries.len() / 8 - 1;
        *data.last_mut().unwrap() ^= 0x80;
        assert_eq!(verify_blocks(&data, &entries), Some(last));
    }
}
