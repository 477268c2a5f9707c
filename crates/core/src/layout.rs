//! Striping math: mapping logical region offsets to stripe extents.

use crate::crc::{trailer_len, CK_BLOCK};
use crate::error::{RStoreError, Result};
use crate::proto::{RegionDesc, CK_BYTES};

/// One contiguous piece of an IO after striping: byte range `buf_offset ..
/// buf_offset + len` of the caller's buffer maps to `offset_in_stripe ..` of
/// stripe group `group`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Piece {
    /// Index into [`RegionDesc::groups`].
    pub group: usize,
    /// Start offset within the stripe.
    pub offset_in_stripe: u64,
    /// Piece length in bytes.
    pub len: u64,
    /// Start offset within the caller's buffer.
    pub buf_offset: u64,
}

/// Checksum-block geometry (DESIGN.md, "Checksum blocks"): a checksummed
/// stripe of `stripe_len` bytes is followed in its extent by one
/// [`CK_BYTES`] entry per [`CK_BLOCK`] of data, and a verified IO moves
/// whole blocks with their entries.
impl Piece {
    /// The frame of a verified IO on this piece: the two ranges of the
    /// extent it moves — the blocks that cover the piece, and their trailer
    /// entries (addressed past the stripe's end) — as pieces into one staging
    /// image, the data at 0 and the entries behind it.
    pub fn ck_frame(&self, stripe_len: u64) -> [Piece; 2] {
        let b0 = self.offset_in_stripe / CK_BLOCK;
        let b1 = (self.offset_in_stripe + self.len).div_ceil(CK_BLOCK);
        let data = Piece {
            offset_in_stripe: b0 * CK_BLOCK,
            len: (b1 * CK_BLOCK).min(stripe_len) - b0 * CK_BLOCK,
            buf_offset: 0,
            ..*self
        };
        let entries = Piece {
            offset_in_stripe: stripe_len + CK_BYTES * b0,
            len: trailer_len(data.len),
            buf_offset: data.len,
            ..data
        };
        [data, entries]
    }

    /// The one piece covering this piece and `next`, when `next` continues
    /// it both in the stripe and in the buffer. For a frame that is the
    /// whole-stripe case: data and trailer are one range of the extent.
    pub fn join(&self, next: &Piece) -> Option<Piece> {
        let meets = self.group == next.group
            && self.offset_in_stripe + self.len == next.offset_in_stripe
            && self.buf_offset + self.len == next.buf_offset;
        meets.then_some(Piece {
            len: self.len + next.len,
            ..*self
        })
    }

    /// Whether this piece and `other` touch a common checksum block — the
    /// frames of two verified writes that do cannot fly in one round.
    pub fn shares_block(&self, other: &Piece) -> bool {
        let blocks = |p: &Piece| {
            let end = (p.offset_in_stripe + p.len).div_ceil(CK_BLOCK);
            (p.offset_in_stripe / CK_BLOCK, end)
        };
        let ((a0, a1), (b0, b1)) = (blocks(self), blocks(other));
        self.group == other.group && a0 < b1 && b0 < a1
    }

    /// What a verified write of this piece must read before it can seal
    /// `data`, the data piece of its frame: the first and the last block of
    /// the frame where the write covers them only in part, as pieces into
    /// the frame's image. A block the write covers whole (or to the stripe's
    /// end) is not read and its piece is empty; when both are needed and are
    /// the same block or neighbours, the first piece spans them and the
    /// second is empty.
    pub fn ck_partial(&self, data: &Piece) -> [Piece; 2] {
        let lo = self.offset_in_stripe - data.offset_in_stripe;
        let (head, tail) = (lo > 0, lo + self.len < data.len);
        let last = (data.len - 1) / CK_BLOCK * CK_BLOCK;
        let block = |from: u64, to: u64| Piece {
            offset_in_stripe: data.offset_in_stripe + from,
            len: to - from,
            buf_offset: from,
            ..*data
        };
        if head && tail && last <= CK_BLOCK {
            return [block(0, data.len), block(0, 0)];
        }
        let head_end = if head { CK_BLOCK.min(data.len) } else { 0 };
        let tail_start = if tail { last } else { data.len };
        [block(0, head_end), block(tail_start, data.len)]
    }
}

/// Precomputed logical-offset index over a region's stripes.
#[derive(Clone, Debug)]
pub struct Layout {
    /// `starts[i]` is the logical offset where group `i` begins; a final
    /// sentinel entry holds the region size.
    starts: Vec<u64>,
}

impl Layout {
    /// Builds the layout from a descriptor.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the stripe lengths do not sum to the region size —
    /// that would be a corrupt descriptor.
    pub fn new(desc: &RegionDesc) -> Layout {
        let mut starts = Vec::with_capacity(desc.groups.len() + 1);
        let mut acc = 0u64;
        for g in &desc.groups {
            starts.push(acc);
            acc += g.len();
        }
        starts.push(acc);
        debug_assert_eq!(acc, desc.size, "stripe lengths must sum to region size");
        Layout { starts }
    }

    /// Total mapped size.
    pub fn size(&self) -> u64 {
        *self.starts.last().expect("sentinel always present")
    }

    /// Splits the byte range `[offset, offset + len)` into per-stripe pieces
    /// in logical order.
    ///
    /// # Errors
    ///
    /// [`RStoreError::OutOfRange`] if the range exceeds the region. A
    /// zero-length range yields no pieces.
    pub fn pieces(&self, offset: u64, len: u64) -> Result<Vec<Piece>> {
        Ok(self.piece_iter(offset, len)?.collect())
    }

    /// [`pieces`](Self::pieces) as an iterator, for callers that fold the
    /// pieces into a plan of their own instead of keeping the `Vec`.
    ///
    /// # Errors
    ///
    /// As for [`pieces`](Self::pieces).
    pub fn piece_iter(&self, offset: u64, len: u64) -> Result<impl Iterator<Item = Piece> + '_> {
        let size = self.size();
        let end = offset
            .checked_add(len)
            .filter(|&e| e <= size)
            .ok_or(RStoreError::OutOfRange { offset, len, size })?;
        // Find the first group containing `offset` (starts is sorted).
        let mut group = match self.starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let mut cur = offset;
        Ok(std::iter::from_fn(move || {
            if cur >= end {
                return None;
            }
            let gstart = self.starts[group];
            let gend = self.starts[group + 1];
            let piece = Piece {
                group,
                offset_in_stripe: cur - gstart,
                len: (end - cur).min(gend - cur),
                buf_offset: cur - offset,
            };
            cur += piece.len;
            group += 1;
            Some(piece)
        }))
    }

    /// Resolves the single piece covering `[offset, offset + len)` without
    /// allocating — the hot-path sibling of [`pieces`](Self::pieces) for
    /// ranges known not to straddle a stripe (CAS words, KV slot images).
    ///
    /// # Errors
    ///
    /// [`RStoreError::OutOfRange`] if the range is empty, exceeds the
    /// region, or spans two stripes.
    pub fn piece_at(&self, offset: u64, len: u64) -> Result<Piece> {
        let size = self.size();
        let end = offset
            .checked_add(len)
            .filter(|&e| len > 0 && e <= size)
            .ok_or(RStoreError::OutOfRange { offset, len, size })?;
        let group = match self.starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        if end > self.starts[group + 1] {
            return Err(RStoreError::OutOfRange { offset, len, size });
        }
        Ok(Piece {
            group,
            offset_in_stripe: offset - self.starts[group],
            len,
            buf_offset: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{Extent, RegionState, StripeGroup};

    fn desc(lens: &[u64]) -> RegionDesc {
        RegionDesc {
            name: "t".into(),
            size: lens.iter().sum(),
            stripe_size: lens.first().copied().unwrap_or(0),
            groups: lens
                .iter()
                .enumerate()
                .map(|(i, &len)| StripeGroup {
                    replicas: vec![Extent {
                        node: i as u32,
                        addr: 0,
                        rkey: 0,
                        len,
                    }],
                })
                .collect(),
            state: RegionState::Healthy,
            checksums: false,
        }
    }

    fn piece(offset_in_stripe: u64, len: u64) -> Piece {
        Piece {
            group: 3,
            offset_in_stripe,
            len,
            buf_offset: 77,
        }
    }

    #[test]
    fn ck_frame_covers_the_piece_with_whole_blocks_and_their_entries() {
        let k = CK_BLOCK;
        // An aligned block of a 64 KiB stripe: that block and its entry.
        let [data, entries] = piece(5 * k, k).ck_frame(16 * k);
        assert_eq!(
            (data.offset_in_stripe, data.len, data.buf_offset),
            (5 * k, k, 0)
        );
        assert_eq!((entries.offset_in_stripe, entries.len), (16 * k + 5 * 8, 8));
        assert_eq!((entries.buf_offset, entries.group), (k, 3));
        assert_eq!(data.join(&entries), None, "a gap of blocks and entries");
        // 100 bytes across a block boundary: two blocks, two entries.
        let [data, entries] = piece(2 * k - 50, 100).ck_frame(16 * k);
        assert_eq!((data.offset_in_stripe, data.len), (k, 2 * k));
        assert_eq!((entries.offset_in_stripe, entries.len), (16 * k + 8, 16));
        // A short last block (6 KiB stripe = 4 KiB + 2 KiB).
        let [data, entries] = piece(k + 10, 20).ck_frame(6 << 10);
        assert_eq!((data.offset_in_stripe, data.len), (k, 2 << 10));
        assert_eq!((entries.offset_in_stripe, entries.len), ((6 << 10) + 8, 8));
        // A whole stripe is one range: data, then every entry.
        let [data, entries] = piece(0, 6 << 10).ck_frame(6 << 10);
        let whole = data.join(&entries).expect("whole stripe joins");
        assert_eq!((whole.offset_in_stripe, whole.len), (0, (6 << 10) + 16));
        // A stripe of at most one block keeps the single-CRC layout.
        let [data, entries] = piece(100, 24).ck_frame(1 << 10);
        assert_eq!(data.join(&entries).map(|p| p.len), Some((1 << 10) + 8));
    }

    #[test]
    fn ck_partial_names_only_the_boundary_blocks() {
        let k = CK_BLOCK;
        let partial = |offset: u64, len: u64, stripe: u64| {
            let p = piece(offset, len);
            let [data, _] = p.ck_frame(stripe);
            p.ck_partial(&data)
                .map(|b| (b.offset_in_stripe, b.len, b.buf_offset))
        };
        // Block-aligned, or running to the stripe's end: nothing to read.
        assert_eq!(partial(4 * k, 2 * k, 16 * k).map(|b| b.1), [0, 0]);
        assert_eq!(partial(k, (6 << 10) - k, 6 << 10).map(|b| b.1), [0, 0]);
        // Inside one block: that block, once.
        assert_eq!(partial(300, 100, 16 * k), [(0, k, 0), (0, 0, 0)]);
        // Across a boundary: the two neighbours as one fetch.
        assert_eq!(partial(2 * k - 50, 100, 16 * k), [(k, 2 * k, 0), (k, 0, 0)]);
        // Head only / tail only.
        assert_eq!(partial(10, 2 * k - 10, 16 * k).map(|b| b.1), [k, 0]);
        assert_eq!(partial(k, k + 5, 16 * k), [(k, 0, 0), (2 * k, k, k)]);
        // Both ends partial, blocks apart: two fetches, the middle untouched.
        assert_eq!(
            partial(k + 1, 3 * k, 16 * k),
            [(k, k, 0), (4 * k, k, 3 * k)]
        );
        // A short last block is fetched at its own length.
        assert_eq!(partial(k + 1, 10, 6 << 10), [(k, 2 << 10, 0), (k, 0, 0)]);
        assert_eq!(partial(0, k + 10, 6 << 10), [(0, 0, 0), (k, 2 << 10, k)]);
    }

    #[test]
    fn shares_block_is_per_block_and_per_stripe() {
        let k = CK_BLOCK;
        let other = |offset_in_stripe, len| Piece {
            offset_in_stripe,
            len,
            ..piece(0, 0)
        };
        // Two halves of one block share it; neighbouring blocks do not.
        assert!(piece(10, 100).shares_block(&other(k - 100, 50)));
        assert!(!piece(10, 100).shares_block(&other(k, 50)));
        assert!(!piece(k - 10, 10).shares_block(&other(k, k)));
        // A range across a boundary shares both blocks it touches.
        assert!(piece(k - 10, 20).shares_block(&other(0, 1)));
        assert!(piece(k - 10, 20).shares_block(&other(2 * k - 1, 1)));
        // The same offsets in another stripe share nothing.
        assert!(!piece(10, 100).shares_block(&Piece {
            group: 4,
            ..other(10, 100)
        }));
    }

    #[test]
    fn single_stripe_identity() {
        let l = Layout::new(&desc(&[100]));
        let p = l.pieces(10, 50).unwrap();
        assert_eq!(
            p,
            vec![Piece {
                group: 0,
                offset_in_stripe: 10,
                len: 50,
                buf_offset: 0
            }]
        );
    }

    #[test]
    fn spanning_read_splits_at_boundaries() {
        let l = Layout::new(&desc(&[64, 64, 36]));
        let p = l.pieces(60, 80).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(
            p[0],
            Piece {
                group: 0,
                offset_in_stripe: 60,
                len: 4,
                buf_offset: 0
            }
        );
        assert_eq!(
            p[1],
            Piece {
                group: 1,
                offset_in_stripe: 0,
                len: 64,
                buf_offset: 4
            }
        );
        assert_eq!(
            p[2],
            Piece {
                group: 2,
                offset_in_stripe: 0,
                len: 12,
                buf_offset: 68
            }
        );
    }

    #[test]
    fn exact_boundary_starts_next_stripe() {
        let l = Layout::new(&desc(&[64, 64]));
        let p = l.pieces(64, 10).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].group, 1);
        assert_eq!(p[0].offset_in_stripe, 0);
    }

    #[test]
    fn full_region_covers_everything() {
        let l = Layout::new(&desc(&[10, 20, 30]));
        let p = l.pieces(0, 60).unwrap();
        assert_eq!(p.iter().map(|x| x.len).sum::<u64>(), 60);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn zero_length_is_empty() {
        let l = Layout::new(&desc(&[10]));
        assert!(l.pieces(5, 0).unwrap().is_empty());
        assert!(l.pieces(10, 0).unwrap().is_empty());
    }

    #[test]
    fn out_of_range_rejected() {
        let l = Layout::new(&desc(&[10, 10]));
        assert!(matches!(
            l.pieces(15, 10),
            Err(RStoreError::OutOfRange { .. })
        ));
        assert!(matches!(
            l.pieces(u64::MAX, 2),
            Err(RStoreError::OutOfRange { .. })
        ));
    }

    #[test]
    fn pieces_are_contiguous_and_ordered() {
        let l = Layout::new(&desc(&[7, 13, 5, 25]));
        let p = l.pieces(3, 40).unwrap();
        let mut expect_buf = 0;
        for piece in &p {
            assert_eq!(piece.buf_offset, expect_buf);
            expect_buf += piece.len;
        }
        assert_eq!(expect_buf, 40);
    }

    #[test]
    fn piece_at_matches_pieces_for_unstraddled_ranges() {
        let l = Layout::new(&desc(&[16, 16, 8, 24]));
        for (offset, len) in [(0, 8), (8, 8), (16, 16), (33, 7), (40, 24)] {
            let single = l.piece_at(offset, len).unwrap();
            let multi = l.pieces(offset, len).unwrap();
            assert_eq!(multi.len(), 1);
            assert_eq!(single.group, multi[0].group);
            assert_eq!(single.offset_in_stripe, multi[0].offset_in_stripe);
            assert_eq!(single.len, multi[0].len);
        }
    }

    #[test]
    fn piece_at_rejects_straddles_and_out_of_range() {
        let l = Layout::new(&desc(&[16, 16]));
        assert!(matches!(
            l.piece_at(12, 8),
            Err(RStoreError::OutOfRange { .. })
        ));
        assert!(matches!(
            l.piece_at(28, 8),
            Err(RStoreError::OutOfRange { .. })
        ));
        assert!(matches!(
            l.piece_at(8, 0),
            Err(RStoreError::OutOfRange { .. })
        ));
    }
}
