//! Striping math: mapping logical region offsets to stripe extents.

use crate::error::{RStoreError, Result};
use crate::proto::RegionDesc;

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
