//! The bytes a region read returns, lent rather than copied (DESIGN.md
//! "Arena backing").
//!
//! A [`Region::read`](crate::Region::read) lands its IO in a staging block
//! of the handle's pool and hands the caller that block's backing vector
//! itself ([`rdma::Arena::swap_backing`]): no second copy and no heap
//! allocation per read. The vector goes back into its block, and the block
//! back into the pool, when the buffer drops; until then the block stays
//! out of the pool, so no other IO lands in the bytes the caller holds.

use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

use rdma::DmaBuf;

use crate::client::RStoreClient;
use crate::error::Result;
use crate::region::IoPool;

/// The bytes of one [`Region::read`](crate::Region::read), lent by the
/// handle that read them. Derefs to `[u8]`; [`into_vec`](Self::into_vec)
/// keeps them past the buffer.
pub struct ReadBuf {
    /// The staging block's backing, as long as the read.
    bytes: Vec<u8>,
    /// The block those bytes go back to, and what returns it to its pool.
    staging: DmaBuf,
    pool: Rc<IoPool>,
    client: RStoreClient,
}

impl ReadBuf {
    /// Lends the `len` bytes landed in `staging`, a block of `pool`: its
    /// backing leaves the arena and the block stays out of the pool until
    /// the buffer drops.
    pub(crate) fn lend(
        client: &RStoreClient,
        pool: &Rc<IoPool>,
        staging: DmaBuf,
        len: u64,
    ) -> Result<ReadBuf> {
        let dev = &client.shared.dev;
        let mut bytes = dev.with_mem(|m| m.swap_backing(staging, Vec::new()))?;
        // Past a landing that wrote nothing (a synthetic extent), zeros.
        bytes.resize(len as usize, 0);
        Ok(ReadBuf {
            bytes,
            staging,
            pool: pool.clone(),
            client: client.clone(),
        })
    }

    /// The bytes as a `Vec` of their own: the lent vector itself, while its
    /// block gets a fresh one reserved at the read's length — one heap
    /// allocation, which the block's next landing fills without growing.
    pub fn into_vec(mut self) -> Vec<u8> {
        let reserved = Vec::with_capacity(self.bytes.len());
        std::mem::replace(&mut self.bytes, reserved)
    }
}

impl Drop for ReadBuf {
    fn drop(&mut self) {
        let (dev, bytes) = (&self.client.shared.dev, std::mem::take(&mut self.bytes));
        let _ = dev.with_mem(|m| m.swap_backing(self.staging, bytes));
        self.pool.unstage(dev, self.staging);
    }
}

impl Deref for ReadBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.bytes
    }
}

impl fmt::Debug for ReadBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl AsRef<[u8]> for ReadBuf {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

/// Compares the bytes, as `Vec<u8>` does: with `[u8]`, `&[u8]`, `[u8; N]`,
/// `Vec<u8>`, another `ReadBuf`.
impl<T: AsRef<[u8]> + ?Sized> PartialEq<T> for ReadBuf {
    fn eq(&self, other: &T) -> bool {
        **self == *other.as_ref()
    }
}
