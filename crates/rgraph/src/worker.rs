//! Worker-side building blocks: partition slices, page-granular gathers,
//! one-sided mailboxes, and the convergence board.
//!
//! These encode the RStore idioms the paper's graph framework is built from:
//! *setup once* (map regions, load static structure), then supersteps that
//! touch remote memory only through batched one-sided reads and writes.

use rdma::DmaBuf;
use rstore::{AllocOptions, RStoreClient, Region, Result};

use crate::partition::VertexPartition;
use crate::store::{bytes_to_u64s, u64s_to_bytes, GraphStore};

/// The static, per-worker slice of a CSR index: the `adj` range of every
/// owned vertex, loaded once at startup.
#[derive(Debug)]
pub struct CsrSlice {
    /// First owned vertex.
    pub start: u64,
    /// Rebased index: `adj[xadj[i] .. xadj[i+1]]` are the neighbours of
    /// vertex `start + i`.
    pub xadj: Vec<u64>,
    /// Neighbour ids.
    pub adj: Vec<u64>,
}

impl CsrSlice {
    /// Loads the slice `[start, end)` of `<which>_xadj` / `<which>_adj`
    /// (`which` is `"in"` or `"out"`).
    ///
    /// # Errors
    ///
    /// Mapping or IO failures.
    pub async fn load(
        store: &GraphStore,
        client: &RStoreClient,
        which: &str,
        start: u64,
        end: u64,
    ) -> Result<CsrSlice> {
        let raw_xadj = store
            .read_u64s(client, &format!("{which}_xadj"), start, end - start + 1)
            .await?;
        let lo = raw_xadj[0];
        let hi = *raw_xadj.last().expect("non-empty");
        let adj = if hi > lo {
            store
                .read_u64s(client, &format!("{which}_adj"), lo, hi - lo)
                .await?
        } else {
            Vec::new()
        };
        let xadj = raw_xadj.iter().map(|x| x - lo).collect();
        Ok(CsrSlice { start, xadj, adj })
    }

    /// Neighbours of owned vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not in the loaded slice.
    pub fn neighbors(&self, v: u64) -> &[u64] {
        let i = (v - self.start) as usize;
        &self.adj[self.xadj[i] as usize..self.xadj[i + 1] as usize]
    }

    /// Total edges in the slice.
    pub fn edge_count(&self) -> u64 {
        self.adj.len() as u64
    }
}

/// `rgraph`'s page: the unit in which a superstep gathers remote values.
pub const PAGE_BYTES: u64 = 4096;

/// A reusable page-granular gather over a u64/f64 vector region.
///
/// Built once from the set of element ids a worker needs every superstep
/// (the in-neighbour closure); [`PageGather::fetch`] is then one
/// [`Region::read_into_many`] per superstep — one round trip, one
/// multi-element WR per memory server per [`rdma::MAX_SGE`] pages, with the
/// region's replica failover, re-dial and checksum verification.
pub struct PageGather {
    region: Region,
    page_elems: u64,
    /// Slot in `buf` of every page of the region; [`NO_SLOT`] outside the plan.
    slot_of: Vec<u32>,
    /// One `(region offset, slot of buf)` pair per planned page. Adjacent
    /// pages stay separate READs on purpose: merged into one large READ
    /// each, every worker's gather completes at the end of the round
    /// instead of spread over it, and E6's RMAT rows measured 6-29 % slower
    /// (DESIGN.md, "Scatter-gather WRs").
    ios: Vec<(u64, DmaBuf)>,
    buf: DmaBuf,
    /// Host image of `buf` and its decoded elements, kept across supersteps.
    bytes: Vec<u8>,
    values: Vec<u64>,
}

/// [`PageGather::slot_of`] of a page no planned id falls on.
const NO_SLOT: u32 = u32::MAX;

impl std::fmt::Debug for PageGather {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageGather")
            .field("pages", &self.ios.len())
            .field("page_elems", &self.page_elems)
            .finish()
    }
}

impl PageGather {
    /// Plans a gather of the given element ids from `region` (a vector of
    /// 8-byte elements), in pages of [`PAGE_BYTES`].
    ///
    /// # Errors
    ///
    /// Buffer allocation failures.
    ///
    /// # Panics
    ///
    /// Panics if an id lies outside the region.
    pub fn plan(region: Region, ids: impl IntoIterator<Item = u64>) -> Result<PageGather> {
        let page_elems = PAGE_BYTES / 8;
        let size = region.size() / 8 * 8;
        let mut pages: Vec<u64> = ids.into_iter().map(|id| id / page_elems).collect();
        pages.sort_unstable();
        pages.dedup();
        let buf_bytes = pages.len() as u64 * PAGE_BYTES;
        let buf = region.client().device().alloc(buf_bytes.max(8))?;
        let mut slot_of = vec![NO_SLOT; size.div_ceil(PAGE_BYTES) as usize];
        let mut ios = Vec::with_capacity(pages.len());
        for (slot, &p) in pages.iter().enumerate() {
            slot_of[p as usize] = slot as u32;
            let offset = p * PAGE_BYTES;
            let len = PAGE_BYTES.min(size - offset);
            ios.push((offset, buf.slice(slot as u64 * PAGE_BYTES, len)));
        }
        Ok(PageGather {
            region,
            page_elems,
            slot_of,
            ios,
            buf,
            bytes: vec![0; buf_bytes as usize],
            values: Vec::new(),
        })
    }

    /// Number of pages fetched per superstep.
    pub fn page_count(&self) -> usize {
        self.ios.len()
    }

    /// Reads every planned page in one round and waits for completion.
    ///
    /// # Errors
    ///
    /// IO failures.
    pub async fn fetch(&mut self) -> Result<()> {
        self.region.read_into_many(&self.ios).await?;
        let dev = self.region.client().device();
        dev.with_mem(|m| m.read_into(self.buf.addr, &mut self.bytes))?;
        self.values.clear();
        self.values.extend(
            self.bytes
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes"))),
        );
        Ok(())
    }

    /// The fetched element `id`, as raw u64 bits.
    ///
    /// # Panics
    ///
    /// Panics if `id`'s page was not part of the plan or
    /// [`PageGather::fetch`] has not run.
    pub fn get(&self, id: u64) -> u64 {
        let slot = match self.slot_of.get((id / self.page_elems) as usize) {
            Some(&slot) if slot != NO_SLOT => slot as u64,
            _ => panic!("id not in gather plan"),
        };
        self.values[(slot * self.page_elems + id % self.page_elems) as usize]
    }

    /// The fetched element `id`, as f64.
    ///
    /// # Panics
    ///
    /// As for [`PageGather::get`].
    pub fn get_f64(&self, id: u64) -> f64 {
        f64::from_bits(self.get(id))
    }
}

/// All-to-all one-sided mailboxes: worker `i` writes its outbox for worker
/// `j` directly into `j`'s mailbox region; after a barrier, `j` reads its
/// row. Message passing without any receiver CPU.
pub struct Mailboxes {
    prefix: String,
    k: u64,
    me: u64,
    cap: u64,
    /// `out[j]`: the region this worker writes for worker `j`.
    out: Vec<Region>,
    /// `inn[i]`: the region worker `i` writes for this worker.
    inn: Vec<Region>,
}

impl std::fmt::Debug for Mailboxes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mailboxes")
            .field("prefix", &self.prefix)
            .field("k", &self.k)
            .field("me", &self.me)
            .finish()
    }
}

impl Mailboxes {
    /// Allocates the `k × k` mailbox regions, each holding up to `cap`
    /// u64 payload elements (plus a count header). Call once per job.
    ///
    /// # Errors
    ///
    /// Allocation failures.
    pub async fn create(
        client: &RStoreClient,
        prefix: &str,
        k: u64,
        cap: u64,
        opts: AllocOptions,
    ) -> Result<()> {
        for i in 0..k {
            for j in 0..k {
                client
                    .alloc(&format!("{prefix}/mbox_{i}_{j}"), (cap + 1) * 8, opts)
                    .await?;
            }
        }
        Ok(())
    }

    /// Maps this worker's row and column.
    ///
    /// # Errors
    ///
    /// Mapping failures.
    pub async fn open(client: &RStoreClient, prefix: &str, k: u64, me: u64) -> Result<Mailboxes> {
        let mut out = Vec::with_capacity(k as usize);
        let mut inn = Vec::with_capacity(k as usize);
        for j in 0..k {
            out.push(client.map(&format!("{prefix}/mbox_{me}_{j}")).await?);
        }
        for i in 0..k {
            inn.push(client.map(&format!("{prefix}/mbox_{i}_{me}")).await?);
        }
        let cap = out[0].size() / 8 - 1;
        Ok(Mailboxes {
            prefix: prefix.to_owned(),
            k,
            me,
            cap,
            out,
            inn,
        })
    }

    /// Writes one outbox per destination worker (index = worker id).
    ///
    /// # Errors
    ///
    /// IO failures, or [`rstore::RStoreError::OutOfRange`] if an outbox
    /// exceeds the mailbox capacity.
    ///
    /// # Panics
    ///
    /// Panics if `outboxes.len() != k`.
    pub async fn send_all(&self, outboxes: &[Vec<u64>]) -> Result<()> {
        assert_eq!(outboxes.len() as u64, self.k, "one outbox per worker");
        for (j, outbox) in outboxes.iter().enumerate() {
            let mut msg = Vec::with_capacity(outbox.len() + 1);
            msg.push(outbox.len() as u64);
            msg.extend_from_slice(outbox);
            self.out[j].write(0, &u64s_to_bytes(&msg)).await?;
        }
        Ok(())
    }

    /// Reads every incoming mailbox (call after the superstep barrier).
    ///
    /// # Errors
    ///
    /// IO failures.
    pub async fn recv_all(&self) -> Result<Vec<Vec<u64>>> {
        let mut all = Vec::with_capacity(self.k as usize);
        for i in 0..self.k as usize {
            let count = bytes_to_u64s(&self.inn[i].read(0, 8).await?)[0];
            debug_assert!(count <= self.cap, "corrupt mailbox header");
            let payload = if count > 0 {
                bytes_to_u64s(&self.inn[i].read(8, count * 8).await?)
            } else {
                Vec::new()
            };
            all.push(payload);
        }
        Ok(all)
    }

    /// Groups items by destination worker, producing the outbox layout
    /// expected by [`Mailboxes::send_all`].
    pub fn route(part: &VertexPartition, items: impl IntoIterator<Item = u64>) -> Vec<Vec<u64>> {
        let mut outboxes = vec![Vec::new(); part.k as usize];
        for v in items {
            outboxes[part.owner(v) as usize].push(v);
        }
        outboxes
    }
}

/// A tiny shared scoreboard: each worker posts one u64 per superstep (e.g.
/// its local change count); everyone reads the vector after the barrier to
/// decide termination — distributed convergence without a coordinator.
pub struct ConvBoard {
    region: Region,
    k: u64,
}

impl std::fmt::Debug for ConvBoard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConvBoard").field("k", &self.k).finish()
    }
}

impl ConvBoard {
    /// Allocates the scoreboard region (call once per job).
    ///
    /// # Errors
    ///
    /// Allocation failures.
    pub async fn create(
        client: &RStoreClient,
        name: &str,
        k: u64,
        opts: AllocOptions,
    ) -> Result<()> {
        client.alloc(name, k * 8, opts).await?;
        Ok(())
    }

    /// Maps the scoreboard.
    ///
    /// # Errors
    ///
    /// Mapping failures.
    pub async fn open(client: &RStoreClient, name: &str, k: u64) -> Result<ConvBoard> {
        Ok(ConvBoard {
            region: client.map(name).await?,
            k,
        })
    }

    /// Posts this worker's value.
    ///
    /// # Errors
    ///
    /// IO failures.
    pub async fn post(&self, me: u64, value: u64) -> Result<()> {
        self.region.write(me * 8, &value.to_le_bytes()).await
    }

    /// Reads every worker's value.
    ///
    /// # Errors
    ///
    /// IO failures.
    pub async fn read_all(&self) -> Result<Vec<u64>> {
        Ok(bytes_to_u64s(&self.region.read(0, self.k * 8).await?))
    }

    /// Sum of all posted values (the usual termination metric).
    ///
    /// # Errors
    ///
    /// IO failures.
    pub async fn total(&self) -> Result<u64> {
        Ok(self.read_all().await?.iter().sum())
    }
}
