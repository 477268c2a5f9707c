//! Regions: the memory-like data-path API.
//!
//! A [`Region`] is a mapped window onto distributed DRAM. Every operation is
//! pure one-sided RDMA against the memory servers named in the region's
//! descriptor — no master involvement, no remote CPU.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::future::Future;
use std::ops::Range;
use std::rc::Rc;
use std::time::Duration;

use rdma::{AtomicOp, CqStatus, DmaBuf, RKey, RemoteAddr, Sge, SgeList, Wr, WrOp, MAX_SGE};
use sim::channel::oneshot;
use sim::{Event, Level, OpLedger, Phase, Span};

use crate::client::RStoreClient;
use crate::crc::{seal_blocks, verify_blocks};
use crate::error::{RStoreError, Result};
use crate::layout::{Layout, Piece};
use crate::proto::{Extent, RegionDesc};
use crate::stats::OpKind;

/// What a posted WR does with its transfers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Dir {
    Read,
    Write,
    /// Compare-and-swap on the 8-byte word one transfer names; the prior
    /// value lands in the transfer's buffer.
    Cas {
        expect: u64,
        swap: u64,
    },
}

/// One planned transfer: `piece` of the caller's `buf`, against replica
/// `replica` of the piece's stripe.
#[derive(Clone, Copy)]
struct Xfer {
    piece: Piece,
    buf: DmaBuf,
    replica: usize,
    /// Checksummed IO only: the piece's frame image ([`Piece::ck_frame`]) in
    /// the round's staging buffer — what its WR moves, in place of `buf`.
    image: Option<DmaBuf>,
    /// Read failover only: this replica has spent its one reconnect retry.
    redialed: bool,
    /// Read failover only: some replica refused the rkey.
    refused: bool,
    /// Read failover only: the node of the last replica whose frame landed
    /// but did not verify.
    corrupt: Option<u32>,
}

impl Xfer {
    fn new(piece: Piece, buf: DmaBuf, replica: usize) -> Xfer {
        Xfer {
            piece,
            buf,
            replica,
            image: None,
            redialed: false,
            refused: false,
            corrupt: None,
        }
    }
}

/// A transfer that did not land, with the completion status that failed it
/// (`Timeout` when its WR could not even be posted, `Success` when it is a
/// checksummed read whose frame landed but did not verify).
type Failed = (Xfer, CqStatus);

/// A posted WR: the plan indices of the transfers it covers and its
/// completion receiver.
type Posted = (Range<usize>, oneshot::Receiver<CqStatus>);

/// Recycled IO scratch shared by all clones of a [`Region`] handle: staging
/// `DmaBuf`s for checksum-block assembly/verification, a host-side byte
/// scratch for CRC work, and the plan and posted-WR lists of a round (one of
/// each per round in flight). Reuse keeps the steady-state op set
/// allocation-free (arena allocation is zero virtual time, so pooling
/// changes no wire traffic or timing — only host-heap churn).
#[derive(Default)]
struct IoPool {
    staging: RefCell<Vec<DmaBuf>>,
    scratch: RefCell<Vec<u8>>,
    plans: RefCell<Vec<Vec<Xfer>>>,
    waits: RefCell<Vec<Vec<Posted>>>,
}

impl IoPool {
    /// An empty list from `spares`, with whatever capacity its last user grew.
    fn take<T>(spares: &RefCell<Vec<Vec<T>>>) -> Vec<T> {
        spares.borrow_mut().pop().unwrap_or_default()
    }

    /// Returns a list taken with [`take`](Self::take).
    fn put<T>(spares: &RefCell<Vec<Vec<T>>>, mut list: Vec<T>) {
        list.clear();
        let mut spares = spares.borrow_mut();
        if spares.len() < POOL_CAP {
            spares.push(list);
        }
    }
}

/// Staging buffers (and spare lists) kept for reuse; beyond this the excess
/// is freed (mixed-size workloads would otherwise grow the pool without
/// bound).
const POOL_CAP: usize = 32;

/// Most frame-image bytes one checksummed round stages (a round always
/// takes one piece): a larger verified IO runs as successive rounds, so
/// its staging stays bounded instead of matching the IO.
const STAGING_MAX: u64 = 4 << 20;

/// A mapped region of distributed memory.
///
/// Obtained from [`RStoreClient::alloc`] or [`RStoreClient::map`]. Offsets
/// are region-relative; striping and replication are transparent.
///
/// One IO form, at two levels of convenience: [`read`](Self::read) /
/// [`write`](Self::write) move `Vec<u8>`s through a pooled staging buffer;
/// [`read_into`](Self::read_into) / [`write_from`](Self::write_from) and
/// their `_many` twins move bytes directly between caller-owned [`DmaBuf`]s
/// and the region. Every call resolves when its IO is complete, and all of
/// them recover alike: reads fail over across replicas, writes reach every
/// replica, a broken QP is re-dialed once, a moved extent or a replica that
/// stopped answering re-fetches the descriptor, and a checksummed region
/// verifies (or re-seals) every checksum block touched —
/// [`CK_BLOCK`](crate::crc::CK_BLOCK) bytes and their trailer entry, not
/// the stripe around them. There is no post-now-wait-later form: a caller
/// that wants IO to overlap compute spawns the `_many` future
/// ([`sim::Sim::spawn`]) and joins it when the bytes are needed.
///
/// Every call plans its stripe pieces first and posts them, all at once, by
/// one rule: two or more pieces on a plain region post as one
/// multi-element WR per memory server (per [`MAX_SGE`] pieces);
/// single-piece and checksummed IO post one WR per (stripe, replica) — on
/// a checksummed region that WR's two elements are the covering blocks and
/// their entries, verified once the round has landed. A checksummed round
/// stages its frames in one buffer of at most 4 MiB, so a larger verified
/// IO runs as successive rounds. Both region kinds share one read round
/// with one failover loop and one write round with one recovery round.
#[derive(Clone)]
pub struct Region {
    client: RStoreClient,
    /// The cached descriptor, shared by every clone of this handle: when one
    /// IO path discovers the data moved (live migration, drain) and
    /// [`revalidate`](Self::revalidate)s, all clones see the refresh.
    desc: Rc<RefCell<RegionDesc>>,
    /// Derived from `desc`; refreshed together with it.
    layout: Rc<RefCell<Layout>>,
    /// The region's name never changes across refreshes; cached outside the
    /// cell so `name()` can hand out a plain `&str`.
    name: Rc<str>,
    /// Likewise immutable for the region's lifetime.
    checksums: bool,
    /// Recycled staging/scratch buffers, shared by every clone.
    pool: Rc<IoPool>,
    /// Set while a background descriptor refresh runs (one at a time for
    /// all clones; see [`drain_reads`](Self::drain_reads)).
    refreshing: Rc<Cell<bool>>,
}

impl fmt::Debug for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.desc.borrow();
        f.debug_struct("Region")
            .field("name", &d.name)
            .field("size", &d.size)
            .field("stripes", &d.groups.len())
            .finish()
    }
}

impl Region {
    pub(crate) fn new(client: RStoreClient, desc: RegionDesc) -> Region {
        // Fields initialize in the order written: everything that reads
        // `desc` comes before the field that takes it.
        Region {
            client,
            layout: Rc::new(RefCell::new(Layout::new(&desc))),
            name: Rc::from(desc.name.as_str()),
            checksums: desc.checksums,
            desc: Rc::new(RefCell::new(desc)),
            pool: Rc::default(),
            refreshing: Rc::default(),
        }
    }

    /// Logical size in bytes.
    pub fn size(&self) -> u64 {
        self.desc.borrow().size
    }

    /// The region's name in the master's namespace.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A snapshot of the control-path descriptor as currently cached.
    pub fn desc(&self) -> RegionDesc {
        self.desc.borrow().clone()
    }

    /// The extent serving `replica` of stripe `group`, per the cached
    /// descriptor.
    fn extent(&self, group: usize, replica: usize) -> Extent {
        self.desc.borrow().groups[group].replicas[replica]
    }

    /// Replica count of stripe `group`.
    fn replicas(&self, group: usize) -> usize {
        self.desc.borrow().groups[group].replicas.len()
    }

    /// The owning client.
    pub fn client(&self) -> &RStoreClient {
        &self.client
    }

    /// Starts the ledger of one logical `op`, recording as much as the
    /// simulation's recorder says ([`sim::Recorder::enable`]): with
    /// recording off — one `Cell` read — the free disabled ledger.
    pub(crate) fn op_ledger(&self, op: OpKind) -> OpLedger {
        let s = &self.client.shared;
        if matches!(s.rec.level(), Level::Off) {
            return OpLedger::disabled();
        }
        let op = if self.checksums { op.checksummed() } else { op };
        OpLedger::start(&s.rec, s.stats.op(op), s.sim.now())
    }

    /// Finishes `ledger` result-aware: a structured error (corruption,
    /// timeout, failover exhaustion, capacity) is recorded with the op,
    /// which — when spans are recorded — dumps a triage bundle.
    pub(crate) fn finish_ledger_res<T>(&self, ledger: &OpLedger, result: &Result<T>) {
        let reason = result
            .as_ref()
            .err()
            .and_then(crate::error::forensic_reason);
        ledger.finish(self.client.shared.sim.now(), reason);
    }

    /// Runs `io` on a staging buffer of exactly `len` bytes: one of the
    /// pool's, or a fresh one, which goes back to the pool (or is freed
    /// when the pool is full).
    pub(crate) async fn with_staging<T, Fut>(
        &self,
        len: u64,
        io: impl FnOnce(DmaBuf) -> Fut,
    ) -> Result<T>
    where
        Fut: Future<Output = Result<T>>,
    {
        let (dev, size) = (&self.client.shared.dev, len.max(1));
        let pooled = self
            .pool
            .staging
            .borrow()
            .iter()
            .rposition(|b| b.len == size);
        let staging = match pooled {
            Some(i) => self.pool.staging.borrow_mut().swap_remove(i),
            None => dev.alloc(size)?,
        };
        let result = io(staging.slice(0, len)).await;
        let mut pool = self.pool.staging.borrow_mut();
        if pool.len() < POOL_CAP {
            pool.push(staging);
        } else {
            let _ = dev.free(staging);
        }
        result
    }

    /// Runs `round`; on the stale-placement signal (every replica some piece
    /// touched answered `RemoteAccess`: the data was moved away, is sealed
    /// for a move in flight, or sits on a server fenced for want of a lease)
    /// re-fetches the descriptor and runs `round` again, up a bounded
    /// backoff ladder. A changed descriptor is installed for every clone of
    /// this handle. An unchanged one means a seal or a fence still holds:
    /// the round is retried after each backoff step, not once at the end,
    /// because a fence that ends leaves the descriptor as it was — only the
    /// IO itself can tell (a bounced round costs microseconds). Region
    /// writes are idempotent, so re-writing replicas that already landed is
    /// safe.
    ///
    /// A failed lookup (e.g. `NotFound` once the region has been freed)
    /// keeps the original IO error: layered protocols — the KV generation
    /// machinery — key their own recovery on `RemoteAccess`, not on
    /// control-path errors.
    pub(crate) async fn with_revalidate<T, Fut>(
        &self,
        ledger: &OpLedger,
        round: impl Fn() -> Fut,
    ) -> Result<T>
    where
        Fut: Future<Output = Result<T>>,
    {
        let s = &self.client.shared;
        let mut result = round().await;
        let mut backoff = Duration::from_millis(1);
        for attempt in 0u64..7 {
            if !matches!(result, Err(RStoreError::Io(CqStatus::RemoteAccess))) {
                break;
            }
            if attempt == 0 {
                s.stats.desc_stale.incr();
            }
            let reval = ledger.begin(Phase::Reval, s.sim.now());
            let moved = self.refresh(attempt).await;
            if let Ok(false) = moved {
                let seal = ledger.begin(Phase::Seal, s.sim.now());
                s.sim.sleep(backoff).await;
                ledger.end(seal, s.sim.now());
                backoff = (backoff * 2).min(Duration::from_millis(50));
            }
            ledger.end(reval, s.sim.now());
            if moved.is_err() {
                break;
            }
            ledger.retry();
            result = round().await;
        }
        result
    }

    /// Re-fetches the descriptor and, if it changed, installs it for every
    /// clone of this handle. Returns whether it changed.
    async fn refresh(&self, attempt: u64) -> Result<bool> {
        let fresh = self.client.lookup(self.name()).await?;
        if fresh == *self.desc.borrow() {
            return Ok(false);
        }
        let s = &self.client.shared;
        s.stats.desc_refresh.fire(s.dev.node().0 as u64, attempt);
        *self.layout.borrow_mut() = Layout::new(&fresh);
        *self.desc.borrow_mut() = fresh;
        Ok(true)
    }

    // --- public IO API ----------------------------------------------------------

    /// Reads `len` bytes at `offset` into a fresh `Vec`, with replica
    /// failover: if the primary read of a stripe fails, the next replica is
    /// tried. On a checksummed region every returned byte lies under a
    /// verified block CRC: the read fetches the checksum blocks covering the
    /// range with their entries — a 4 KiB read moves 4 KiB and 8 bytes.
    ///
    /// # Errors
    ///
    /// [`RStoreError::OutOfRange`], [`RStoreError::Io`] when all replicas
    /// of some stripe fail, or [`RStoreError::CorruptionDetected`] when a
    /// touched block verifies on none.
    pub async fn read(&self, offset: u64, len: u64) -> Result<Vec<u8>> {
        let ledger = self.op_ledger(OpKind::Read);
        let result = self.read_l(offset, len, &ledger).await;
        self.finish_ledger_res(&ledger, &result);
        result
    }

    /// [`read`](Self::read) charging an existing ledger instead of opening
    /// a fresh one — for callers (the KV layer) that own the logical op.
    pub(crate) async fn read_l(&self, offset: u64, len: u64, ledger: &OpLedger) -> Result<Vec<u8>> {
        self.with_staging(len, |staging| async move {
            self.read_into_l(offset, staging, ledger).await?;
            Ok(self.client.shared.dev.read_mem(staging.addr, len)?)
        })
        .await
    }

    /// Writes `data` at `offset` (to **all** replicas). On a checksummed
    /// region a range that starts and ends on checksum-block boundaries is
    /// sealed locally and written with no read at all; otherwise only the
    /// (at most two per stripe) blocks it covers in part are
    /// read-modify-written, through the verified read.
    ///
    /// # Errors
    ///
    /// [`RStoreError::OutOfRange`] or [`RStoreError::Io`]; on a checksummed
    /// region also what [`read`](Self::read) returns, for a boundary block.
    pub async fn write(&self, offset: u64, data: &[u8]) -> Result<()> {
        let ledger = self.op_ledger(OpKind::Write);
        let result = self.write_l(offset, data, &ledger).await;
        self.finish_ledger_res(&ledger, &result);
        result
    }

    /// [`write`](Self::write) charging an existing ledger. An image that
    /// fits the device's [`inline_max`](rdma::RdmaConfig::inline_max) (0,
    /// the default, fits nothing) and one stripe of a plain region posts as
    /// *inline* WRITEs — the payload rides in the WQE, so no staging buffer
    /// is filled and the doorbell is cheaper; anything else is staged.
    pub(crate) async fn write_l(&self, offset: u64, data: &[u8], ledger: &OpLedger) -> Result<()> {
        let s = &self.client.shared;
        let dev = &s.dev;
        let len = data.len() as u64;
        if !self.checksums
            && len <= dev.config().inline_max
            && self.layout.borrow().piece_at(offset, len).is_ok()
        {
            // The buffer only carries the length; inline WRs never read it.
            let src = DmaBuf { addr: 0, len };
            self.write_src(&[(offset, src)], Some(data), ledger).await?;
            s.stats.inline_writes.incr();
            s.stats.inline_bytes.add(len);
            return Ok(());
        }
        self.with_staging(len, |staging| async move {
            dev.write_mem(staging.addr, data)?;
            self.write_src(&[(offset, staging)], None, ledger).await
        })
        .await
    }

    /// Reads `dst.len` bytes at `offset` into local buffer `dst`, with
    /// replica failover, and waits for completion.
    ///
    /// # Errors
    ///
    /// [`RStoreError::OutOfRange`] or [`RStoreError::Io`].
    pub async fn read_into(&self, offset: u64, dst: DmaBuf) -> Result<()> {
        let ledger = self.op_ledger(OpKind::Read);
        let result = self.read_into_l(offset, dst, &ledger).await;
        self.finish_ledger_res(&ledger, &result);
        result
    }

    /// [`read_into`](Self::read_into) charging an existing ledger: a
    /// [`read_into_many_l`](Self::read_into_many_l) of one pair.
    pub(crate) async fn read_into_l(
        &self,
        offset: u64,
        dst: DmaBuf,
        ledger: &OpLedger,
    ) -> Result<()> {
        self.read_into_many_l(&[(offset, dst)], ledger).await
    }

    /// Reads many `(offset, dst)` pairs as one posting round: every pair is
    /// planned before anything posts, and the whole plan shares one round —
    /// on a plain region one WR per memory server, on a checksummed region
    /// one per stripe piece (see the [`Region`] docs for the rule).
    /// Failover is per piece with exactly [`read_into`](Self::read_into)'s
    /// reconnect-then-advance semantics.
    ///
    /// # Errors
    ///
    /// [`RStoreError::OutOfRange`] (checked for every pair before anything
    /// posts) or [`RStoreError::Io`] when all replicas of some stripe fail.
    pub async fn read_into_many(&self, ios: &[(u64, DmaBuf)]) -> Result<()> {
        let ledger = self.op_ledger(OpKind::ReadMany);
        ledger.set_units(ios.len() as u64);
        let result = self.read_into_many_l(ios, &ledger).await;
        self.finish_ledger_res(&ledger, &result);
        result
    }

    /// [`read_into_many`](Self::read_into_many) charging an existing ledger.
    pub(crate) async fn read_into_many_l(
        &self,
        ios: &[(u64, DmaBuf)],
        ledger: &OpLedger,
    ) -> Result<()> {
        self.with_revalidate(ledger, || self.read_round(ios, ledger))
            .await
    }

    /// Writes local buffer `src` at `offset` (to **all** replicas) and waits
    /// for every acknowledgement: a
    /// [`write_from_many`](Self::write_from_many) of one pair.
    ///
    /// # Errors
    ///
    /// [`RStoreError::OutOfRange`] or [`RStoreError::Io`].
    pub async fn write_from(&self, offset: u64, src: DmaBuf) -> Result<()> {
        let ledger = self.op_ledger(OpKind::Write);
        let result = self.write_src(&[(offset, src)], None, &ledger).await;
        self.finish_ledger_res(&ledger, &result);
        result
    }

    /// Writes many `(offset, src)` pairs as one posting round, the twin of
    /// [`read_into_many`](Self::read_into_many): every pair is planned
    /// before anything posts and the whole plan — every piece to every
    /// replica — shares one round, grouped by the same rule. A transfer
    /// that fails gets [`write_from`](Self::write_from)'s one re-dial and
    /// repost. On a checksummed region every touched block is re-sealed
    /// as by [`write`](Self::write), and a pair that shares a checksum
    /// block with an earlier one is applied in a later round. Pairs that
    /// overlap land in no defined order.
    ///
    /// # Errors
    ///
    /// [`RStoreError::OutOfRange`] (checked for every pair before anything
    /// posts) or [`RStoreError::Io`] when some replica stays unreachable.
    pub async fn write_from_many(&self, ios: &[(u64, DmaBuf)]) -> Result<()> {
        let ledger = self.op_ledger(OpKind::WriteMany);
        ledger.set_units(ios.len() as u64);
        let result = self.write_src(ios, None, &ledger).await;
        self.finish_ledger_res(&ledger, &result);
        result
    }

    /// One-sided compare-and-swap on the 8-byte word at `offset` of the
    /// primary replica, on the client's data QP like any READ or WRITE; the
    /// prior value lands in `landing` (8 bytes) and is returned, so the swap
    /// won if it equals `expect`. With `read_back`, a READ of
    /// `read_back.len` bytes at `offset` is posted right behind the CAS on
    /// the same QP, in the same round: the responder runs it after the swap,
    /// so it lands what the word guards under the swapped-in value.
    /// Re-dialed, never re-posted: an errored QP is re-dialed before the
    /// post (a no-op on a healthy QP), but there is no repost, failover or
    /// descriptor revalidation, because a CAS whose completion was lost may
    /// have executed and must not be blindly repeated — every failure, the
    /// stale-placement `RemoteAccess` included, goes to the caller (the KV
    /// layer's unlock and generation machinery), once both WRs completed.
    pub(crate) async fn cas_word_l(
        &self,
        offset: u64,
        expect: u64,
        swap: u64,
        landing: DmaBuf,
        read_back: Option<DmaBuf>,
        ledger: &OpLedger,
    ) -> Result<u64> {
        let xfer = |buf: DmaBuf| {
            let piece = self.layout.borrow().piece_at(offset, buf.len);
            piece.map(|piece| Xfer::new(piece, buf, 0))
        };
        let (word, image) = (xfer(landing)?, read_back.map(xfer).transpose()?);
        let node = self.extent(word.piece.group, 0).node;
        self.client.shared.qps.dial(node, true).await?;
        let rx = self.post(Dir::Cas { expect, swap }, &[word], None, ledger)?;
        let image = image.map(|x| self.post(Dir::Read, &[x], None, ledger));
        ledger.rtt();
        let status = rx.await.unwrap_or(CqStatus::Flushed);
        let image = match image {
            Some(Ok(rx)) => rx.await.unwrap_or(CqStatus::Flushed),
            Some(Err(_)) => CqStatus::Timeout,
            None => CqStatus::Success,
        };
        match (status, image) {
            (CqStatus::Success, CqStatus::Success) => {
                Ok(self.client.shared.dev.read_u64(landing.addr)?)
            }
            (CqStatus::Success, status) | (status, _) => Err(RStoreError::Io(status)),
        }
    }

    // --- one round per direction --------------------------------------------------

    /// One read round: plan every pair, then [`read_plan`](Self::read_plan).
    async fn read_round(&self, ios: &[(u64, DmaBuf)], ledger: &OpLedger) -> Result<()> {
        let s = &self.client.shared;
        let _span = self.round_span(ios, &s.stats.read, &s.stats.read_many);
        self.read_plan(self.plan(ios, false)?, ledger).await
    }

    /// Reads a plan: posts it as one round, then runs the replica-failover
    /// loop over whatever did not land. On a checksummed region every piece
    /// moves its frame into an image of the round's staging buffer, and is
    /// verified and copied out once it has landed.
    async fn read_plan(&self, plan: Vec<Xfer>, ledger: &OpLedger) -> Result<()> {
        if !self.checksums {
            let failed = self.post_round(Dir::Read, plan, None, ledger).await?;
            return self.drain_reads(failed, ledger).await;
        }
        self.ck_rounds(plan, false, |round| async move {
            let failed = self.post_round(Dir::Read, round, None, ledger).await?;
            self.drain_reads(failed, ledger).await
        })
        .await
    }

    /// Runs checksummed `plan` as successive rounds (see
    /// [`frame_images`](Self::frame_images)), each `run` on a copy of its
    /// transfers whose frame images lie in one staging buffer. An empty plan
    /// runs none.
    async fn ck_rounds<Fut>(
        &self,
        mut plan: Vec<Xfer>,
        racing: bool,
        run: impl Fn(Vec<Xfer>) -> Fut,
    ) -> Result<()>
    where
        Fut: Future<Output = Result<()>>,
    {
        let (mut rest, mut result) = (&mut plan[..], Ok(()));
        while !rest.is_empty() && result.is_ok() {
            let (n, len) = self.frame_images(rest, racing, None);
            let (round, next) = rest.split_at_mut(n);
            result = self
                .with_staging(len, |staging| {
                    self.frame_images(round, racing, Some(staging));
                    let mut plan = IoPool::take(&self.pool.plans);
                    plan.extend_from_slice(round);
                    run(plan)
                })
                .await;
            rest = next;
        }
        IoPool::put(&self.pool.plans, plan);
        result
    }

    /// Writes `ios` (or, for an inline write, the host bytes `inline` in
    /// place of the one pair's buffer): one write round under
    /// stale-descriptor revalidation.
    async fn write_src(
        &self,
        ios: &[(u64, DmaBuf)],
        inline: Option<&[u8]>,
        ledger: &OpLedger,
    ) -> Result<()> {
        self.with_revalidate(ledger, || self.write_round(ios, inline, ledger))
            .await
    }

    /// One write round: plan every (piece, replica) of every pair, post,
    /// then run the recovery round over whatever failed. A checksummed plan
    /// runs as [`write_ck`](Self::write_ck) rounds.
    async fn write_round(
        &self,
        ios: &[(u64, DmaBuf)],
        inline: Option<&[u8]>,
        ledger: &OpLedger,
    ) -> Result<()> {
        let s = &self.client.shared;
        let _span = self.round_span(ios, &s.stats.write, &s.stats.write_many);
        let plan = self.plan(ios, true)?;
        if !self.checksums {
            return self.write_xfers(plan, inline, ledger).await;
        }
        let racing = ios.len() > 1;
        self.ck_rounds(plan, racing, |round| self.write_ck(round, ledger))
            .await
    }

    /// One checksummed write round over framed pieces that share no block:
    /// every boundary block they cover in part is fetched in one verified
    /// read round into their images, every image is sealed on the host, and
    /// every frame goes to every replica through
    /// [`write_xfers`](Self::write_xfers). Pieces that start and end on
    /// block boundaries (or at a stripe's end) read nothing.
    async fn write_ck(&self, round: Vec<Xfer>, ledger: &OpLedger) -> Result<()> {
        let mut fetch = IoPool::take(&self.pool.plans);
        for x in round.iter().filter(|x| x.replica == 0) {
            let ([data, _], image) = (self.frame(&x.piece), x.image.expect("framed"));
            let partial = x.piece.ck_partial(&data).into_iter().filter(|b| b.len > 0);
            fetch.extend(partial.map(|block| Xfer::new(block, image, 0)));
        }
        self.read_plan(fetch, ledger).await?;
        for x in round.iter().filter(|x| x.replica == 0) {
            self.seal(x)?;
        }
        self.write_xfers(round, None, ledger).await
    }

    /// The trace span of one round over `ios`: `one`'s (arg = bytes) for a
    /// single pair, `many`'s (arg = pairs) otherwise.
    fn round_span<'e>(&self, ios: &[(u64, DmaBuf)], one: &'e Event, many: &'e Event) -> Span<'e> {
        let (event, arg) = match ios {
            [(_, buf)] => (one, buf.len),
            _ => (many, ios.len() as u64),
        };
        event.span(self.client.shared.dev.node().0 as u64, arg)
    }

    /// Plans `ios` into per-stripe transfers, in logical order: against the
    /// primary replica only, or (`all_replicas`, what a write needs)
    /// against every replica of every touched stripe. An out-of-range pair
    /// fails the whole plan, so nothing has posted yet.
    fn plan(&self, ios: &[(u64, DmaBuf)], all_replicas: bool) -> Result<Vec<Xfer>> {
        let layout = self.layout.borrow();
        let mut plan = IoPool::take(&self.pool.plans);
        for &(offset, buf) in ios {
            for piece in layout.piece_iter(offset, buf.len)? {
                let replicas = (0..self.replicas(piece.group)).filter(|&r| all_replicas || r == 0);
                plan.extend(replicas.map(|replica| Xfer::new(piece, buf, replica)));
            }
        }
        Ok(plan)
    }

    /// The frame ([`Piece::ck_frame`]) of `piece` in its stripe.
    fn frame(&self, piece: &Piece) -> [Piece; 2] {
        piece.ck_frame(self.desc.borrow().groups[piece.group].len())
    }

    /// Lays the frame images of the first round of checksummed `plan` out
    /// back to back in `staging` — one per piece, which its replicas share —
    /// and returns the round's transfer count and image bytes (with no
    /// `staging`, only those). A round ends before the piece whose image
    /// would take it past [`STAGING_MAX`] and, with `racing` (a write of
    /// several pairs), before a piece that shares a checksum block with an
    /// earlier piece of the round — another pair's, whose bytes its
    /// read-modify-write must see.
    fn frame_images(
        &self,
        plan: &mut [Xfer],
        racing: bool,
        staging: Option<DmaBuf>,
    ) -> (usize, u64) {
        let mut end = 0;
        for i in 0..plan.len() {
            let x = plan[i];
            let [data, entries] = self.frame(&x.piece);
            let len = data.len + entries.len;
            if x.replica == 0 && i > 0 {
                let shares = || plan[..i].iter().any(|y| y.piece.shares_block(&x.piece));
                if end + len > STAGING_MAX || racing && shares() {
                    return (i, end);
                }
            }
            end += if x.replica == 0 { len } else { 0 };
            plan[i].image = staging.map(|buf| buf.slice(end - len, len));
        }
        (plan.len(), end)
    }

    /// Seals the frame image of checksummed write `x`: its new bytes over
    /// whatever boundary blocks were fetched into the image, then every
    /// block's entry — bouncing through the pooled host scratch.
    fn seal(&self, x: &Xfer) -> Result<()> {
        let dev = &self.client.shared.dev;
        let ([data, _], image) = (self.frame(&x.piece), x.image.expect("framed"));
        let mut scratch = self.pool.scratch.borrow_mut();
        scratch.resize(image.len as usize, 0);
        if x.piece.ck_partial(&data).iter().any(|b| b.len > 0) {
            dev.read_mem_into(image.addr, &mut scratch[..])?;
        }
        let (blocks, trailer) = scratch.split_at_mut(data.len as usize);
        let lo = (x.piece.offset_in_stripe - data.offset_in_stripe) as usize;
        let new = &mut blocks[lo..lo + x.piece.len as usize];
        dev.read_mem_into(x.buf.addr + x.piece.buf_offset, new)?;
        seal_blocks(blocks, trailer);
        Ok(dev.write_mem(image.addr, &scratch)?)
    }

    /// Posts a plan without waiting: the posted WRs (each with the transfers
    /// it covers) go on `waits`, the transfers whose WR could not be posted
    /// are returned.
    ///
    /// The one grouping rule lives here. A plan of two or more pieces on a
    /// plain region is ordered by memory server and every server's
    /// transfers post as ONE multi-element WR — one doorbell, one CQE — per
    /// [`MAX_SGE`] of them. A single-piece plan (replicas of one stripe
    /// never share a server, so there is nothing to group) and checksummed
    /// IO post one WR per (stripe, replica), in plan order: grouping a
    /// checksummed round into one WR per server measured slower (DESIGN.md,
    /// "Inline and scatter-gather WRs").
    fn post_plan(
        &self,
        dir: Dir,
        plan: &mut [Xfer],
        inline: Option<&[u8]>,
        ledger: &OpLedger,
        waits: &mut Vec<Posted>,
    ) -> Vec<Failed> {
        let node = |x: &Xfer| self.extent(x.piece.group, x.replica).node;
        let grouped = !self.checksums && plan.iter().filter(|x| x.replica == 0).count() >= 2;
        if grouped {
            plan.sort_by_key(node);
        }
        let mut failed = Vec::new();
        let mut end = 0;
        for run in plan.chunk_by(|a, b| grouped && node(a) == node(b)) {
            for xfers in run.chunks(MAX_SGE) {
                end += xfers.len();
                match self.post(dir, xfers, inline, ledger) {
                    Ok(rx) => waits.push((end - xfers.len()..end, rx)),
                    // Nothing posted; the failover/recovery pass grants the
                    // usual re-dial retry.
                    Err(_) => failed.extend(xfers.iter().map(|&x| (x, CqStatus::Timeout))),
                }
            }
        }
        failed
    }

    /// Posts a plan and awaits the round. Returns the transfers that did not
    /// land; the plan and the posted-WR list go back to the pool before any
    /// failover or recovery round runs.
    async fn post_round(
        &self,
        dir: Dir,
        mut plan: Vec<Xfer>,
        inline: Option<&[u8]>,
        ledger: &OpLedger,
    ) -> Result<Vec<Failed>> {
        let mut waits = IoPool::take(&self.pool.waits);
        let mut failed = self.post_plan(dir, &mut plan, inline, ledger, &mut waits);
        let landed = self
            .await_round(dir, &plan, &mut waits, &mut failed, ledger)
            .await;
        IoPool::put(&self.pool.waits, waits);
        IoPool::put(&self.pool.plans, plan);
        landed.map(|()| failed)
    }

    /// Awaits the posted WRs of `plan` — one round trip for the logical op,
    /// since they all fly in parallel — and adds every transfer that did not
    /// [land](Self::landed) to `failed`, with its WR's status (a
    /// multi-element WR's CQE folds the first failing element's status over
    /// all of them). An error copying verified bytes out is returned only
    /// once every WR has completed, so no staging image is left in flight.
    async fn await_round(
        &self,
        dir: Dir,
        plan: &[Xfer],
        waits: &mut Vec<Posted>,
        failed: &mut Vec<Failed>,
        ledger: &OpLedger,
    ) -> Result<()> {
        if !waits.is_empty() {
            ledger.rtt();
        }
        let mut copied = Ok(());
        for (xfers, rx) in waits.drain(..) {
            let status = rx.await.unwrap_or(CqStatus::Flushed);
            for &x in &plan[xfers] {
                match self.landed(dir, &x, status) {
                    Ok(true) => {}
                    Ok(false) => failed.push((x, status)),
                    Err(e) => copied = Err(e),
                }
            }
        }
        copied
    }

    /// Whether transfer `x`, whose WR completed with `status`, holds good
    /// bytes. A checksummed read verifies its frame image block by block
    /// and, when every block matches its entry, copies the wanted bytes into
    /// `x.buf`; a frame that landed but did not verify has not.
    fn landed(&self, dir: Dir, x: &Xfer, status: CqStatus) -> Result<bool> {
        let (Dir::Read, Some(image), CqStatus::Success) = (dir, x.image, status) else {
            return Ok(status == CqStatus::Success);
        };
        let dev = &self.client.shared.dev;
        let [data, _] = self.frame(&x.piece);
        let mut scratch = self.pool.scratch.borrow_mut();
        scratch.resize(image.len as usize, 0);
        dev.read_mem_into(image.addr, &mut scratch[..])?;
        let (blocks, trailer) = scratch.split_at(data.len as usize);
        if verify_blocks(blocks, trailer).is_some() {
            return Ok(false);
        }
        let lo = (x.piece.offset_in_stripe - data.offset_in_stripe) as usize;
        let want = &blocks[lo..lo + x.piece.len as usize];
        dev.write_mem(x.buf.addr + x.piece.buf_offset, want)?;
        Ok(true)
    }

    /// The replica-failover loop behind every read, plain or checksummed:
    /// runs until every failed piece has landed or some piece exhausts its
    /// replicas, and returns only once every WR it posted has completed.
    ///
    /// A replica whose WR failed is first granted one reconnect retry — its
    /// QP may be broken while the server is fine — and only advances to the
    /// next replica once that retry fails or the re-dial is refused (backoff
    /// gate, dead node). A checksummed frame that landed but did not verify
    /// advances at once — the replica is bad, not its QP — and is reported
    /// to the master in the background (the data path must not block on the
    /// control path) so the repair task can re-replicate it. A piece that
    /// exhausts its replicas fails the read with
    /// [`exhausted`](Self::exhausted)'s error.
    ///
    /// A read that advanced past a replica which did not answer (`Timeout`:
    /// its server is down or cut off) re-fetches the descriptor in the
    /// background, one refresh at a time per handle. Once the master has
    /// replaced that server, every clone's IO goes to the replacement
    /// instead of timing out against the dead one — a write, which must
    /// reach every replica, would otherwise keep failing until the caller
    /// re-maps. A replica that refused the rkey needs no such refresh: the
    /// next write to it revalidates ([`with_revalidate`](Self::with_revalidate)).
    async fn drain_reads(&self, mut failed: Vec<Failed>, ledger: &OpLedger) -> Result<()> {
        if failed.is_empty() {
            return Ok(());
        }
        let s = &self.client.shared;
        // One retry span covers the whole recovery tail. Individual WR waits
        // and failover marks nest inside it, so the span's self-time is
        // exactly the recovery overhead (redials, reposts) not explained by
        // wire.
        let retry_span = ledger.begin(Phase::Retry, s.sim.now());
        let mut plan = IoPool::take(&self.pool.plans);
        let mut waits = IoPool::take(&self.pool.waits);
        let mut unanswered = false;
        let result = loop {
            let mut exhausted = Ok(());
            for (mut x, status) in std::mem::take(&mut failed) {
                let node = self.extent(x.piece.group, x.replica).node;
                x.refused |= status == CqStatus::RemoteAccess;
                // Landed, did not verify: a bad replica, not a bad QP.
                let corrupt = status == CqStatus::Success;
                let retry = !corrupt && !x.redialed;
                if corrupt {
                    ledger.verify_failure();
                    s.stats.read_corrupt.fire(node as u64, x.piece.group as u64);
                    let (client, name) = (self.client.clone(), self.name().to_owned());
                    let (g, r) = (x.piece.group as u32, x.replica as u32);
                    s.sim.spawn(async move {
                        let _ = client.report_corruption(&name, g, r, node).await;
                    });
                    x.corrupt = Some(node);
                }
                if retry {
                    x.redialed = true;
                    if s.qps.dial(node, true).await.is_err() {
                        // The reconnect retry is spent; advance next pass.
                        failed.push((x, status));
                        continue;
                    }
                } else {
                    unanswered |= status == CqStatus::Timeout;
                    x.replica += 1;
                    x.redialed = false;
                    if x.replica >= self.replicas(x.piece.group) {
                        exhausted = Err(self.exhausted(&x, status));
                        break;
                    }
                    ledger.failover(s.sim.now());
                }
                match self.post(Dir::Read, &[x], None, ledger) {
                    Ok(rx) => {
                        if retry {
                            ledger.retry();
                        }
                        waits.push((plan.len()..plan.len() + 1, rx));
                        plan.push(x);
                    }
                    // Unpostable: next pass re-dials or advances — as a failed
                    // WR (`post_plan`'s `Timeout`), never as the corrupt
                    // replica it left.
                    Err(_) => failed.push((x, if corrupt { CqStatus::Timeout } else { status })),
                }
            }
            // Each pass that awaits at least one posted completion is one
            // more round trip for the logical op.
            let landed = self
                .await_round(Dir::Read, &plan, &mut waits, &mut failed, ledger)
                .await;
            plan.clear();
            if exhausted.is_err() || landed.is_err() || failed.is_empty() {
                break exhausted.and(landed);
            }
        };
        IoPool::put(&self.pool.waits, waits);
        IoPool::put(&self.pool.plans, plan);
        ledger.end(retry_span, s.sim.now());
        if unanswered && !self.refreshing.replace(true) {
            let region = self.clone();
            s.sim.spawn(async move {
                let _ = region.refresh(0).await;
                region.refreshing.set(false);
            });
        }
        result
    }

    /// The error of a read piece that exhausted its replicas, the last on
    /// `status`. A checksummed piece surfaces `RemoteAccess` if any replica
    /// refused the rkey — the stale-descriptor signal
    /// [`with_revalidate`](Self::with_revalidate) retries on, never a
    /// corruption misdiagnosis — else `CorruptionDetected` if any replica's
    /// frame did not verify. Otherwise the read fails with the status that
    /// sent it here, so the caller sees *why* (e.g. `RemoteAccess` when
    /// every replica rejected the rkey — the signal a region was freed under
    /// the reader) instead of a generic timeout.
    fn exhausted(&self, x: &Xfer, status: CqStatus) -> RStoreError {
        match x.corrupt {
            _ if x.refused && self.checksums => RStoreError::Io(CqStatus::RemoteAccess),
            Some(node) => RStoreError::CorruptionDetected {
                node,
                region: self.name().to_owned(),
                stripe: x.piece.group as u64,
            },
            None => RStoreError::Io(status),
        }
    }

    /// Posts a planned write round, then the recovery round: a write must
    /// reach every replica, so each failed transfer's QP is re-dialed once
    /// (sequentially — control path, and rare) and what failed is posted
    /// again as one round, so recovering N replicas costs one round trip,
    /// not N. A replica that stays unreachable — its re-dial refused, which
    /// leaves its repost unpostable, or its repost failed — fails the IO
    /// with the first such status, and only once every repost has
    /// completed: no WRITE of a failed IO lands after it returns.
    async fn write_xfers(
        &self,
        plan: Vec<Xfer>,
        inline: Option<&[u8]>,
        ledger: &OpLedger,
    ) -> Result<()> {
        let failed = self.post_round(Dir::Write, plan, inline, ledger).await?;
        if failed.is_empty() {
            return Ok(());
        }
        let s = &self.client.shared;
        let span = ledger.begin(Phase::Retry, s.sim.now());
        let mut retry = IoPool::take(&self.pool.plans);
        for (x, _) in failed {
            let node = self.extent(x.piece.group, x.replica).node;
            let _ = s.qps.dial(node, true).await;
            ledger.retry();
            retry.push(x);
        }
        let lost = self.post_round(Dir::Write, retry, inline, ledger).await;
        ledger.end(span, s.sim.now());
        match lost?.first() {
            Some(&(_, status)) => Err(RStoreError::Io(status)),
            None => Ok(()),
        }
    }

    /// The elements of `x`'s WR: its piece of `buf`; or, checksummed, its
    /// frame against its image — two ranges of the extent, or one where
    /// they meet, which is a whole stripe (so a one-block stripe moves
    /// exactly the bytes the single-CRC format did).
    fn elements(&self, x: &Xfer) -> ([(Piece, DmaBuf); 2], usize) {
        let Some(image) = x.image else {
            return ([(x.piece, x.buf); 2], 1);
        };
        let [data, entries] = self.frame(&x.piece);
        data.join(&entries)
            .map_or(([(data, image), (entries, image)], 2), |whole| {
                ([(whole, image); 2], 1)
            })
    }

    /// Posts one WR covering the [`elements`](Self::elements) of `xfers` —
    /// the caller guarantees they all resolve to the same memory server —
    /// through the client's [`DataQps`](crate::client::DataQps) and returns
    /// its completion receiver: one wr_id, one doorbell. With `inline`, a
    /// lone WRITE carries those host bytes in the WQE instead of reading its
    /// buffer. A [`Dir::Cas`] is one atomic on its one transfer's word.
    fn post(
        &self,
        dir: Dir,
        xfers: &[Xfer],
        inline: Option<&[u8]>,
        ledger: &OpLedger,
    ) -> Result<oneshot::Receiver<CqStatus>> {
        let s = &self.client.shared;
        let node = self.extent(xfers[0].piece.group, xfers[0].replica).node;
        let sge = |x: &Xfer, (piece, buf): (Piece, DmaBuf)| {
            let extent = self.extent(x.piece.group, x.replica);
            debug_assert_eq!(extent.node, node, "WR spans servers");
            Sge {
                local: buf.slice(piece.buf_offset, piece.len),
                remote: RemoteAddr {
                    addr: extent.addr + piece.offset_in_stripe,
                    rkey: RKey(extent.rkey),
                },
            }
        };
        let mut elems = [sge(&xfers[0], self.elements(&xfers[0]).0[0]); MAX_SGE];
        let (mut n, mut total) = (0, 0);
        for x in xfers {
            let (parts, k) = self.elements(x);
            for &part in &parts[..k] {
                elems[n] = sge(x, part);
                total += part.0.len;
                n += 1;
            }
        }
        let op = match (dir, inline) {
            (Dir::Read, _) => WrOp::Read(SgeList::new(&elems[..n])?),
            (Dir::Write, None) => WrOp::Write(SgeList::new(&elems[..n])?),
            (Dir::Write, Some(bytes)) => WrOp::WriteInline {
                bytes,
                remote: elems[0].remote,
            },
            (Dir::Cas { expect, swap }, _) => WrOp::Atomic {
                result: elems[0].local,
                remote: elems[0].remote,
                op: AtomicOp::CompareSwap { expect, swap },
            },
        };
        let wr = Wr {
            wr_id: 0,
            op,
            signaled: true,
        };
        let rx = {
            let _scope = s.dev.ledger_scope(ledger);
            s.qps.post(node, wr, total)?
        };
        match dir {
            Dir::Read => s.stats.read_bytes.add(total),
            Dir::Write => s.stats.write_bytes.add(total),
            Dir::Cas { .. } => {}
        }
        Ok(rx)
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use fabric::{FaultPlan, NodeId};

    use crate::cluster::{Cluster, ClusterConfig};
    use crate::error::RStoreError;
    use crate::proto::AllocOptions;

    #[test]
    fn a_write_failing_on_one_of_two_failed_replicas_leaves_no_repost_in_flight() {
        // One 64 KiB stripe on two servers: primary on X, secondary on Y.
        // The final write finds both QPs errored: X re-dials and its repost
        // is posted, Y's re-dial is refused inside its backoff. The IO fails,
        // and it must not return while X's repost is still in flight — a
        // caller reacting to the error (the KV unlock) would be overtaken by
        // it. (The recovery round used to return at the first refused
        // re-dial, leaving that WRITE and its staging image in flight.)
        let cluster = Cluster::boot(ClusterConfig {
            clients: 1,
            ..ClusterConfig::fast_detection(2)
        })
        .expect("boot");
        let sim = cluster.sim.clone();
        let fabric = cluster.fabric.clone();
        sim.block_on(async move {
            let c = cluster.client(0).await.unwrap();
            let stripe = 64 * 1024u64;
            let opts = AllocOptions {
                stripe_size: stripe,
                replicas: 2,
                ..AllocOptions::default()
            };
            let region = c.alloc("reposted", stripe, opts).await.unwrap();
            let replicas = region.desc().groups[0].replicas.clone();
            let (x, y) = (NodeId(replicas[0].node), NodeId(replicas[1].node));
            let fill = |b: u8| vec![b; stripe as usize];
            region.write(0, &fill(1)).await.unwrap();

            // Y stays down. Eight failed re-dials of it, each past the last
            // one's backoff, push its backoff to the 100 ms cap.
            let sim = &c.shared.sim;
            fabric.set_node_up(y, false);
            for _ in 0..8 {
                sim.sleep(Duration::from_millis(110)).await;
                assert!(region.write(0, &fill(2)).await.is_err());
            }
            // X drops off twice, well inside its lease: its WRITE is lost and
            // times out (~28 ms), so its QP errors, and its re-dial — if one
            // is tried — goes unanswered and arms a 1 ms backoff.
            FaultPlan::new(1)
                .flap(Duration::ZERO, x, Duration::from_millis(1))
                .flap(Duration::from_millis(20), x, Duration::from_millis(15))
                .install(&fabric);
            assert!(region.write(0, &fill(3)).await.is_err());
            // Past X's flap and backoff; still inside Y's.
            sim.sleep(Duration::from_millis(10)).await;

            let redials = || c.shared.dev.metrics().counter("rstore.redial.ok");
            let before = redials();
            let err = region.write(0, &fill(4)).await.unwrap_err();
            assert!(matches!(err, RStoreError::Io(_)), "got {err:?}");
            assert_eq!(redials(), before + 1, "X re-dialed");
            assert!(
                c.shared.qps.pending.borrow().is_empty(),
                "the failed write returned with a WR still in flight"
            );
            // X's repost landed before the error did.
            let fresh = c.map_degraded("reposted").await.unwrap();
            assert_eq!(fresh.read(0, 8).await.unwrap(), [4u8; 8]);
        });
    }
}
