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
use sim::{Event, Level, OpLedger, Phase, Span, TimerId, Wait};

use crate::client::RStoreClient;
use crate::crc::{seal_blocks, verify_blocks};
use crate::error::{RStoreError, Result};
use crate::layout::{Layout, Piece};
use crate::proto::{Extent, RegionDesc};
use crate::readbuf::ReadBuf;
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

/// A posted WR: the plan indices of the transfers it covers and the waiter
/// of its completion.
type Posted = (Range<usize>, Wait<CqStatus, TimerId>);

/// Recycled IO scratch shared by all clones of a [`Region`] handle: staging
/// `DmaBuf`s for the bytes of [`read`](Region::read) and
/// [`write`](Region::write) and for checksum-block assembly/verification
/// (sealed and verified where they lie), and the plan and posted-WR lists
/// of a round (one of each per round in flight). Reuse keeps the
/// steady-state op set allocation-free (arena allocation is zero virtual
/// time, so pooling changes no wire traffic or timing — only host-heap
/// churn). A block a [`ReadBuf`] lends is out of the pool until it drops.
#[derive(Default)]
pub(crate) struct IoPool {
    staging: RefCell<Vec<DmaBuf>>,
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

    /// A staging block of exactly `len` bytes: one of the pool's, or a
    /// fresh one whose backing is reserved at `len` at once, so that its
    /// first landing, in however many pieces, grows it no further.
    fn stage(&self, dev: &rdma::RdmaDevice, len: u64) -> Result<DmaBuf> {
        let mut pool = self.staging.borrow_mut();
        if let Some(i) = pool.iter().rposition(|b| b.len == len.max(1)) {
            return Ok(pool.swap_remove(i));
        }
        let buf = dev.alloc(len.max(1))?;
        dev.with_mem(|m| m.swap_backing(buf, Vec::with_capacity(len as usize)))?;
        Ok(buf)
    }

    /// Returns a block taken with [`stage`](Self::stage), or frees it when
    /// the pool is full. Only once nothing can land in it any more: a block
    /// whose IO was given up in flight is never returned.
    pub(crate) fn unstage(&self, dev: &rdma::RdmaDevice, buf: DmaBuf) {
        let mut pool = self.staging.borrow_mut();
        if pool.len() < POOL_CAP {
            pool.push(buf);
        } else {
            let _ = dev.free(buf);
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
/// One IO form, at two levels of convenience: [`read`](Self::read) lends
/// the bytes it landed in a pooled staging buffer ([`ReadBuf`]) and
/// [`write`](Self::write) stages a slice in one;
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
    /// The region's geometry, fixed at alloc: a refresh never changes it.
    layout: Layout,
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
    /// Read pieces sent past their primary, by every clone (see
    /// [`failovers`](Self::failovers)).
    failovers: Rc<Cell<u64>>,
}

impl fmt::Debug for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Region")
            .field("name", &self.name)
            .field("layout", &self.layout)
            .finish()
    }
}

impl Region {
    pub(crate) fn new(client: RStoreClient, desc: RegionDesc) -> Region {
        // Fields initialize in the order written: everything that reads
        // `desc` comes before the field that takes it.
        Region {
            client,
            layout: Layout::of(&desc),
            name: Rc::from(desc.name.as_str()),
            checksums: desc.checksums,
            desc: Rc::new(RefCell::new(desc)),
            pool: Rc::default(),
            refreshing: Rc::default(),
            failovers: Rc::default(),
        }
    }

    /// How many read pieces, of this handle and every clone, were sent past
    /// their primary replica: a caller that reads it around a read knows the
    /// primary served every byte if it did not move.
    pub(crate) fn failovers(&self) -> u64 {
        self.failovers.get()
    }

    /// Logical size in bytes.
    pub fn size(&self) -> u64 {
        self.layout.size()
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

    /// [`finish_ledger_res`](Self::finish_ledger_res), passing `result` on.
    fn finished<T>(&self, ledger: &OpLedger, result: Result<T>) -> Result<T> {
        self.finish_ledger_res(ledger, &result);
        result
    }

    /// Runs `io` on a staging buffer of exactly `len` bytes from the pool
    /// ([`IoPool::stage`]), which goes back to it once `io` is done.
    pub(crate) async fn with_staging<T, Fut, F>(&self, len: u64, io: F) -> Result<T>
    where
        F: FnOnce(DmaBuf) -> Fut,
        Fut: Future<Output = Result<T>>,
    {
        let dev = &self.client.shared.dev;
        let staging = self.pool.stage(dev, len)?;
        let result = io(staging.slice(0, len)).await;
        self.pool.unstage(dev, staging);
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
    /// safe. Every KV table op runs its whole attempt under this ladder too.
    ///
    /// A refresh that fails for any reason but `NotFound` — the master's
    /// reply was lost, it timed out — counts as an unchanged descriptor:
    /// back off and retry the round. `NotFound` (the region has been freed,
    /// even if another region of another geometry took its name) ends the
    /// ladder with the original `RemoteAccess`. Only an unchanged descriptor
    /// takes a step of the ladder; a changed one reruns the round at once.
    /// The worst case is 7 refreshes plus 113 ms of backoff (1 + 2 + 4 + …
    /// + 32 + 50 ms), and 7 more refreshes that each changed the descriptor.
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
        let (mut backoff, mut steps) = (Duration::from_millis(1), 0);
        for attempt in 0u64..14 {
            if steps == 7 || !matches!(result, Err(RStoreError::Io(CqStatus::RemoteAccess))) {
                break;
            }
            if attempt == 0 {
                s.stats.desc_stale.incr();
            }
            let reval = ledger.begin(Phase::Reval, s.sim.now());
            let moved = self.refresh(attempt).await;
            if !matches!(moved, Ok(true) | Err(RStoreError::NotFound(_))) {
                let seal = ledger.begin(Phase::Seal, s.sim.now());
                s.sim.sleep(backoff).await;
                ledger.end(seal, s.sim.now());
                (backoff, steps) = ((backoff * 2).min(Duration::from_millis(50)), steps + 1);
            }
            ledger.end(reval, s.sim.now());
            if let Err(RStoreError::NotFound(_)) = moved {
                break;
            }
            ledger.retry();
            result = round().await;
        }
        result
    }

    /// Re-fetches the descriptor and, if it changed, installs it for every
    /// clone of this handle. Returns whether it changed. A descriptor of
    /// another geometry is another region under the same name — this one
    /// was freed — and is refused with [`RStoreError::NotFound`].
    async fn refresh(&self, attempt: u64) -> Result<bool> {
        let fresh = self.client.lookup(self.name()).await?;
        if Layout::of(&fresh) != self.layout || fresh.checksums != self.checksums {
            return Err(RStoreError::NotFound(fresh.name));
        }
        if fresh == *self.desc.borrow() {
            return Ok(false);
        }
        let s = &self.client.shared;
        s.stats.desc_refresh.fire(s.dev.node().0 as u64, attempt);
        *self.desc.borrow_mut() = fresh;
        Ok(true)
    }

    // --- public IO API ----------------------------------------------------------

    /// Reads `len` bytes at `offset`, with replica failover: if the primary
    /// read of a stripe fails, the next replica is tried. On a checksummed
    /// region every returned byte lies under a verified block CRC: the read
    /// fetches the checksum blocks covering the range with their entries —
    /// a 4 KiB read moves 4 KiB and 8 bytes.
    ///
    /// The bytes are lent, not copied: the [`ReadBuf`] holds the pooled
    /// staging block they landed in, so a warm read asks the heap for
    /// nothing. They go back to this handle's pool when it drops; a caller
    /// that keeps them takes them with [`ReadBuf::into_vec`], for one
    /// allocation.
    ///
    /// # Errors
    ///
    /// [`RStoreError::OutOfRange`], [`RStoreError::Io`] when all replicas
    /// of some stripe fail, or [`RStoreError::CorruptionDetected`] when a
    /// touched block verifies on none.
    pub async fn read(&self, offset: u64, len: u64) -> Result<ReadBuf> {
        let ledger = self.op_ledger(OpKind::Read);
        self.finished(&ledger, self.read_l(offset, len, &ledger).await)
    }

    /// [`read`](Self::read) charging an existing ledger instead of opening
    /// a fresh one — for callers (the KV layer) that own the logical op.
    /// The staging block is lent once the read has landed and goes back to
    /// the pool once it has failed — never while a WR may still land in it,
    /// so a read given up in flight keeps its block out of the pool.
    pub(crate) async fn read_l(&self, offset: u64, len: u64, ledger: &OpLedger) -> Result<ReadBuf> {
        let (dev, pool) = (&self.client.shared.dev, &self.pool);
        let block = pool.stage(dev, len)?;
        if let Err(e) = self.read_into_l(offset, block.slice(0, len), ledger).await {
            pool.unstage(dev, block);
            return Err(e);
        }
        ReadBuf::lend(&self.client, pool, block, len)
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
        self.finished(&ledger, self.write_l(offset, data, &ledger).await)
    }

    /// [`write`](Self::write) charging an existing ledger: `data` is staged
    /// in a pooled buffer and written from there.
    pub(crate) async fn write_l(&self, offset: u64, data: &[u8], ledger: &OpLedger) -> Result<()> {
        self.with_staging(data.len() as u64, |staging| async move {
            self.client.shared.dev.write_mem(staging.addr, data)?;
            self.write_src(&[(offset, staging)], ledger).await
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
        self.finished(&ledger, self.read_into_l(offset, dst, &ledger).await)
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
        self.finished(&ledger, self.read_into_many_l(ios, &ledger).await)
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
        self.finished(&ledger, self.write_src(&[(offset, src)], &ledger).await)
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
        self.finished(&ledger, self.write_src(ios, &ledger).await)
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
            let piece = self.layout.piece_at(offset, buf.len);
            piece.map(|piece| Xfer::new(piece, buf, 0))
        };
        let (word, image) = (xfer(landing)?, read_back.map(xfer).transpose()?);
        let node = self.extent(word.piece.group, 0).node;
        self.client.shared.qps.dial(node, true).await?;
        let rx = self.post(Dir::Cas { expect, swap }, &[word], ledger)?;
        let image = image.map(|x| self.post(Dir::Read, &[x], ledger));
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
            let failed = self.post_round(Dir::Read, plan, ledger).await?;
            return self.drain_reads(failed, ledger).await;
        }
        self.ck_rounds(plan, false, |round| async move {
            let failed = self.post_round(Dir::Read, round, ledger).await?;
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

    /// Writes `ios`: one write round under stale-descriptor revalidation.
    async fn write_src(&self, ios: &[(u64, DmaBuf)], ledger: &OpLedger) -> Result<()> {
        self.with_revalidate(ledger, || self.write_round(ios, ledger))
            .await
    }

    /// One write round: plan every (piece, replica) of every pair, post,
    /// then run the recovery round over whatever failed. A checksummed plan
    /// runs as [`write_ck`](Self::write_ck) rounds.
    async fn write_round(&self, ios: &[(u64, DmaBuf)], ledger: &OpLedger) -> Result<()> {
        let s = &self.client.shared;
        let _span = self.round_span(ios, &s.stats.write, &s.stats.write_many);
        let plan = self.plan(ios, true)?;
        if !self.checksums {
            return self.write_xfers(plan, ledger).await;
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
        self.write_xfers(round, ledger).await
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
        let mut plan = IoPool::take(&self.pool.plans);
        for &(offset, buf) in ios {
            for piece in self.layout.piece_iter(offset, buf.len)? {
                let replicas = (0..self.replicas(piece.group)).filter(|&r| all_replicas || r == 0);
                plan.extend(replicas.map(|replica| Xfer::new(piece, buf, replica)));
            }
        }
        Ok(plan)
    }

    /// The frame ([`Piece::ck_frame`]) of `piece` in its stripe.
    fn frame(&self, piece: &Piece) -> [Piece; 2] {
        piece.ck_frame(self.layout.stripe_len(piece.group))
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

    /// Seals the frame image of checksummed write `x` where it lies: its
    /// new bytes are copied over whatever boundary blocks were fetched into
    /// the image, then every block's entry is written.
    fn seal(&self, x: &Xfer) -> Result<()> {
        let ([data, _], image) = (self.frame(&x.piece), x.image.expect("framed"));
        // Where the piece's own bytes sit in the image.
        let at = image.addr + x.piece.offset_in_stripe - data.offset_in_stripe;
        let seal = |frame: &mut [u8]| {
            let (blocks, trailer) = frame.split_at_mut(data.len as usize);
            seal_blocks(blocks, trailer);
        };
        let dev = &self.client.shared.dev;
        dev.with_mem(|m| m.copy(x.buf.addr + x.piece.buf_offset, at, x.piece.len))?;
        dev.with_mem(|m| m.view_mut(image.addr, image.len, seal))?;
        Ok(())
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
    /// "Scatter-gather WRs").
    fn post_plan(
        &self,
        dir: Dir,
        plan: &mut [Xfer],
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
                match self.post(dir, xfers, ledger) {
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
        ledger: &OpLedger,
    ) -> Result<Vec<Failed>> {
        let mut waits = IoPool::take(&self.pool.waits);
        let mut failed = self.post_plan(dir, &mut plan, ledger, &mut waits);
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
        let [data, _] = self.frame(&x.piece);
        // Where the piece's own bytes sit in the image.
        let at = image.addr + x.piece.offset_in_stripe - data.offset_in_stripe;
        let verified = |frame: &[u8]| {
            let (blocks, trailer) = frame.split_at(data.len as usize);
            verify_blocks(blocks, trailer).is_none()
        };
        let dev = &self.client.shared.dev;
        let good = dev.with_mem(|m| m.view(image.addr, image.len, verified))? == Some(true);
        if good {
            dev.with_mem(|m| m.copy(at, x.buf.addr + x.piece.buf_offset, x.piece.len))?;
        }
        Ok(good)
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
    /// its server is down or cut off) or refused the rkey (its extent moved
    /// or is sealed for a move) re-fetches the descriptor in the background,
    /// one refresh at a time per handle. Once the master has replaced or
    /// moved that extent, every clone's IO goes to its successor — a write,
    /// which must reach every replica, would otherwise keep failing until
    /// the caller re-maps, and a KV writer whose walk failed over does not
    /// write at all (it waits for the primary), so it cannot count on its
    /// own write to revalidate ([`with_revalidate`](Self::with_revalidate)).
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
        let mut refresh = false;
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
                    refresh |= matches!(status, CqStatus::Timeout | CqStatus::RemoteAccess);
                    x.replica += 1;
                    x.redialed = false;
                    if x.replica >= self.replicas(x.piece.group) {
                        exhausted = Err(self.exhausted(&x, status));
                        break;
                    }
                    ledger.failover(s.sim.now());
                    self.failovers.set(self.failovers.get() + 1);
                }
                match self.post(Dir::Read, &[x], ledger) {
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
        if refresh && !self.refreshing.replace(true) {
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
    async fn write_xfers(&self, plan: Vec<Xfer>, ledger: &OpLedger) -> Result<()> {
        let failed = self.post_round(Dir::Write, plan, ledger).await?;
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
        let lost = self.post_round(Dir::Write, retry, ledger).await;
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
    /// the waiter of its completion: one wr_id, one doorbell. A
    /// [`Dir::Cas`] is one atomic on its one transfer's word.
    fn post(&self, dir: Dir, xfers: &[Xfer], ledger: &OpLedger) -> Result<Wait<CqStatus, TimerId>> {
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
        let op = match dir {
            Dir::Read => WrOp::Read(SgeList::new(&elems[..n])?),
            Dir::Write => WrOp::Write(SgeList::new(&elems[..n])?),
            Dir::Cas { expect, swap } => WrOp::Atomic {
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
    use std::rc::Rc;
    use std::time::Duration;

    use fabric::{FaultPlan, NodeId};

    use super::Region;
    use crate::cluster::{Cluster, ClusterConfig};
    use crate::error::RStoreError;
    use crate::proto::AllocOptions;

    /// Staging blocks of `len` bytes in `region`'s pool.
    fn pooled(region: &Region, len: u64) -> usize {
        let staging = region.pool.staging.borrow();
        staging.iter().filter(|b| b.len == len).count()
    }

    #[test]
    fn a_lent_read_keeps_its_bytes_while_the_handle_and_a_clone_reuse_the_pool() {
        let cluster = Cluster::boot(ClusterConfig {
            clients: 1,
            ..ClusterConfig::with_servers(3)
        })
        .expect("boot");
        let sim = cluster.sim.clone();
        sim.block_on(async move {
            let c = cluster.client(0).await.unwrap();
            let len = 8192u64;
            let fill = |b: u8| vec![b; len as usize];
            for checksums in [false, true] {
                let opts = AllocOptions {
                    stripe_size: 4096,
                    checksums,
                    ..AllocOptions::default()
                };
                let name = format!("lent-{checksums}");
                let region = c.alloc(&name, 8 * len, opts).await.unwrap();
                let clone = region.clone();
                region.write(0, &fill(1)).await.unwrap();
                let held = region.read(0, len).await.unwrap();
                let kept = region.read(0, len).await.unwrap().into_vec();
                // Same-sized IO through both handles, the held bytes'
                // own range included: every one stages in the shared pool.
                for b in 2..12u8 {
                    let at = len * u64::from(b % 8);
                    let (writer, reader) = if b % 2 == 0 {
                        (&region, &clone)
                    } else {
                        (&clone, &region)
                    };
                    writer.write(at, &fill(b)).await.unwrap();
                    assert_eq!(reader.read(at, len).await.unwrap(), fill(b));
                    assert_eq!(held, fill(1), "checksums {checksums}, round {b}");
                }
                assert_eq!(kept, fill(1));
                assert_ne!(region.read(0, len).await.unwrap(), held);
                // Back in the pool once dropped: one block for `held`, one
                // fresh one for `kept`'s, which it gave away.
                let before = pooled(&region, len);
                drop(held);
                assert_eq!(pooled(&region, len), before + 1);
            }
        });
    }

    #[test]
    fn a_kept_read_survives_later_reads_and_costs_its_block_nothing() {
        let cluster = Cluster::boot(ClusterConfig {
            clients: 1,
            ..ClusterConfig::with_servers(3)
        })
        .expect("boot");
        let sim = cluster.sim.clone();
        sim.block_on(async move {
            let c = cluster.client(0).await.unwrap();
            let region = c
                .alloc("kept", 1 << 20, AllocOptions::default())
                .await
                .unwrap();
            let mut kept = Vec::new();
            for b in 0..4u8 {
                region.write(0, &[b; 4096]).await.unwrap();
                kept.push(region.read(0, 4096).await.unwrap().into_vec());
            }
            // Every kept vector is its own; the one block they landed in
            // went back to the pool each time.
            for (b, bytes) in kept.iter().enumerate() {
                assert_eq!(*bytes, vec![b as u8; 4096]);
            }
            assert_eq!(pooled(&region, 4096), 1);
            assert_eq!(region.read(0, 4096).await.unwrap(), [3u8; 4096]);
        });
    }

    #[test]
    fn a_read_dropped_after_its_region_and_its_cluster_returns_quietly() {
        let cluster = Rc::new(
            Cluster::boot(ClusterConfig {
                clients: 1,
                ..ClusterConfig::with_servers(2)
            })
            .expect("boot"),
        );
        let sim = cluster.sim.clone();
        let booted = cluster.clone();
        let outlives = sim.block_on(async move {
            let c = booted.client(0).await.unwrap();
            let region = c
                .alloc("orphan", 4096, AllocOptions::default())
                .await
                .unwrap();
            region.write(0, &[5u8; 4096]).await.unwrap();
            let (first, second) = (region.read(0, 4096).await, region.read(0, 4096).await);
            drop((region, c));
            drop(first.unwrap());
            second.unwrap()
        });
        let cluster = Rc::try_unwrap(cluster).expect("the only handle left");
        drop(cluster);
        assert_eq!(outlives, [5u8; 4096]);
        drop(outlives);
    }

    #[test]
    fn failed_reads_lend_nothing_and_leave_the_arena_as_it_was() {
        let cluster = Cluster::boot(ClusterConfig {
            clients: 1,
            ..ClusterConfig::fast_detection(2)
        })
        .expect("boot");
        let sim = cluster.sim.clone();
        let fabric = cluster.fabric.clone();
        sim.block_on(async move {
            let c = cluster.client(0).await.unwrap();
            let opts = AllocOptions {
                stripe_size: 4096,
                replicas: 2,
                ..AllocOptions::default()
            };
            let region = c.alloc("dark", 4096, opts).await.unwrap();
            region.write(0, &[6u8; 4096]).await.unwrap();
            let ck = AllocOptions {
                stripe_size: 4096,
                replicas: 1,
                checksums: true,
                ..AllocOptions::default()
            };
            let fragile = c.alloc("fragile", 4096, ck).await.unwrap();
            fragile.write(0, &[7u8; 4096]).await.unwrap();
            // Warm: each handle's pool holds a block of the read's size.
            drop(region.read(0, 4096).await.unwrap());
            drop(fragile.read(0, 4096).await.unwrap());
            let used = c.shared.dev.mem_used();

            // Every bit of the checksummed block's one replica is fair game:
            // some flip lands in the block.
            let victim = fragile.desc().groups[0].replicas[0].node;
            FaultPlan::new(0xF1)
                .corrupt_at(Duration::from_millis(1), NodeId(victim), 64)
                .install(&fabric);
            c.shared.sim.sleep(Duration::from_millis(5)).await;
            for _ in 0..100 {
                let err = fragile.read(0, 4096).await.unwrap_err();
                assert!(
                    matches!(err, RStoreError::CorruptionDetected { .. }),
                    "{err:?}"
                );
            }
            for replica in &region.desc().groups[0].replicas {
                fabric.set_node_up(NodeId(replica.node), false);
            }
            for _ in 0..100 {
                assert!(region.read(0, 4096).await.is_err());
            }
            assert_eq!(c.shared.dev.mem_used(), used);
            assert_eq!((pooled(&region, 4096), pooled(&fragile, 4096)), (1, 1));
            assert!(
                c.shared.qps.pending.is_empty(),
                "a failed read left a WR in flight"
            );
        });
    }

    #[test]
    fn a_read_given_up_in_flight_keeps_its_block_out_of_the_pool() {
        let cluster = Cluster::boot(ClusterConfig {
            clients: 1,
            ..ClusterConfig::with_servers(2)
        })
        .expect("boot");
        let sim = cluster.sim.clone();
        sim.block_on(async move {
            let c = cluster.client(0).await.unwrap();
            let opts = AllocOptions {
                stripe_size: 4096,
                ..AllocOptions::default()
            };
            let region = c.alloc("given-up", 8192, opts).await.unwrap();
            region.write(0, &[1u8; 4096]).await.unwrap();
            region.write(4096, &[2u8; 4096]).await.unwrap();
            drop(region.read(0, 4096).await.unwrap());
            assert_eq!(pooled(&region, 4096), 1);

            // Given up a nanosecond in: the pooled block it took stays out
            // of the pool while its READ is in flight, and after it landed.
            let (sim, qps) = (&c.shared.sim, &c.shared.qps);
            let read = Box::pin(region.read(0, 4096));
            assert!(sim.timeout(Duration::from_nanos(1), read).await.is_none());
            assert_eq!(qps.pending.len(), 1, "the READ is still in flight");
            assert_eq!(pooled(&region, 4096), 0);
            let next = region.read(4096, 4096).await.unwrap();
            sim.sleep(Duration::from_millis(1)).await;
            assert!(qps.pending.is_empty(), "the given-up READ landed");
            assert_eq!(next, [2u8; 4096]);
            drop(next);
            assert_eq!(pooled(&region, 4096), 1);
            assert_eq!(region.read(4096, 4096).await.unwrap(), [2u8; 4096]);
            assert_eq!(region.read(0, 4096).await.unwrap(), [1u8; 4096]);
        });
    }

    #[test]
    fn a_read_given_up_before_its_completion_frees_its_waiter_cell() {
        // A READ against a crashed server, abandoned by its caller long
        // before the device's 25 ms op timeout: its waiter is dropped with
        // its WR in flight. The WR's CQE — or, were there none, its
        // backstop — must free the cell the waiter left.
        let cluster = Cluster::boot(ClusterConfig {
            clients: 1,
            ..ClusterConfig::fast_detection(1)
        })
        .expect("boot");
        let sim = cluster.sim.clone();
        let fabric = cluster.fabric.clone();
        sim.block_on(async move {
            let c = cluster.client(0).await.unwrap();
            let opts = AllocOptions::default();
            let region = c.alloc("abandoned", 4096, opts).await.unwrap();
            region.write(0, &[1u8; 8]).await.unwrap();
            let (sim, qps) = (&c.shared.sim, &c.shared.qps);
            let timeouts = || c.shared.dev.metrics().counter("rstore.io_timeout");
            let before = timeouts();

            fabric.set_node_up(NodeId(region.desc().groups[0].replicas[0].node), false);
            let read = Box::pin(region.read(0, 8));
            assert!(sim.timeout(Duration::from_millis(1), read).await.is_none());
            assert_eq!(qps.pending.len(), 1, "the abandoned cell awaits its WR");
            // Past the op timeout and the backstop's grace.
            sim.sleep(Duration::from_millis(200)).await;
            assert!(qps.pending.is_empty(), "an abandoned cell outlived its WR");
            // The device's CQE came first and cancelled the backstop.
            assert_eq!(timeouts(), before);
        });
    }

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
                c.shared.qps.pending.is_empty(),
                "the failed write returned with a WR still in flight"
            );
            // X's repost landed before the error did.
            let fresh = c.map_degraded("reposted").await.unwrap();
            assert_eq!(fresh.read(0, 8).await.unwrap(), [4u8; 8]);
        });
    }
}
