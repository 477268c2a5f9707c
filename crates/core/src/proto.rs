//! Control-plane wire protocol.
//!
//! RStore's control path runs classic two-sided RPC (SEND/RECV) between
//! clients, the master, and memory servers. Messages are encoded with a
//! tiny hand-rolled little-endian format — no external serialization crates.
//! A message's encoded length is its size on the simulated wire, so the
//! format is an output: a field added to a request moves control-path
//! latencies.
//!
//! An error reply carries an [`RStoreError`] as a value (a tag and the
//! variant's fields), never its message; every counted list goes through
//! [`Enc::list`] / [`Dec::list`], which reserve nothing from a count they
//! have not seen the elements of.

use std::time::Duration;

use crate::error::{RStoreError, Result};

/// Bytes of one checksum-trailer entry: a u64 slot holding the CRC32C (high
/// 32 bits zero) of one [`CK_BLOCK`](crate::crc::CK_BLOCK) of the stripe.
/// Extents of checksummed regions are allocated and registered one entry per
/// block longer than their logical length; descriptors carry the *logical*
/// length so stripe math is unchanged.
pub const CK_BYTES: u64 = 8;

/// Physical bytes a server must allocate for an extent of logical length
/// `len`: the stripe plus, for checksummed regions, its trailer
/// ([`trailer_len`](crate::crc::trailer_len)). Capacity accounting, frees,
/// and repair copies must all use this length.
pub fn extent_alloc_len(len: u64, checksums: bool) -> u64 {
    if checksums {
        len + crate::crc::trailer_len(len)
    } else {
        len
    }
}

// --- primitive encoder / decoder -------------------------------------------

/// Append-only little-endian encoder.
#[derive(Default, Debug)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    /// Appends a count-prefixed list, each element written by `item`.
    pub fn list<T>(&mut self, items: &[T], item: impl Fn(&mut Enc, &T)) -> &mut Self {
        self.u32(items.len() as u32);
        for x in items {
            item(self, x);
        }
        self
    }

    /// Finishes encoding.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor-based little-endian decoder.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(RStoreError::Protocol(format!(
                "truncated message: wanted {n} bytes at {}, have {}",
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| RStoreError::Protocol("invalid utf-8 in string".into()))
    }

    /// Reads a count-prefixed list, each element read by `item`. Nothing is
    /// reserved from the count — it is four bytes anyone can send: the list
    /// grows as elements decode, and a message shorter than its count claims
    /// fails at the first missing element.
    pub fn list<T>(&mut self, item: impl Fn(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        (0..self.u32()?).map(|_| item(self)).collect()
    }

    /// Errors unless the whole buffer was consumed.
    pub fn finish(&self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(RStoreError::Protocol(format!(
                "{} trailing bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// --- errors -------------------------------------------------------------------

impl RStoreError {
    /// The wire form of an error reply: a tag, then the variant's fields.
    /// The variants a master or memory server constructs on purpose cross
    /// as themselves. The rest describe the side that observed them — its
    /// own transport (`Rdma`, `Io`), its own view of a region (`Degraded`,
    /// `OutOfRange`, `CorruptionDetected`) — and mean something else in the
    /// receiver's hands (a client retries on its *own* `Io`), so a peer is
    /// told of them in words, as `Remote`.
    fn encode_into(&self, e: &mut Enc) {
        match self {
            RStoreError::NameExists(name) => e.u8(0).str(name),
            RStoreError::NotFound(name) => e.u8(1).str(name),
            RStoreError::InsufficientCapacity { requested } => e.u8(2).u64(*requested),
            RStoreError::NotEnoughServers {
                replicas,
                available,
            } => e.u8(3).u32(*replicas as u32).u32(*available as u32),
            RStoreError::Protocol(m) => e.u8(4).str(m),
            RStoreError::Remote(m) => e.u8(5).str(m),
            RStoreError::Rdma(_)
            | RStoreError::Io(_)
            | RStoreError::Degraded(_)
            | RStoreError::OutOfRange { .. }
            | RStoreError::CorruptionDetected { .. } => e.u8(5).str(&self.to_string()),
        };
    }

    fn decode_from(d: &mut Dec<'_>) -> Result<Self> {
        Ok(match d.u8()? {
            0 => RStoreError::NameExists(d.str()?),
            1 => RStoreError::NotFound(d.str()?),
            2 => RStoreError::InsufficientCapacity {
                requested: d.u64()?,
            },
            3 => RStoreError::NotEnoughServers {
                replicas: d.u32()? as usize,
                available: d.u32()? as usize,
            },
            4 => RStoreError::Protocol(d.str()?),
            5 => RStoreError::Remote(d.str()?),
            t => return Err(RStoreError::Protocol(format!("bad error tag {t}"))),
        })
    }
}

/// A control-plane request: what [`Channel`](crate::rpc::Channel) sends and
/// how the answer to it is read.
pub trait Request {
    /// The reply a peer answers with when it does not answer with an error.
    type Reply;

    /// Encodes the request.
    fn encode(&self) -> Vec<u8>;

    /// Decodes the answer. An error reply is the `Err` it carries.
    ///
    /// # Errors
    ///
    /// The peer's error, or [`RStoreError::Protocol`] on malformed input.
    fn decode_reply(buf: &[u8]) -> Result<Self::Reply>;
}

// --- region descriptors -----------------------------------------------------

/// One contiguous piece of a region on one memory server.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Extent {
    /// Fabric node id of the memory server.
    pub node: u32,
    /// Start address in the server's arena.
    pub addr: u64,
    /// rkey authorizing client access.
    pub rkey: u64,
    /// Length in bytes.
    pub len: u64,
}

/// A stripe and its replicas (index 0 is the primary).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StripeGroup {
    /// One extent per replica; all the same length.
    pub replicas: Vec<Extent>,
}

impl StripeGroup {
    /// Length of the stripe (all replicas are equal-sized).
    pub fn len(&self) -> u64 {
        self.replicas.first().map_or(0, |e| e.len)
    }

    /// True if the group has no replicas (never produced by the master).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }
}

/// Health of a region as known by the master.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegionState {
    /// All extents on live servers.
    Healthy,
    /// At least one extent lives on a server that missed its lease.
    Degraded,
}

impl RegionState {
    fn encode_into(self, e: &mut Enc) {
        e.u8(match self {
            RegionState::Healthy => 0,
            RegionState::Degraded => 1,
        });
    }

    fn decode_from(d: &mut Dec<'_>) -> Result<Self> {
        match d.u8()? {
            0 => Ok(RegionState::Healthy),
            1 => Ok(RegionState::Degraded),
            v => Err(RStoreError::Protocol(format!("bad region state {v}"))),
        }
    }
}

/// The complete control-path description of a region: everything a client
/// needs to perform one-sided IO without ever talking to the master again.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RegionDesc {
    /// Region name in the master's namespace.
    pub name: String,
    /// Logical size in bytes.
    pub size: u64,
    /// Striping unit used at allocation.
    pub stripe_size: u64,
    /// Stripes in logical order; lengths sum to `size`.
    pub groups: Vec<StripeGroup>,
    /// Health as of when the descriptor was issued.
    pub state: RegionState,
    /// Whether each stripe carries a checksum trailer, one [`CK_BYTES`] entry
    /// per block (extents are physically [`extent_alloc_len`] long).
    pub checksums: bool,
}

impl RegionDesc {
    fn encode_into(&self, e: &mut Enc) {
        e.str(&self.name).u64(self.size).u64(self.stripe_size);
        self.state.encode_into(e);
        e.u8(self.checksums as u8);
        e.list(&self.groups, |e, g| {
            e.list(&g.replicas, |e, x| {
                e.u32(x.node).u64(x.addr).u64(x.rkey).u64(x.len);
            });
        });
    }

    fn decode_from(d: &mut Dec<'_>) -> Result<Self> {
        Ok(RegionDesc {
            name: d.str()?,
            size: d.u64()?,
            stripe_size: d.u64()?,
            state: RegionState::decode_from(d)?,
            checksums: d.u8()? != 0,
            groups: d.list(|d| {
                let replicas = d.list(|d| {
                    Ok(Extent {
                        node: d.u32()?,
                        addr: d.u64()?,
                        rkey: d.u64()?,
                        len: d.u64()?,
                    })
                })?;
                Ok(StripeGroup { replicas })
            })?,
        })
    }
}

// --- allocation options -----------------------------------------------------

/// Placement policy the master uses to pick memory servers.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Policy {
    /// Cycle through live servers stripe by stripe (the paper's default:
    /// maximizes aggregate bandwidth for sequential access).
    #[default]
    RoundRobin,
    /// Uniformly random server per stripe.
    Random,
    /// Prefer the servers with the most free capacity.
    CapacityWeighted,
}

/// Options for [`alloc`](crate::client::RStoreClient::alloc).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AllocOptions {
    /// Striping unit; the region is spread across servers in pieces of this
    /// size.
    pub stripe_size: u64,
    /// Number of replicas per stripe (1 = no replication).
    pub replicas: u8,
    /// Placement policy.
    pub policy: Policy,
    /// Allocate synthetic (unbacked) memory on the servers — fluid mode.
    pub synthetic: bool,
    /// Maintain a CRC32C trailer behind every stripe, one entry per
    /// [`CK_BLOCK`](crate::crc::CK_BLOCK) of it: reads verify the blocks
    /// they touch and fail over on mismatch, the scrubber sweeps the
    /// region, and a write pays a read-modify-write only of the (at most
    /// two) blocks it covers in part. Ignored (forced off) for synthetic
    /// regions, which carry no real bytes to checksum.
    pub checksums: bool,
}

impl Default for AllocOptions {
    fn default() -> Self {
        AllocOptions {
            stripe_size: 16 * 1024 * 1024,
            replicas: 1,
            policy: Policy::RoundRobin,
            synthetic: false,
            checksums: false,
        }
    }
}

impl AllocOptions {
    fn encode_into(&self, e: &mut Enc) {
        e.u64(self.stripe_size).u8(self.replicas);
        e.u8(match self.policy {
            Policy::RoundRobin => 0,
            Policy::Random => 1,
            Policy::CapacityWeighted => 2,
        });
        e.u8(self.synthetic as u8).u8(self.checksums as u8);
    }

    fn decode_from(d: &mut Dec<'_>) -> Result<Self> {
        Ok(AllocOptions {
            stripe_size: d.u64()?,
            replicas: d.u8()?,
            policy: match d.u8()? {
                0 => Policy::RoundRobin,
                1 => Policy::Random,
                2 => Policy::CapacityWeighted,
                v => return Err(RStoreError::Protocol(format!("bad policy {v}"))),
            },
            synthetic: d.u8()? != 0,
            checksums: d.u8()? != 0,
        })
    }
}

// --- client/master control messages ------------------------------------------

/// Requests a client or memory server sends to the master.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CtrlReq {
    /// A memory server announces itself and its donated capacity.
    RegisterServer {
        /// Fabric node of the server.
        node: u32,
        /// Donated bytes.
        capacity: u64,
    },
    /// Periodic liveness beacon from a memory server; an acknowledged one
    /// renews its lease. Answered with [`CtrlResp::Err`] once the master has
    /// declared the server dead — or forgotten it — which sends the server
    /// back to [`CtrlReq::RegisterServer`].
    Heartbeat {
        /// Fabric node of the server.
        node: u32,
    },
    /// Allocate a named region.
    Alloc {
        /// Region name (must be fresh).
        name: String,
        /// Logical size in bytes.
        size: u64,
        /// Allocation options.
        opts: AllocOptions,
    },
    /// Fetch the descriptor of an existing region.
    Lookup {
        /// Region name.
        name: String,
    },
    /// Destroy a region and reclaim its memory.
    Free {
        /// Region name.
        name: String,
    },
    /// Cluster statistics (for tooling and tests).
    Stat,
    /// Extend an existing region by `additional` bytes (new stripes are
    /// appended; existing data and descriptors remain valid).
    Grow {
        /// Region name.
        name: String,
        /// Bytes to append.
        additional: u64,
        /// Placement options for the new stripes (stripe size is taken from
        /// the existing region, not from here).
        opts: AllocOptions,
    },
    /// A client's verified READ caught a checksum mismatch on one replica:
    /// tell the master so repair can re-replicate the damaged extent.
    ReportCorruption {
        /// Region name.
        name: String,
        /// Stripe-group index of the bad extent.
        group: u32,
        /// Replica index within the group.
        replica: u32,
        /// Node the client observed the bad bytes on (validated against the
        /// descriptor before the mark is accepted).
        node: u32,
    },
    /// Live cluster introspection: per-server capacity and liveness,
    /// per-region health, and corruption/repair counts as of the current
    /// virtual time. Answered with [`CtrlResp::Report`]; the flat
    /// [`CtrlReq::Stat`] totals remain for cheap checks.
    ClusterStats,
    /// Gracefully drain a memory server: migrate every extent it hosts onto
    /// other servers, then deregister it. Answered with
    /// [`CtrlResp::Drained`] on success or [`CtrlResp::Err`] (structured
    /// `InsufficientCapacity`) when the remaining cluster cannot absorb the
    /// data.
    Drain {
        /// Fabric node of the server to drain.
        node: u32,
    },
}

impl Request for CtrlReq {
    type Reply = CtrlResp;

    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            CtrlReq::RegisterServer { node, capacity } => {
                e.u8(0).u32(*node).u64(*capacity);
            }
            CtrlReq::Heartbeat { node } => {
                e.u8(1).u32(*node);
            }
            CtrlReq::Alloc { name, size, opts } => {
                opts.encode_into(e.u8(2).str(name).u64(*size));
            }
            CtrlReq::Lookup { name } => {
                e.u8(3).str(name);
            }
            CtrlReq::Free { name } => {
                e.u8(4).str(name);
            }
            CtrlReq::Stat => {
                e.u8(5);
            }
            CtrlReq::Grow {
                name,
                additional,
                opts,
            } => {
                opts.encode_into(e.u8(6).str(name).u64(*additional));
            }
            CtrlReq::ReportCorruption {
                name,
                group,
                replica,
                node,
            } => {
                e.u8(7).str(name).u32(*group).u32(*replica).u32(*node);
            }
            CtrlReq::ClusterStats => {
                e.u8(8);
            }
            CtrlReq::Drain { node } => {
                e.u8(9).u32(*node);
            }
        }
        e.into_bytes()
    }

    fn decode_reply(buf: &[u8]) -> Result<CtrlResp> {
        match CtrlResp::decode(buf)? {
            CtrlResp::Err(e) => Err(e),
            reply => Ok(reply),
        }
    }
}

impl CtrlReq {
    /// Decodes a request.
    ///
    /// # Errors
    ///
    /// [`RStoreError::Protocol`] on malformed input.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let mut d = Dec::new(buf);
        let req = match d.u8()? {
            0 => CtrlReq::RegisterServer {
                node: d.u32()?,
                capacity: d.u64()?,
            },
            1 => CtrlReq::Heartbeat { node: d.u32()? },
            2 => CtrlReq::Alloc {
                name: d.str()?,
                size: d.u64()?,
                opts: AllocOptions::decode_from(&mut d)?,
            },
            3 => CtrlReq::Lookup { name: d.str()? },
            4 => CtrlReq::Free { name: d.str()? },
            5 => CtrlReq::Stat,
            6 => CtrlReq::Grow {
                name: d.str()?,
                additional: d.u64()?,
                opts: AllocOptions::decode_from(&mut d)?,
            },
            7 => CtrlReq::ReportCorruption {
                name: d.str()?,
                group: d.u32()?,
                replica: d.u32()?,
                node: d.u32()?,
            },
            8 => CtrlReq::ClusterStats,
            9 => CtrlReq::Drain { node: d.u32()? },
            t => return Err(RStoreError::Protocol(format!("bad ctrl tag {t}"))),
        };
        d.finish()?;
        Ok(req)
    }
}

/// Cluster statistics reported by the master.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ClusterStats {
    /// Live memory servers.
    pub servers: u32,
    /// Regions in the namespace.
    pub regions: u32,
    /// Total donated capacity in bytes.
    pub capacity: u64,
    /// Bytes allocated to regions (including replicas).
    pub used: u64,
    /// Accounting invariant: for every server, the `used` counter equals the
    /// sum of extent allocation lengths the descriptors place on it (plus
    /// bytes reserved by an in-flight repair/migration). `false` means the
    /// master's books are off — a bug, never an expected state.
    pub consistent: bool,
}

/// One memory server's row in a [`ClusterReport`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ServerStats {
    /// Fabric node id of the server.
    pub node: u32,
    /// Donated bytes.
    pub capacity: u64,
    /// Bytes currently granted to regions (physical, trailer included).
    pub used: u64,
    /// Whether the server's lease is current.
    pub alive: bool,
}

/// One region's row in a [`ClusterReport`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RegionStats {
    /// Region name.
    pub name: String,
    /// Logical size in bytes.
    pub size: u64,
    /// Health as of the report (same computation as `Lookup`).
    pub state: RegionState,
    /// Extents currently marked corrupt and awaiting repair.
    pub corrupt_extents: u32,
}

/// Full cluster introspection report, answered to
/// [`CtrlReq::ClusterStats`]: a live view of per-server capacity, per-region
/// health, and the master's corruption/repair counters at the current
/// virtual time.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ClusterReport {
    /// One row per registered server, ordered by node id.
    pub servers: Vec<ServerStats>,
    /// One row per region, ordered by name.
    pub regions: Vec<RegionStats>,
    /// Checksum mismatches detected so far (client reports + scrubber).
    pub corruption_detected: u64,
    /// Extents re-replicated by the repair task so far.
    pub repaired_extents: u64,
    /// Completed background scrub passes.
    pub scrub_passes: u64,
}

/// Master responses.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CtrlResp {
    /// Success without a payload.
    Ok,
    /// Application-level failure, as a value: see
    /// [`Request::decode_reply`].
    Err(RStoreError),
    /// A region descriptor (for `Alloc` / `Lookup`).
    Region(RegionDesc),
    /// Statistics (for `Stat`).
    Stats(ClusterStats),
    /// Full introspection report (for `ClusterStats`).
    Report(ClusterReport),
    /// A [`CtrlReq::Drain`] completed: how much data was migrated off the
    /// drained server.
    Drained {
        /// Extents migrated away.
        extents: u64,
        /// Physical bytes migrated away.
        bytes: u64,
    },
    /// A [`CtrlReq::RegisterServer`] was accepted: the terms the server
    /// serves under from now on.
    Registered {
        /// How long one acknowledged beat keeps the server's extents
        /// remotely accessible, counted from when the server *sent* it. A
        /// server that lets this pass unrenewed must revoke all remote
        /// access itself: the master may by then be replacing its extents.
        lease: Duration,
        /// `(addr, rkey)` of extents the master replaced or freed while it
        /// could not reach the server. The server frees these before it
        /// restores any access.
        retire: Vec<(u64, u64)>,
    },
}

impl CtrlResp {
    /// Encodes the response.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            CtrlResp::Ok => {
                e.u8(0);
            }
            CtrlResp::Err(err) => {
                err.encode_into(e.u8(1));
            }
            CtrlResp::Region(desc) => {
                e.u8(2);
                desc.encode_into(&mut e);
            }
            CtrlResp::Stats(s) => {
                e.u8(3)
                    .u32(s.servers)
                    .u32(s.regions)
                    .u64(s.capacity)
                    .u64(s.used)
                    .u8(s.consistent as u8);
            }
            CtrlResp::Report(r) => {
                e.u8(4).list(&r.servers, |e, s| {
                    e.u32(s.node).u64(s.capacity).u64(s.used).u8(s.alive as u8);
                });
                e.list(&r.regions, |e, reg| {
                    e.str(&reg.name).u64(reg.size);
                    reg.state.encode_into(e);
                    e.u32(reg.corrupt_extents);
                });
                e.u64(r.corruption_detected)
                    .u64(r.repaired_extents)
                    .u64(r.scrub_passes);
            }
            CtrlResp::Drained { extents, bytes } => {
                e.u8(5).u64(*extents).u64(*bytes);
            }
            CtrlResp::Registered { lease, retire } => {
                e.u8(6).u64(lease.as_nanos() as u64);
                e.list(retire, |e, &(addr, rkey)| {
                    e.u64(addr).u64(rkey);
                });
            }
        }
        e.into_bytes()
    }

    /// Decodes a response.
    ///
    /// # Errors
    ///
    /// [`RStoreError::Protocol`] on malformed input.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let mut d = Dec::new(buf);
        let resp = match d.u8()? {
            0 => CtrlResp::Ok,
            1 => CtrlResp::Err(RStoreError::decode_from(&mut d)?),
            2 => CtrlResp::Region(RegionDesc::decode_from(&mut d)?),
            3 => CtrlResp::Stats(ClusterStats {
                servers: d.u32()?,
                regions: d.u32()?,
                capacity: d.u64()?,
                used: d.u64()?,
                consistent: d.u8()? != 0,
            }),
            4 => CtrlResp::Report(ClusterReport {
                servers: d.list(|d| {
                    Ok(ServerStats {
                        node: d.u32()?,
                        capacity: d.u64()?,
                        used: d.u64()?,
                        alive: d.u8()? != 0,
                    })
                })?,
                regions: d.list(|d| {
                    Ok(RegionStats {
                        name: d.str()?,
                        size: d.u64()?,
                        state: RegionState::decode_from(d)?,
                        corrupt_extents: d.u32()?,
                    })
                })?,
                corruption_detected: d.u64()?,
                repaired_extents: d.u64()?,
                scrub_passes: d.u64()?,
            }),
            5 => CtrlResp::Drained {
                extents: d.u64()?,
                bytes: d.u64()?,
            },
            6 => CtrlResp::Registered {
                lease: Duration::from_nanos(d.u64()?),
                retire: d.list(|d| Ok((d.u64()?, d.u64()?)))?,
            },
            t => return Err(RStoreError::Protocol(format!("bad resp tag {t}"))),
        };
        d.finish()?;
        Ok(resp)
    }
}

// --- master/server control messages -------------------------------------------

/// Requests the master sends to a memory server.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SrvReq {
    /// Allocate and register `count` extents of `len` bytes each.
    AllocExtents {
        /// Number of extents.
        count: u32,
        /// Logical bytes per extent (the physical allocation is
        /// [`extent_alloc_len`] when `checksums` is set).
        len: u64,
        /// Synthetic (unbacked) allocation for fluid-mode regions.
        synthetic: bool,
        /// Append a checksum trailer, initialized to the CRCs of the
        /// zero-filled blocks so never-written stripes verify clean.
        checksums: bool,
    },
    /// Free previously allocated extents by start address.
    FreeExtents {
        /// `(addr, len)` pairs, where `len` is the *physical* allocation
        /// length ([`extent_alloc_len`] of the granted logical length).
        extents: Vec<(u64, u64)>,
    },
    /// Pull a remote extent into a local one over the data path (the copy
    /// step of an extent move): the receiving server issues a one-sided READ
    /// from `src_node` into `dst_addr`.
    Replicate {
        /// Fabric node of the server holding the extent to copy.
        src_node: u32,
        /// Source extent start address.
        src_addr: u64,
        /// rkey authorizing the read of the source extent.
        src_rkey: u64,
        /// Destination extent start address on the receiving server.
        dst_addr: u64,
        /// Bytes to copy.
        len: u64,
    },
    /// Change the remote rights on a registered extent without invalidating
    /// its rkey. An extent move seals the extent it replaces read-only
    /// (`writable: false`) before the copy so no client WRITE/CAS can be
    /// acknowledged on it between the point-in-time copy and the descriptor
    /// swap — sealed writers fault with `RemoteAccess`, refresh the
    /// descriptor, and retry on the new replica set. `writable: true`
    /// restores full rights (rollback path).
    SetAccess {
        /// rkey of the extent's registration.
        rkey: u64,
        /// `false` seals to read-only; `true` restores read/write/atomic.
        writable: bool,
    },
}

impl Request for SrvReq {
    type Reply = SrvResp;

    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            SrvReq::AllocExtents {
                count,
                len,
                synthetic,
                checksums,
            } => {
                e.u8(0)
                    .u32(*count)
                    .u64(*len)
                    .u8(*synthetic as u8)
                    .u8(*checksums as u8);
            }
            SrvReq::FreeExtents { extents } => {
                e.u8(1).list(extents, |e, &(addr, len)| {
                    e.u64(addr).u64(len);
                });
            }
            SrvReq::Replicate {
                src_node,
                src_addr,
                src_rkey,
                dst_addr,
                len,
            } => {
                e.u8(2)
                    .u32(*src_node)
                    .u64(*src_addr)
                    .u64(*src_rkey)
                    .u64(*dst_addr)
                    .u64(*len);
            }
            SrvReq::SetAccess { rkey, writable } => {
                e.u8(3).u64(*rkey).u8(*writable as u8);
            }
        }
        e.into_bytes()
    }

    fn decode_reply(buf: &[u8]) -> Result<SrvResp> {
        match SrvResp::decode(buf)? {
            SrvResp::Err(e) => Err(e),
            reply => Ok(reply),
        }
    }
}

impl SrvReq {
    /// Decodes a request.
    ///
    /// # Errors
    ///
    /// [`RStoreError::Protocol`] on malformed input.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let mut d = Dec::new(buf);
        let req = match d.u8()? {
            0 => SrvReq::AllocExtents {
                count: d.u32()?,
                len: d.u64()?,
                synthetic: d.u8()? != 0,
                checksums: d.u8()? != 0,
            },
            1 => SrvReq::FreeExtents {
                extents: d.list(|d| Ok((d.u64()?, d.u64()?)))?,
            },
            2 => SrvReq::Replicate {
                src_node: d.u32()?,
                src_addr: d.u64()?,
                src_rkey: d.u64()?,
                dst_addr: d.u64()?,
                len: d.u64()?,
            },
            3 => SrvReq::SetAccess {
                rkey: d.u64()?,
                writable: d.u8()? != 0,
            },
            t => return Err(RStoreError::Protocol(format!("bad srv tag {t}"))),
        };
        d.finish()?;
        Ok(req)
    }
}

/// Memory-server responses to the master.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SrvResp {
    /// Allocated extents: `(addr, rkey, len)` per extent.
    Extents(Vec<(u64, u64, u64)>),
    /// Success without a payload.
    Ok,
    /// Failure, as a value: see [`Request::decode_reply`].
    Err(RStoreError),
}

impl SrvResp {
    /// Encodes the response.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            SrvResp::Extents(v) => {
                e.u8(0).list(v, |e, &(addr, rkey, len)| {
                    e.u64(addr).u64(rkey).u64(len);
                });
            }
            SrvResp::Ok => {
                e.u8(1);
            }
            SrvResp::Err(err) => {
                err.encode_into(e.u8(2));
            }
        }
        e.into_bytes()
    }

    /// Decodes a response.
    ///
    /// # Errors
    ///
    /// [`RStoreError::Protocol`] on malformed input.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let mut d = Dec::new(buf);
        let resp = match d.u8()? {
            0 => SrvResp::Extents(d.list(|d| Ok((d.u64()?, d.u64()?, d.u64()?)))?),
            1 => SrvResp::Ok,
            2 => SrvResp::Err(RStoreError::decode_from(&mut d)?),
            t => return Err(RStoreError::Protocol(format!("bad srvresp tag {t}"))),
        };
        d.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc() -> RegionDesc {
        RegionDesc {
            name: "data/matrix".into(),
            size: 300,
            stripe_size: 128,
            groups: vec![
                StripeGroup {
                    replicas: vec![
                        Extent {
                            node: 1,
                            addr: 0x1000,
                            rkey: 7,
                            len: 128,
                        },
                        Extent {
                            node: 2,
                            addr: 0x2000,
                            rkey: 8,
                            len: 128,
                        },
                    ],
                },
                StripeGroup {
                    replicas: vec![Extent {
                        node: 3,
                        addr: 0x3000,
                        rkey: 9,
                        len: 172,
                    }],
                },
            ],
            state: RegionState::Healthy,
            checksums: true,
        }
    }

    #[test]
    fn ctrl_req_round_trips() {
        let reqs = vec![
            CtrlReq::RegisterServer {
                node: 4,
                capacity: 1 << 30,
            },
            CtrlReq::Heartbeat { node: 4 },
            CtrlReq::Alloc {
                name: "a/b".into(),
                size: 4096,
                opts: AllocOptions {
                    stripe_size: 1024,
                    replicas: 3,
                    policy: Policy::CapacityWeighted,
                    synthetic: true,
                    checksums: false,
                },
            },
            CtrlReq::Alloc {
                name: "ck".into(),
                size: 4096,
                opts: AllocOptions {
                    checksums: true,
                    ..AllocOptions::default()
                },
            },
            CtrlReq::Lookup { name: "x".into() },
            CtrlReq::Free { name: "y".into() },
            CtrlReq::Stat,
            CtrlReq::Grow {
                name: "g".into(),
                additional: 1 << 20,
                opts: AllocOptions::default(),
            },
            CtrlReq::ReportCorruption {
                name: "bad/region".into(),
                group: 3,
                replica: 1,
                node: 9,
            },
            CtrlReq::ClusterStats,
            CtrlReq::Drain { node: 11 },
        ];
        for req in reqs {
            assert_eq!(CtrlReq::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn ctrl_resp_round_trips() {
        let resps = vec![
            CtrlResp::Ok,
            CtrlResp::Err(RStoreError::Remote("nope".into())),
            CtrlResp::Region(desc()),
            CtrlResp::Stats(ClusterStats {
                servers: 12,
                regions: 3,
                capacity: 1 << 40,
                used: 123,
                consistent: true,
            }),
            CtrlResp::Stats(ClusterStats {
                servers: 1,
                regions: 0,
                capacity: 0,
                used: 0,
                consistent: false,
            }),
            CtrlResp::Drained {
                extents: 42,
                bytes: 1 << 33,
            },
            CtrlResp::Report(ClusterReport {
                servers: vec![
                    ServerStats {
                        node: 1,
                        capacity: 1 << 30,
                        used: 4096,
                        alive: true,
                    },
                    ServerStats {
                        node: 2,
                        capacity: 1 << 30,
                        used: 0,
                        alive: false,
                    },
                ],
                regions: vec![
                    RegionStats {
                        name: "a/b".into(),
                        size: 1 << 20,
                        state: RegionState::Healthy,
                        corrupt_extents: 0,
                    },
                    RegionStats {
                        name: "c".into(),
                        size: 4096,
                        state: RegionState::Degraded,
                        corrupt_extents: 2,
                    },
                ],
                corruption_detected: 5,
                repaired_extents: 3,
                scrub_passes: 7,
            }),
            CtrlResp::Report(ClusterReport::default()),
            CtrlResp::Registered {
                lease: Duration::from_millis(500),
                retire: vec![],
            },
            CtrlResp::Registered {
                lease: Duration::from_millis(50),
                retire: vec![(0x1000, 7), (0x9000, 12)],
            },
        ];
        for resp in resps {
            assert_eq!(CtrlResp::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn truncated_report_errors_not_panics() {
        let bytes = CtrlResp::Report(ClusterReport {
            servers: vec![ServerStats {
                node: 1,
                capacity: 2,
                used: 3,
                alive: true,
            }],
            regions: vec![RegionStats {
                name: "r".into(),
                size: 9,
                state: RegionState::Healthy,
                corrupt_extents: 1,
            }],
            corruption_detected: 1,
            repaired_extents: 1,
            scrub_passes: 1,
        })
        .encode();
        for cut in 0..bytes.len() {
            assert!(
                CtrlResp::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn srv_messages_round_trip() {
        let reqs = vec![
            SrvReq::AllocExtents {
                count: 5,
                len: 1 << 20,
                synthetic: false,
                checksums: true,
            },
            SrvReq::FreeExtents {
                extents: vec![(1, 2), (3, 4)],
            },
            SrvReq::Replicate {
                src_node: 3,
                src_addr: 0x1000,
                src_rkey: 0xfeed,
                dst_addr: 0x2000,
                len: 1 << 16,
            },
            SrvReq::SetAccess {
                rkey: 0xbeef,
                writable: false,
            },
            SrvReq::SetAccess {
                rkey: 0x11,
                writable: true,
            },
        ];
        for req in reqs {
            assert_eq!(SrvReq::decode(&req.encode()).unwrap(), req);
        }
        let resps = vec![
            SrvResp::Extents(vec![(1, 2, 3), (4, 5, 6)]),
            SrvResp::Ok,
            SrvResp::Err(RStoreError::Remote("full".into())),
        ];
        for resp in resps {
            assert_eq!(SrvResp::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn truncated_messages_error_not_panic() {
        let bytes = CtrlResp::Region(desc()).encode();
        for cut in 0..bytes.len() {
            let r = CtrlResp::decode(&bytes[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes must not decode");
        }
    }

    #[test]
    fn counts_larger_than_the_message_error_not_abort() {
        // A count is four bytes anyone can send: nothing may be reserved
        // from it before the elements it claims have been seen.
        let huge = [0xff, 0xff, 0xff, 0xff];
        let report = [&[4u8][..], &huge].concat();
        assert!(matches!(
            CtrlResp::decode(&report),
            Err(RStoreError::Protocol(_))
        ));
        let extents = [&[0u8][..], &huge].concat();
        assert!(matches!(
            SrvResp::decode(&extents),
            Err(RStoreError::Protocol(_))
        ));
        let empty = RegionDesc {
            groups: vec![],
            ..desc()
        };
        let mut region = CtrlResp::Region(empty).encode();
        let at = region.len() - 4;
        region[at..].copy_from_slice(&huge);
        assert!(matches!(
            CtrlResp::decode(&region),
            Err(RStoreError::Protocol(_))
        ));
    }

    #[test]
    fn wire_errors_round_trip() {
        // What a peer constructs on purpose arrives as itself, whatever its
        // strings hold: quotes, digits, or the wording of another variant.
        let names = [
            "region-a",
            "a\"b",
            "shard-12/gen3",
            "jobs already exists",
            "no such region",
            "cannot satisfy allocation of 5 bytes",
            "corruption detected",
            "replication factor 3 exceeds live servers (1)",
            "",
        ];
        let mut errs = vec![
            RStoreError::InsufficientCapacity {
                requested: 123_456_789,
            },
            RStoreError::NotEnoughServers {
                replicas: 7,
                available: 4,
            },
        ];
        for name in names {
            errs.push(RStoreError::NameExists(name.into()));
            errs.push(RStoreError::NotFound(name.into()));
            errs.push(RStoreError::Protocol(name.into()));
            errs.push(RStoreError::Remote(name.into()));
        }
        for e in errs {
            let bytes = CtrlResp::Err(e.clone()).encode();
            assert_eq!(CtrlReq::decode_reply(&bytes), Err(e.clone()));
            let bytes = SrvResp::Err(e.clone()).encode();
            assert_eq!(SrvReq::decode_reply(&bytes), Err(e));
        }
        // What only its observer can construct is told in words: a client
        // must not mistake the master's transport failure for its own.
        let own = [
            RStoreError::Io(rdma::CqStatus::Timeout),
            RStoreError::Rdma(rdma::RdmaError::Timeout),
            RStoreError::Degraded("r".into()),
        ];
        for e in own {
            let bytes = CtrlResp::Err(e.clone()).encode();
            assert_eq!(
                CtrlReq::decode_reply(&bytes),
                Err(RStoreError::Remote(e.to_string()))
            );
        }
        // An answer that is not an error is the `Ok`.
        assert_eq!(
            CtrlReq::decode_reply(&CtrlResp::Ok.encode()),
            Ok(CtrlResp::Ok)
        );
        assert_eq!(SrvReq::decode_reply(&SrvResp::Ok.encode()), Ok(SrvResp::Ok));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = CtrlReq::Stat.encode();
        bytes.push(0);
        assert!(matches!(
            CtrlReq::decode(&bytes),
            Err(RStoreError::Protocol(_))
        ));
    }

    #[test]
    fn extent_alloc_len_adds_trailer_only_with_checksums() {
        assert_eq!(extent_alloc_len(128, false), 128);
        assert_eq!(extent_alloc_len(128, true), 128 + CK_BYTES);
        assert_eq!(extent_alloc_len(4096, true), 4096 + CK_BYTES);
        assert_eq!(extent_alloc_len(6 << 10, true), (6 << 10) + 2 * CK_BYTES);
        assert_eq!(extent_alloc_len(64 << 10, true), (64 << 10) + 16 * CK_BYTES);
    }

    #[test]
    fn stripe_group_len() {
        let d = desc();
        assert_eq!(d.groups[0].len(), 128);
        assert_eq!(d.groups[1].len(), 172);
        assert!(!d.groups[0].is_empty());
    }
}
