//! Control-plane wire protocol.
//!
//! RStore's control path runs classic two-sided RPC (SEND/RECV) between
//! clients, the master, and memory servers. Messages are encoded with a
//! tiny hand-rolled little-endian format — no external serialization crates.
//! A message's encoded length is its size on the simulated wire, so the
//! format is an output: a field added to a request moves control-path
//! latencies.
//!
//! Everything on the wire is [`Wire`]. The field types — integers, `bool`,
//! `String`, `Duration`, lists, pairs and triples — are coded by hand, once
//! each. A message's wire form is one declaration listing its fields in
//! wire order (`wire_struct!`, or `wire_enum!` with a tag byte per
//! variant), and both its encoder and its decoder are generated from that
//! list, so a layout is written down exactly once. A counted list reserves
//! nothing from a count it has not seen the elements of.
//!
//! An error reply carries an [`RStoreError`] as a value (a tag and the
//! variant's fields), never its message.

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

// --- wire forms ---------------------------------------------------------------

/// A value with a wire form, written by [`put`](Self::put) and read back by
/// [`take`](Self::take).
pub trait Wire: Sized {
    /// Appends the wire form of `self`.
    fn put(&self, out: &mut Vec<u8>);

    /// Reads one value.
    ///
    /// # Errors
    ///
    /// [`RStoreError::Protocol`] on malformed input.
    fn take(d: &mut Dec<'_>) -> Result<Self>;

    /// Encodes `self` as one message.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.put(&mut out);
        out
    }

    /// Decodes one message, which must be exactly one value long.
    ///
    /// # Errors
    ///
    /// [`RStoreError::Protocol`] on malformed input or trailing bytes.
    fn decode(buf: &[u8]) -> Result<Self> {
        let mut d = Dec { buf, pos: 0 };
        let v = Self::take(&mut d)?;
        match buf.len() - d.pos {
            0 => Ok(v),
            n => Err(RStoreError::Protocol(format!("{n} trailing bytes"))),
        }
    }
}

/// A read cursor over one message, handed to [`Wire::take`].
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
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
}

/// Little-endian integers.
macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn take(d: &mut Dec<'_>) -> Result<Self> {
                let bytes = d.bytes(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("width")))
            }
        }
    )*};
}

wire_int!(u8, u32, u64);

/// One byte; anything but 0 reads as `true`.
impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }

    fn take(d: &mut Dec<'_>) -> Result<Self> {
        Ok(u8::take(d)? != 0)
    }
}

/// A `u32` byte length, then the UTF-8 bytes.
impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn take(d: &mut Dec<'_>) -> Result<Self> {
        let n = u32::take(d)? as usize;
        String::from_utf8(d.bytes(n)?.to_vec())
            .map_err(|_| RStoreError::Protocol("invalid utf-8 in string".into()))
    }
}

/// Whole nanoseconds, as a `u64`.
impl Wire for Duration {
    fn put(&self, out: &mut Vec<u8>) {
        (self.as_nanos() as u64).put(out);
    }

    fn take(d: &mut Dec<'_>) -> Result<Self> {
        Ok(Duration::from_nanos(u64::take(d)?))
    }
}

/// A `u32` count, then the elements. Nothing is reserved from the count — it
/// is four bytes anyone can send, and `Vec::with_capacity` of it aborts the
/// process: the list grows as elements decode, and a message shorter than
/// its count claims fails at the first missing element.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        for x in self {
            x.put(out);
        }
    }

    fn take(d: &mut Dec<'_>) -> Result<Self> {
        (0..u32::take(d)?).map(|_| T::take(d)).collect()
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }

    fn take(d: &mut Dec<'_>) -> Result<Self> {
        Ok((A::take(d)?, B::take(d)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
        self.2.put(out);
    }

    fn take(d: &mut Dec<'_>) -> Result<Self> {
        Ok((A::take(d)?, B::take(d)?, C::take(d)?))
    }
}

/// Declares a struct's wire form: its fields, in wire order.
macro_rules! wire_struct {
    ($t:ident: $($f:ident),* $(,)?) => {
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$f.put(out);)*
            }

            fn take(d: &mut Dec<'_>) -> Result<Self> {
                Ok($t { $($f: Wire::take(d)?),* })
            }
        }
    };
}

/// Declares an enum's wire form: per variant, its tag byte, then its fields
/// in wire order — `{ named, fields }`, `(one)` for a one-field tuple
/// variant, or nothing.
macro_rules! wire_enum {
    ($t:ident { $($tag:literal => $v:ident $(($x:ident))? $({ $($f:ident),* })?),* $(,)? }) => {
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($t::$v $(($x))? $({ $($f),* })? => {
                        out.push($tag);
                        $($x.put(out);)?
                        $($($f.put(out);)*)?
                    })*
                }
            }

            fn take(d: &mut Dec<'_>) -> Result<Self> {
                Ok(match u8::take(d)? {
                    $($tag => {
                        $(let $x = Wire::take(d)?;)?
                        $($(let $f = Wire::take(d)?;)*)?
                        $t::$v $(($x))? $({ $($f),* })?
                    })*
                    t => {
                        let msg = format!("bad {} tag {t}", stringify!($t));
                        return Err(RStoreError::Protocol(msg));
                    }
                })
            }
        }
    };
}

// --- errors -------------------------------------------------------------------

/// Appends `tag` for a variant's fields to follow.
fn tagged(out: &mut Vec<u8>, tag: u8) -> &mut Vec<u8> {
    out.push(tag);
    out
}

/// The wire form of an error reply: a tag, then the variant's fields. The
/// variants a master or memory server constructs on purpose cross as
/// themselves. The rest describe the side that observed them — its own
/// transport (`Rdma`, `Io`), its own view of a region (`Degraded`,
/// `OutOfRange`, `CorruptionDetected`) — and mean something else in the
/// receiver's hands (a client retries on its *own* `Io`), so a peer is told
/// of them in words, as `Remote`. Written by hand: that fold is no field
/// list.
impl Wire for RStoreError {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            RStoreError::NameExists(name) => name.put(tagged(out, 0)),
            RStoreError::NotFound(name) => name.put(tagged(out, 1)),
            RStoreError::InsufficientCapacity { requested } => requested.put(tagged(out, 2)),
            RStoreError::NotEnoughServers {
                replicas,
                available,
            } => (*replicas as u32, *available as u32).put(tagged(out, 3)),
            RStoreError::Protocol(m) => m.put(tagged(out, 4)),
            RStoreError::Remote(m) => m.put(tagged(out, 5)),
            RStoreError::Rdma(_)
            | RStoreError::Io(_)
            | RStoreError::Degraded(_)
            | RStoreError::OutOfRange { .. }
            | RStoreError::CorruptionDetected { .. } => self.to_string().put(tagged(out, 5)),
        }
    }

    fn take(d: &mut Dec<'_>) -> Result<Self> {
        Ok(match u8::take(d)? {
            0 => RStoreError::NameExists(Wire::take(d)?),
            1 => RStoreError::NotFound(Wire::take(d)?),
            2 => RStoreError::InsufficientCapacity {
                requested: Wire::take(d)?,
            },
            3 => {
                let (replicas, available) = <(u32, u32)>::take(d)?;
                RStoreError::NotEnoughServers {
                    replicas: replicas as usize,
                    available: available as usize,
                }
            }
            4 => RStoreError::Protocol(Wire::take(d)?),
            5 => RStoreError::Remote(Wire::take(d)?),
            t => return Err(RStoreError::Protocol(format!("bad error tag {t}"))),
        })
    }
}

/// A control-plane request: what [`Channel`](crate::rpc::Channel) sends and
/// how the answer to it is read.
pub trait Request: Wire {
    /// The reply a peer answers with when it does not answer with an error.
    type Reply;

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

wire_struct!(Extent: node, addr, rkey, len);

/// A stripe and its replicas (index 0 is the primary).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StripeGroup {
    /// One extent per replica; all the same length.
    pub replicas: Vec<Extent>,
}

wire_struct!(StripeGroup: replicas);

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

wire_enum!(RegionState {
    0 => Healthy,
    1 => Degraded,
});

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

// Wire order is not declaration order: the groups go last.
wire_struct!(RegionDesc: name, size, stripe_size, state, checksums, groups);

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

wire_enum!(Policy {
    0 => RoundRobin,
    1 => Random,
    2 => CapacityWeighted,
});

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

wire_struct!(AllocOptions: stripe_size, replicas, policy, synthetic, checksums);

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

wire_enum!(CtrlReq {
    0 => RegisterServer { node, capacity },
    1 => Heartbeat { node },
    2 => Alloc { name, size, opts },
    3 => Lookup { name },
    4 => Free { name },
    5 => Stat,
    6 => Grow { name, additional, opts },
    7 => ReportCorruption { name, group, replica, node },
    8 => ClusterStats,
    9 => Drain { node },
});

impl Request for CtrlReq {
    type Reply = CtrlResp;

    fn decode_reply(buf: &[u8]) -> Result<CtrlResp> {
        match CtrlResp::decode(buf)? {
            CtrlResp::Err(e) => Err(e),
            reply => Ok(reply),
        }
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

wire_struct!(ClusterStats: servers, regions, capacity, used, consistent);

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

wire_struct!(ServerStats: node, capacity, used, alive);

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

wire_struct!(RegionStats: name, size, state, corrupt_extents);

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

wire_struct!(ClusterReport: servers, regions, corruption_detected, repaired_extents, scrub_passes);

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

wire_enum!(CtrlResp {
    0 => Ok,
    1 => Err(e),
    2 => Region(desc),
    3 => Stats(s),
    4 => Report(r),
    5 => Drained { extents, bytes },
    6 => Registered { lease, retire },
});

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

wire_enum!(SrvReq {
    0 => AllocExtents { count, len, synthetic, checksums },
    1 => FreeExtents { extents },
    2 => Replicate { src_node, src_addr, src_rkey, dst_addr, len },
    3 => SetAccess { rkey, writable },
});

impl Request for SrvReq {
    type Reply = SrvResp;

    fn decode_reply(buf: &[u8]) -> Result<SrvResp> {
        match SrvResp::decode(buf)? {
            SrvResp::Err(e) => Err(e),
            reply => Ok(reply),
        }
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

wire_enum!(SrvResp {
    0 => Extents(extents),
    1 => Ok,
    2 => Err(e),
});

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

    /// One instance of every variant of the four messages, every wire error
    /// and every error folded to `Remote`, encoded.
    fn corpus() -> Vec<Vec<u8>> {
        let opts = AllocOptions {
            stripe_size: 1024,
            replicas: 3,
            policy: Policy::CapacityWeighted,
            synthetic: true,
            checksums: false,
        };
        let grow = AllocOptions {
            policy: Policy::Random,
            checksums: true,
            ..AllocOptions::default()
        };
        let name = || String::from("régión/名");
        let mut out = vec![
            CtrlReq::RegisterServer {
                node: 4,
                capacity: 1 << 30,
            }
            .encode(),
            CtrlReq::Heartbeat { node: 4 }.encode(),
            CtrlReq::Alloc {
                name: "a/b".into(),
                size: 4096,
                opts,
            }
            .encode(),
            CtrlReq::Lookup { name: name() }.encode(),
            CtrlReq::Free { name: "y".into() }.encode(),
            CtrlReq::Stat.encode(),
            CtrlReq::Grow {
                name: "g".into(),
                additional: 1 << 20,
                opts: grow,
            }
            .encode(),
            CtrlReq::ReportCorruption {
                name: "bad".into(),
                group: 3,
                replica: 1,
                node: 9,
            }
            .encode(),
            CtrlReq::ClusterStats.encode(),
            CtrlReq::Drain { node: 11 }.encode(),
            CtrlResp::Ok.encode(),
            CtrlResp::Region(desc()).encode(),
            CtrlResp::Region(RegionDesc {
                state: RegionState::Degraded,
                checksums: false,
                groups: vec![],
                ..desc()
            })
            .encode(),
            CtrlResp::Stats(ClusterStats {
                servers: 12,
                regions: 3,
                capacity: 1 << 40,
                used: 123,
                consistent: true,
            })
            .encode(),
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
                        name: name(),
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
            })
            .encode(),
            CtrlResp::Drained {
                extents: 42,
                bytes: 1 << 33,
            }
            .encode(),
            CtrlResp::Registered {
                lease: Duration::from_millis(50),
                retire: vec![(0x1000, 7), (0x9000, 12)],
            }
            .encode(),
            SrvReq::AllocExtents {
                count: 5,
                len: 1 << 20,
                synthetic: false,
                checksums: true,
            }
            .encode(),
            SrvReq::FreeExtents {
                extents: vec![(1, 2), (3, 4)],
            }
            .encode(),
            SrvReq::Replicate {
                src_node: 3,
                src_addr: 0x1000,
                src_rkey: 0xfeed,
                dst_addr: 0x2000,
                len: 1 << 16,
            }
            .encode(),
            SrvReq::SetAccess {
                rkey: 0xbeef,
                writable: true,
            }
            .encode(),
            SrvResp::Extents(vec![(1, 2, 3), (4, 5, 6)]).encode(),
            SrvResp::Ok.encode(),
            SrvResp::Err(RStoreError::NotFound(name())).encode(),
            SrvResp::Err(RStoreError::Io(rdma::CqStatus::Flushed)).encode(),
        ];
        let errs = [
            RStoreError::NameExists(name()),
            RStoreError::NotFound("x".into()),
            RStoreError::InsufficientCapacity {
                requested: 123_456_789,
            },
            RStoreError::NotEnoughServers {
                replicas: 7,
                available: 4,
            },
            RStoreError::Protocol("p".into()),
            RStoreError::Remote("r".into()),
            RStoreError::Rdma(rdma::RdmaError::Timeout),
            RStoreError::Io(rdma::CqStatus::Timeout),
            RStoreError::Degraded("d".into()),
            RStoreError::OutOfRange {
                offset: 10,
                len: 20,
                size: 16,
            },
            RStoreError::CorruptionDetected {
                node: 2,
                region: "z".into(),
                stripe: 5,
            },
        ];
        out.extend(errs.into_iter().map(|e| CtrlResp::Err(e).encode()));
        out
    }

    /// [`corpus`] in hex, pinned: a field reordered or resized in the
    /// encoder and the decoder at once still round-trips, but fails here.
    const GOLDEN: [&str; 36] = [
        "00040000000000004000000000",
        "0104000000",
        "0203000000612f620010000000000000000400000000000003020100",
        "030c00000072c3a96769c3b36e2fe5908d",
        "040100000079",
        "05",
        "0601000000670000100000000000000000010000000001010001",
        "0703000000626164030000000100000009000000",
        "08",
        "090b000000",
        "00",
        "020b000000646174612f6d61747269782c010000000000008000000000000000000102000000020000000100000000100000000000000700000000000000800000000000000002000000002000000000000008000000000000008000000000000000010000000300000000300000000000000900000000000000ac00000000000000",
        "020b000000646174612f6d61747269782c010000000000008000000000000000010000000000",
        "030c0000000300000000000000000100007b0000000000000001",
        "0402000000010000000000004000000000001000000000000001020000000000004000000000000000000000000000020000000c00000072c3a96769c3b36e2fe5908d00001000000000000000000000010000006300100000000000000102000000050000000000000003000000000000000700000000000000",
        "052a000000000000000000000002000000",
        "0680f0fa0200000000020000000010000000000000070000000000000000900000000000000c00000000000000",
        "000500000000001000000000000001",
        "01020000000100000000000000020000000000000003000000000000000400000000000000",
        "02030000000010000000000000edfe00000000000000200000000000000000010000000000",
        "03efbe00000000000001",
        "0002000000010000000000000002000000000000000300000000000000040000000000000005000000000000000600000000000000",
        "01",
        "02010c00000072c3a96769c3b36e2fe5908d",
        "020528000000696f206661696c6564207769746820636f6d706c6574696f6e2073746174757320466c7573686564",
        "01000c00000072c3a96769c3b36e2fe5908d",
        "01010100000078",
        "010215cd5b0700000000",
        "01030700000004000000",
        "01040100000070",
        "01050100000072",
        "01051900000072646d613a206f7065726174696f6e2074696d6564206f7574",
        "010528000000696f206661696c6564207769746820636f6d706c6574696f6e207374617475732054696d656f7574",
        "01052b000000726567696f6e2022642220697320646567726164656420286d656d6f72792073657276657220646f776e29",
        "01052b000000616363657373205b31302c202b323029206f75747369646520726567696f6e206f66203136206279746573",
        "01054f000000636f7272757074696f6e20646574656374656420696e20726567696f6e20227a223a20737472697065203520756e7265616461626c6520286c617374207265706c696361206f6e206e6f6465203229",
    ];

    #[test]
    fn wire_bytes_match_the_golden_corpus() {
        let hex: Vec<String> = corpus()
            .iter()
            .map(|m| m.iter().map(|b| format!("{b:02x}")).collect())
            .collect();
        assert_eq!(hex, GOLDEN);
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
