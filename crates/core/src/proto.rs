//! Control-plane wire protocol.
//!
//! RStore's control path runs classic two-sided RPC (SEND/RECV) between
//! clients, the master, and memory servers. Messages are encoded with a
//! tiny hand-rolled little-endian format — no external serialization crates.
//! A message's encoded length is its size on the simulated wire, so the
//! format is an output: a field added to a request moves control-path
//! latencies.
//!
//! Everything on the wire is [`Wire`]. The field types — numbers, `bool`,
//! `()`, `String`, `Duration`, lists, pairs, triples and `Result` — are coded
//! by hand, once each. A message's wire form is one declaration listing its
//! fields in wire order (`wire_struct!`, or
//! [`wire_requests!`](crate::wire_requests) for a service's requests), and
//! both its encoder and its decoder are generated from that list, so a
//! layout is written down exactly once. A counted list reserves nothing from
//! a count it has not seen the elements of.
//!
//! Every request is a type of its own whose [`Request`] impl names the one
//! reply it is answered with. A reply crosses the wire as `Result<Reply>`:
//! tag 0 and the value, or tag 1 and an [`RStoreError`] as a value (a tag
//! and the variant's fields), never its message.

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

    /// Appends the elements of a list: one at a time, unless the type has a
    /// bulk form (bytes do).
    fn put_list(xs: &[Self], out: &mut Vec<u8>) {
        xs.iter().for_each(|x| x.put(out));
    }

    /// Reads the `n` elements of a list.
    ///
    /// # Errors
    ///
    /// [`RStoreError::Protocol`] on malformed input.
    fn take_list(d: &mut Dec<'_>, n: usize) -> Result<Vec<Self>> {
        (0..n).map(|_| Self::take(d)).collect()
    }

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

/// Little-endian numbers.
macro_rules! wire_num {
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

wire_num!(u32, u64, f64);

/// One byte. A list of bytes is copied in bulk.
impl Wire for u8 {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn take(d: &mut Dec<'_>) -> Result<Self> {
        Ok(d.bytes(1)?[0])
    }

    fn put_list(xs: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(xs);
    }

    fn take_list(d: &mut Dec<'_>, n: usize) -> Result<Vec<u8>> {
        Ok(d.bytes(n)?.to_vec())
    }
}

/// One byte; anything but 0 reads as `true`.
impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }

    fn take(d: &mut Dec<'_>) -> Result<Self> {
        Ok(u8::take(d)? != 0)
    }
}

/// Nothing: the reply of a request that can only succeed or fail.
impl Wire for () {
    fn put(&self, _: &mut Vec<u8>) {}

    fn take(_: &mut Dec<'_>) -> Result<Self> {
        Ok(())
    }
}

/// A `u32` byte length, then the UTF-8 bytes.
impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn take(d: &mut Dec<'_>) -> Result<Self> {
        String::from_utf8(Vec::take(d)?)
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
        T::put_list(self, out);
    }

    fn take(d: &mut Dec<'_>) -> Result<Self> {
        let n = u32::take(d)? as usize;
        T::take_list(d, n)
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

/// Declares a fieldless enum's wire form: a tag byte per variant.
macro_rules! wire_enum {
    ($t:ident { $($tag:literal => $v:ident),* $(,)? }) => {
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.push(match self {
                    $($t::$v => $tag,)*
                });
            }

            fn take(d: &mut Dec<'_>) -> Result<Self> {
                Ok(match u8::take(d)? {
                    $($tag => $t::$v,)*
                    t => return Err(bad_tag(stringify!($t), t)),
                })
            }
        }
    };
}

/// Declares a service's requests and the enum the service decodes them as.
/// Per request: its tag byte, its fields in wire order and its exact reply.
/// A request is a struct of its own; it crosses the wire as its tag, then its
/// fields, whether it is sent alone or read back as the enum's variant of the
/// same name, which holds it.
#[macro_export]
macro_rules! wire_requests {
    (
        $(#[$m:meta])*
        $vis:vis enum $t:ident {$(
            $(#[$vm:meta])*
            $tag:literal => $v:ident { $($(#[$fm:meta])* $f:ident: $ft:ty),* $(,)? } -> $reply:ty
        ),* $(,)?}
    ) => {
        $(
            $(#[$vm])*
            #[derive(Clone, PartialEq, Eq, Debug)]
            $vis struct $v {
                $($(#[$fm])* pub $f: $ft,)*
            }

            impl $crate::proto::Wire for $v {
                fn put(&self, out: &mut Vec<u8>) {
                    out.push($tag);
                    $($crate::proto::Wire::put(&self.$f, out);)*
                }

                fn take(d: &mut $crate::proto::Dec<'_>) -> $crate::Result<Self> {
                    match <u8 as $crate::proto::Wire>::take(d)? {
                        $tag => Ok($v { $($f: $crate::proto::Wire::take(d)?),* }),
                        t => Err($crate::proto::bad_tag(stringify!($v), t)),
                    }
                }
            }

            impl $crate::proto::Request for $v {
                type Reply = $reply;
            }
        )*

        $(#[$m])*
        #[derive(Clone, PartialEq, Eq, Debug)]
        $vis enum $t {
            $(#[doc = concat!("A [`", stringify!($v), "`].")]
            $v($v),)*
        }

        impl $crate::proto::Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($t::$v(req) => $crate::proto::Wire::put(req, out),)*
                }
            }

            fn take(d: &mut $crate::proto::Dec<'_>) -> $crate::Result<Self> {
                Ok(match <u8 as $crate::proto::Wire>::take(d)? {
                    $($tag => $t::$v($v { $($f: $crate::proto::Wire::take(d)?),* }),)*
                    t => return Err($crate::proto::bad_tag(stringify!($t), t)),
                })
            }
        }
    };
}

/// The error a decoder meets at tag `t`, which no variant of `what` has.
#[doc(hidden)]
pub fn bad_tag(what: &str, t: u8) -> RStoreError {
    RStoreError::Protocol(format!("bad {what} tag {t}"))
}

// --- errors and replies ---------------------------------------------------------

/// Appends `tag` for a variant's fields to follow.
fn tagged(out: &mut Vec<u8>, tag: u8) -> &mut Vec<u8> {
    out.push(tag);
    out
}

/// The wire form of an error: a tag, then the variant's fields. The
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
            t => return Err(bad_tag("error", t)),
        })
    }
}

/// A reply: tag 0 and the value, or tag 1 and the error the request failed
/// with. The error form is the same bytes whatever the value's type.
impl<T: Wire> Wire for Result<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Ok(v) => v.put(tagged(out, 0)),
            Err(e) => e.put(tagged(out, 1)),
        }
    }

    fn take(d: &mut Dec<'_>) -> Result<Self> {
        match u8::take(d)? {
            0 => T::take(d).map(Ok),
            1 => RStoreError::take(d).map(Err),
            t => Err(bad_tag("reply", t)),
        }
    }
}

/// A request: what [`Channel`](crate::rpc::Channel) sends, and the one type
/// a peer answers it with.
pub trait Request: Wire {
    /// The answer to a request of this type that succeeded.
    type Reply: Wire;

    /// Encodes a handler's answer: the reply, or the error the request
    /// failed with.
    fn encode_reply(answer: Result<Self::Reply>) -> Vec<u8> {
        answer.encode()
    }

    /// Decodes the answer. An error reply is the `Err` it carries.
    ///
    /// # Errors
    ///
    /// The peer's error, or [`RStoreError::Protocol`] on malformed input.
    fn decode_reply(buf: &[u8]) -> Result<Self::Reply> {
        Result::<Self::Reply>::decode(buf)?
    }
}

/// The error reply, which reads the same whatever was asked: what a service
/// answers a request that does not decode, or one whose reply outgrows the
/// RPC buffer.
pub fn error_reply(e: RStoreError) -> Vec<u8> {
    Result::<()>::Err(e).encode()
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

/// The reply to [`RegisterServer`]: the terms the server serves under from
/// now on.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Registration {
    /// How long one acknowledged beat keeps the server's extents remotely
    /// accessible, counted from when the server *sent* it. A server that
    /// lets this pass unrenewed must revoke all remote access itself: the
    /// master may by then be replacing its extents.
    pub lease: Duration,
    /// `(addr, rkey)` of extents the master replaced or freed while it could
    /// not reach the server. The server frees these before it restores any
    /// access.
    pub retire: Vec<(u64, u64)>,
}

wire_struct!(Registration: lease, retire);

wire_requests! {
    /// Requests a client or memory server sends to the master, as the master
    /// decodes them.
    pub enum CtrlReq {
        /// A memory server announces itself and its donated capacity.
        0 => RegisterServer {
            /// Fabric node of the server.
            node: u32,
            /// Donated bytes.
            capacity: u64,
        } -> Registration,
        /// Periodic liveness beacon from a memory server; an acknowledged
        /// one renews its lease. Answered with an error once the master has
        /// declared the server dead — or forgotten it — which sends the
        /// server back to [`RegisterServer`].
        1 => Heartbeat {
            /// Fabric node of the server.
            node: u32,
        } -> (),
        /// Allocate a named region.
        2 => Alloc {
            /// Region name (must be fresh).
            name: String,
            /// Logical size in bytes.
            size: u64,
            /// Allocation options.
            opts: AllocOptions,
        } -> RegionDesc,
        /// Fetch the descriptor of an existing region.
        3 => Lookup {
            /// Region name.
            name: String,
        } -> RegionDesc,
        /// Destroy a region and reclaim its memory.
        4 => Free {
            /// Region name.
            name: String,
        } -> (),
        /// Cluster statistics (for tooling and tests).
        5 => Stat {} -> ClusterStats,
        /// Extend an existing region by `additional` bytes (new stripes are
        /// appended; existing data and descriptors remain valid).
        6 => Grow {
            /// Region name.
            name: String,
            /// Bytes to append.
            additional: u64,
            /// Placement options for the new stripes (stripe size is taken
            /// from the existing region, not from here).
            opts: AllocOptions,
        } -> RegionDesc,
        /// A client's verified READ caught a checksum mismatch on one
        /// replica: tell the master so repair can re-replicate the damaged
        /// extent.
        7 => ReportCorruption {
            /// Region name.
            name: String,
            /// Stripe-group index of the bad extent.
            group: u32,
            /// Replica index within the group.
            replica: u32,
            /// Node the client observed the bad bytes on (validated against
            /// the descriptor before the mark is accepted).
            node: u32,
        } -> (),
        /// Live cluster introspection: per-server capacity and liveness,
        /// per-region health, and corruption/repair counts as of the current
        /// virtual time. The flat [`Stat`] totals remain for cheap checks.
        8 => Report {} -> ClusterReport,
        /// Gracefully drain a memory server: migrate every extent it hosts
        /// onto other servers, then deregister it. Answered with
        /// `(extents, bytes)` migrated off it, or with a structured
        /// `InsufficientCapacity` when the remaining cluster cannot absorb
        /// the data.
        9 => Drain {
            /// Fabric node of the server to drain.
            node: u32,
        } -> (u64, u64),
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

/// Full cluster introspection report, the reply to [`Report`]: a live view
/// of per-server capacity, per-region health, and the master's
/// corruption/repair counters at the current virtual time.
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

// --- master/server control messages -------------------------------------------

wire_requests! {
    /// Requests the master sends to a memory server, as the server decodes
    /// them.
    pub enum SrvReq {
        /// Allocate and register `count` extents of `len` bytes each.
        /// Answered with `(addr, rkey, len)` per extent.
        0 => AllocExtents {
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
        } -> Vec<(u64, u64, u64)>,
        /// Free previously allocated extents by start address.
        1 => FreeExtents {
            /// `(addr, len)` pairs, where `len` is the *physical* allocation
            /// length ([`extent_alloc_len`] of the granted logical length).
            extents: Vec<(u64, u64)>,
        } -> (),
        /// Pull a remote extent into a local one over the data path (the
        /// copy step of an extent move): the receiving server issues a
        /// one-sided READ from `src_node` into `dst_addr`.
        2 => Replicate {
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
        } -> (),
        /// Change the remote rights on a registered extent without
        /// invalidating its rkey. An extent move seals the extent it
        /// replaces read-only (`writable: false`) before the copy so no
        /// client WRITE/CAS can be acknowledged on it between the
        /// point-in-time copy and the descriptor swap — sealed writers fault
        /// with `RemoteAccess`, refresh the descriptor, and retry on the new
        /// replica set. `writable: true` restores full rights (rollback
        /// path).
        3 => SetAccess {
            /// rkey of the extent's registration.
            rkey: u64,
            /// `false` seals to read-only; `true` restores read/write/atomic.
            writable: bool,
        } -> (),
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

    fn report() -> ClusterReport {
        ClusterReport {
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
                    name: "régión/名".into(),
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
        }
    }

    /// One instance of every request, of every reply type, of every wire
    /// error and of every error folded to `Remote`, encoded as it is sent.
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
            RegisterServer {
                node: 4,
                capacity: 1 << 30,
            }
            .encode(),
            Heartbeat { node: 4 }.encode(),
            Alloc {
                name: "a/b".into(),
                size: 4096,
                opts,
            }
            .encode(),
            Lookup { name: name() }.encode(),
            Free { name: "y".into() }.encode(),
            Stat {}.encode(),
            Grow {
                name: "g".into(),
                additional: 1 << 20,
                opts: grow,
            }
            .encode(),
            ReportCorruption {
                name: "bad".into(),
                group: 3,
                replica: 1,
                node: 9,
            }
            .encode(),
            Report {}.encode(),
            Drain { node: 11 }.encode(),
            Free::encode_reply(Ok(())),
            Alloc::encode_reply(Ok(desc())),
            Lookup::encode_reply(Ok(RegionDesc {
                state: RegionState::Degraded,
                checksums: false,
                groups: vec![],
                ..desc()
            })),
            Stat::encode_reply(Ok(ClusterStats {
                servers: 12,
                regions: 3,
                capacity: 1 << 40,
                used: 123,
                consistent: true,
            })),
            Report::encode_reply(Ok(report())),
            Drain::encode_reply(Ok((42, 1 << 33))),
            RegisterServer::encode_reply(Ok(Registration {
                lease: Duration::from_millis(50),
                retire: vec![(0x1000, 7), (0x9000, 12)],
            })),
            AllocExtents {
                count: 5,
                len: 1 << 20,
                synthetic: false,
                checksums: true,
            }
            .encode(),
            FreeExtents {
                extents: vec![(1, 2), (3, 4)],
            }
            .encode(),
            Replicate {
                src_node: 3,
                src_addr: 0x1000,
                src_rkey: 0xfeed,
                dst_addr: 0x2000,
                len: 1 << 16,
            }
            .encode(),
            SetAccess {
                rkey: 0xbeef,
                writable: true,
            }
            .encode(),
            AllocExtents::encode_reply(Ok(vec![(1, 2, 3), (4, 5, 6)])),
            FreeExtents::encode_reply(Ok(())),
            SetAccess::encode_reply(Err(RStoreError::NotFound(name()))),
            Replicate::encode_reply(Err(RStoreError::Io(rdma::CqStatus::Flushed))),
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
        out.extend(errs.into_iter().map(|e| Alloc::encode_reply(Err(e))));
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
        "000b000000646174612f6d61747269782c010000000000008000000000000000000102000000020000000100000000100000000000000700000000000000800000000000000002000000002000000000000008000000000000008000000000000000010000000300000000300000000000000900000000000000ac00000000000000",
        "000b000000646174612f6d61747269782c010000000000008000000000000000010000000000",
        "000c0000000300000000000000000100007b0000000000000001",
        "0002000000010000000000004000000000001000000000000001020000000000004000000000000000000000000000020000000c00000072c3a96769c3b36e2fe5908d00001000000000000000000000010000006300100000000000000102000000050000000000000003000000000000000700000000000000",
        "002a000000000000000000000002000000",
        "0080f0fa0200000000020000000010000000000000070000000000000000900000000000000c00000000000000",
        "000500000000001000000000000001",
        "01020000000100000000000000020000000000000003000000000000000400000000000000",
        "02030000000010000000000000edfe00000000000000200000000000000000010000000000",
        "03efbe00000000000001",
        "0002000000010000000000000002000000000000000300000000000000040000000000000005000000000000000600000000000000",
        "00",
        "01010c00000072c3a96769c3b36e2fe5908d",
        "010528000000696f206661696c6564207769746820636f6d706c6574696f6e2073746174757320466c7573686564",
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
            CtrlReq::RegisterServer(RegisterServer {
                node: 4,
                capacity: 1 << 30,
            }),
            CtrlReq::Heartbeat(Heartbeat { node: 4 }),
            CtrlReq::Alloc(Alloc {
                name: "a/b".into(),
                size: 4096,
                opts: AllocOptions {
                    stripe_size: 1024,
                    replicas: 3,
                    policy: Policy::CapacityWeighted,
                    synthetic: true,
                    checksums: false,
                },
            }),
            CtrlReq::Alloc(Alloc {
                name: "ck".into(),
                size: 4096,
                opts: AllocOptions {
                    checksums: true,
                    ..AllocOptions::default()
                },
            }),
            CtrlReq::Lookup(Lookup { name: "x".into() }),
            CtrlReq::Free(Free { name: "y".into() }),
            CtrlReq::Stat(Stat {}),
            CtrlReq::Grow(Grow {
                name: "g".into(),
                additional: 1 << 20,
                opts: AllocOptions::default(),
            }),
            CtrlReq::ReportCorruption(ReportCorruption {
                name: "bad/region".into(),
                group: 3,
                replica: 1,
                node: 9,
            }),
            CtrlReq::Report(Report {}),
            CtrlReq::Drain(Drain { node: 11 }),
        ];
        for req in reqs {
            assert_eq!(CtrlReq::decode(&req.encode()).unwrap(), req);
        }
        // A request sent alone is the bytes of its variant, and reads back
        // only as itself.
        let alone = Lookup { name: "x".into() };
        assert_eq!(alone.encode(), CtrlReq::Lookup(alone.clone()).encode());
        assert_eq!(Lookup::decode(&alone.encode()), Ok(alone));
        assert!(Free::decode(&Stat {}.encode()).is_err());
    }

    /// `Q`'s answer `answer` decodes back to itself.
    fn reply_round_trips<Q: Request>(answer: Result<Q::Reply>)
    where
        Q::Reply: Clone + PartialEq + std::fmt::Debug,
    {
        assert_eq!(Q::decode_reply(&Q::encode_reply(answer.clone())), answer);
    }

    #[test]
    fn ctrl_resp_round_trips() {
        reply_round_trips::<Free>(Ok(()));
        reply_round_trips::<Lookup>(Err(RStoreError::Remote("nope".into())));
        reply_round_trips::<Alloc>(Ok(desc()));
        reply_round_trips::<Stat>(Ok(ClusterStats {
            servers: 12,
            regions: 3,
            capacity: 1 << 40,
            used: 123,
            consistent: true,
        }));
        reply_round_trips::<Stat>(Ok(ClusterStats {
            servers: 1,
            regions: 0,
            capacity: 0,
            used: 0,
            consistent: false,
        }));
        reply_round_trips::<Drain>(Ok((42, 1 << 33)));
        reply_round_trips::<Report>(Ok(report()));
        reply_round_trips::<Report>(Ok(ClusterReport::default()));
        reply_round_trips::<RegisterServer>(Ok(Registration {
            lease: Duration::from_millis(500),
            retire: vec![],
        }));
        reply_round_trips::<RegisterServer>(Ok(Registration {
            lease: Duration::from_millis(50),
            retire: vec![(0x1000, 7), (0x9000, 12)],
        }));
    }

    #[test]
    fn truncated_report_errors_not_panics() {
        let bytes = Report::encode_reply(Ok(ClusterReport {
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
        }));
        for cut in 0..bytes.len() {
            assert!(
                Result::<ClusterReport>::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn srv_messages_round_trip() {
        let reqs = vec![
            SrvReq::AllocExtents(AllocExtents {
                count: 5,
                len: 1 << 20,
                synthetic: false,
                checksums: true,
            }),
            SrvReq::FreeExtents(FreeExtents {
                extents: vec![(1, 2), (3, 4)],
            }),
            SrvReq::Replicate(Replicate {
                src_node: 3,
                src_addr: 0x1000,
                src_rkey: 0xfeed,
                dst_addr: 0x2000,
                len: 1 << 16,
            }),
            SrvReq::SetAccess(SetAccess {
                rkey: 0xbeef,
                writable: false,
            }),
            SrvReq::SetAccess(SetAccess {
                rkey: 0x11,
                writable: true,
            }),
        ];
        for req in reqs {
            assert_eq!(SrvReq::decode(&req.encode()).unwrap(), req);
        }
        reply_round_trips::<AllocExtents>(Ok(vec![(1, 2, 3), (4, 5, 6)]));
        reply_round_trips::<FreeExtents>(Ok(()));
        reply_round_trips::<SetAccess>(Err(RStoreError::Remote("full".into())));
    }

    #[test]
    fn truncated_messages_error_not_panic() {
        let bytes = Alloc::encode_reply(Ok(desc()));
        for cut in 0..bytes.len() {
            let r = Result::<RegionDesc>::decode(&bytes[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes must not decode");
        }
    }

    #[test]
    fn counts_larger_than_the_message_error_not_abort() {
        // A count is four bytes anyone can send: nothing may be reserved
        // from it before the elements it claims have been seen.
        let huge = [0xff, 0xff, 0xff, 0xff];
        let report = [&[0u8][..], &huge].concat();
        assert!(matches!(
            Result::<ClusterReport>::decode(&report),
            Err(RStoreError::Protocol(_))
        ));
        let extents = [&[0u8][..], &huge].concat();
        assert!(matches!(
            Result::<Vec<(u64, u64, u64)>>::decode(&extents),
            Err(RStoreError::Protocol(_))
        ));
        let empty = RegionDesc {
            groups: vec![],
            ..desc()
        };
        let mut region = Alloc::encode_reply(Ok(empty));
        let at = region.len() - 4;
        region[at..].copy_from_slice(&huge);
        assert!(matches!(
            Result::<RegionDesc>::decode(&region),
            Err(RStoreError::Protocol(_))
        ));
        // Bytes are copied in bulk, never before the count is covered.
        let bytes = [&huge[..], &[1, 2, 3]].concat();
        assert!(matches!(
            Vec::<u8>::decode(&bytes),
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
            let bytes = Alloc::encode_reply(Err(e.clone()));
            assert_eq!(Alloc::decode_reply(&bytes), Err(e.clone()));
            // The error form does not depend on what was asked.
            assert_eq!(bytes, error_reply(e.clone()));
            let bytes = FreeExtents::encode_reply(Err(e.clone()));
            assert_eq!(FreeExtents::decode_reply(&bytes), Err(e));
        }
        // What only its observer can construct is told in words: a client
        // must not mistake the master's transport failure for its own.
        let own = [
            RStoreError::Io(rdma::CqStatus::Timeout),
            RStoreError::Rdma(rdma::RdmaError::Timeout),
            RStoreError::Degraded("r".into()),
        ];
        for e in own {
            let bytes = Alloc::encode_reply(Err(e.clone()));
            assert_eq!(
                Alloc::decode_reply(&bytes),
                Err(RStoreError::Remote(e.to_string()))
            );
        }
        // An answer that is not an error is the `Ok`.
        assert_eq!(Free::decode_reply(&Free::encode_reply(Ok(()))), Ok(()));
        let ok = FreeExtents::encode_reply(Ok(()));
        assert_eq!(FreeExtents::decode_reply(&ok), Ok(()));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Stat {}.encode();
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
