//! A verbs-style RDMA layer over the simulated [`fabric`].
//!
//! This crate stands in for the InfiniBand verbs stack of the RStore paper's
//! testbed. It reproduces the *semantics* that matter to RStore's design:
//!
//! * **Setup/IO separation.** Memory must be allocated ([`RdmaDevice::alloc`])
//!   and registered ([`RdmaDevice::reg_mr`]), and queue pairs connected
//!   ([`RdmaDevice::connect`] / [`Listener::accept`]) before any IO — the
//!   expensive control path. IO itself is cheap and asynchronous: every
//!   send-queue work request is a [`Wr`] chained through
//!   [`Qp::post_batch`], and `post_read`/`post_write`/… are chains of one.
//! * **One-sided operations.** RDMA READ/WRITE/atomics execute on the remote
//!   *device dispatcher* (the simulated NIC), never on a remote application
//!   task — remote CPU involvement is structurally zero.
//! * **Reliable connected QPs** with in-post-order completion delivery,
//!   access-checked memory regions (rkeys), RNR behaviour for SENDs without
//!   receive buffers, and error-state flushing on timeouts.
//!
//! Timing is calibrated to FDR InfiniBand: ~2 µs small-READ round trips and
//! 54.3 Gb/s per-link goodput (see [`RdmaConfig`] and `DESIGN.md`).
//!
//! # Example
//!
//! ```rust
//! use fabric::{Fabric, FabricConfig};
//! use rdma::{Access, CompletionQueue, RdmaConfig, RdmaDevice};
//! use sim::Sim;
//!
//! # fn main() -> Result<(), rdma::RdmaError> {
//! let sim = Sim::new();
//! let fabric = Fabric::new(sim.clone(), FabricConfig::default());
//! let server = RdmaDevice::new(&fabric, RdmaConfig::default());
//! let client = RdmaDevice::new(&fabric, RdmaConfig::default());
//!
//! // Server: expose a buffer.
//! let data = server.alloc_init(b"hello")?;
//! let mr = server.reg_mr(data, Access::REMOTE_READ)?;
//! let token = mr.token();
//! let mut listener = server.listen(1)?;
//! let scq = CompletionQueue::new();
//! sim.spawn(async move { listener.accept(&scq).await.unwrap() });
//!
//! // Client: connect and READ.
//! let out = sim.block_on({
//!     let client = client.clone();
//!     async move {
//!         let cq = CompletionQueue::new();
//!         let qp = client.connect(token.node, 1, &cq).await.unwrap();
//!         let dst = client.alloc(5).unwrap();
//!         qp.post_read(1, dst, token.at(0, 5).unwrap()).unwrap();
//!         cq.next().await;
//!         client.read_mem(dst.addr, 5).unwrap()
//!     }
//! });
//! assert_eq!(out, b"hello");
//! # Ok(())
//! # }
//! ```

pub mod config;
pub mod cq;
pub mod device;
mod doorbell;
pub mod memory;
mod stats;
pub mod types;
pub mod wire;

pub use config::RdmaConfig;
pub use cq::{CompletionQueue, CqStatus, Cqe, CqeOpcode};
pub use device::{
    BatchWr, Listener, Mr, Qp, RdmaDevice, RemoteAddr, RemoteMr, Sge, SgeList, Wr, WrOp, MAX_SGE,
};
pub use memory::{Arena, DmaBuf};
pub use types::{Access, Qpn, RKey, RdmaError, Result};
pub use wire::{AtomicOp, NetMsg};
