//! Timing calibration for the simulated NIC.

use std::time::Duration;

/// CPU cost to build + ring a doorbell for one work request.
pub const POST_OVERHEAD: Duration = Duration::from_nanos(150);
/// NIC processing time per work request / incoming packet (WQE fetch, DMA
/// setup, completion write-back).
pub const NIC_DELAY: Duration = Duration::from_nanos(250);
/// Maximum work requests charged to a single doorbell by `Qp::post_batch`;
/// longer chains split into chunks of this size, each ringing its own
/// doorbell.
pub const MAX_BATCH: usize = 16;
/// Amortized CPU cost per *additional* WR in a chain: the first WR of each
/// chunk pays the full [`POST_OVERHEAD`], linked-list successors only this.
/// Models verbs `ibv_post_send` with a chained WR list, where WQE build cost
/// is paid per WR but the doorbell (MMIO) is rung once.
pub const BATCH_WR_OVERHEAD: Duration = Duration::from_nanos(40);

/// The settable parameters of a NIC; its fixed timing is the constants
/// above.
///
/// The constants follow the FDR-era Mellanox parts the paper's testbed used;
/// see `DESIGN.md` ("Calibration constants") for the derivation. With the
/// default [`fabric::FabricConfig`] they yield a ~2 µs round trip for a small
/// RDMA READ and full 54.3 Gb/s goodput for large transfers.
#[derive(Clone, Debug)]
pub struct RdmaConfig {
    /// Base timeout for an operation before the QP enters the error state;
    /// scaled up with message size (see [`RdmaConfig::op_timeout`]).
    pub base_timeout: Duration,
    /// Device arena capacity in bytes.
    pub mem_capacity: u64,
}

impl Default for RdmaConfig {
    fn default() -> Self {
        RdmaConfig {
            base_timeout: Duration::from_secs(2),
            mem_capacity: 64 * 1024 * 1024 * 1024, // addresses are cheap; data is lazy
        }
    }
}

impl RdmaConfig {
    /// Timeout for an operation moving `bytes` of payload: the base timeout
    /// plus wire time at a very conservative 25 MB/s floor. Together with the
    /// multi-second base this mirrors InfiniBand RC retry budgets
    /// (`retry_cnt` x transport timeout is seconds before `RETRY_EXC_ERR`)
    /// and absorbs deep responder queues under all-to-all congestion.
    pub fn op_timeout(&self, bytes: u64) -> Duration {
        self.base_timeout + Duration::from_nanos(40 * bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_timeout_scales_with_size() {
        let cfg = RdmaConfig::default();
        let small = cfg.op_timeout(8);
        let big = cfg.op_timeout(1 << 30);
        assert!(big > small);
        assert!(big >= Duration::from_secs(40));
    }
}
