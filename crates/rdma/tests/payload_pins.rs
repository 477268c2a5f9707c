//! Payloads travel by reference — a pin on the arena they were sampled from,
//! copied once at delivery (DESIGN.md, "Payload sampling model"). Each case
//! here drives one hazard of that through the device and checks the bytes
//! against what an eager copy at the sampling instant would have carried: a
//! `read_mem` taken at that instant. `pin_stats` shows that the case really
//! hit the window it is about (`live` while the payload is in flight,
//! `materialised` when the lazy snapshot had to be taken) and that no pin
//! outlives its payload.

use std::future::Future;
use std::time::Duration;

use fabric::{Fabric, FabricConfig};
use rdma::{Access, CompletionQueue, CqStatus, NetMsg, Qp, RdmaConfig, RdmaDevice};
use sim::Sim;

/// Two devices and a connected QP pair (`cqp` on `a`, `sqp` on `b`).
struct Pair {
    sim: Sim,
    fabric: Fabric<NetMsg>,
    a: RdmaDevice,
    b: RdmaDevice,
    cqp: Qp,
    ccq: CompletionQueue,
    sqp: Qp,
    scq: CompletionQueue,
}

fn run<Fut: Future<Output = ()> + 'static>(
    fabric_cfg: FabricConfig,
    (cfg_a, cfg_b): (RdmaConfig, RdmaConfig),
    body: impl FnOnce(Pair) -> Fut + 'static,
) {
    let sim = Sim::new();
    let fabric = Fabric::new(sim.clone(), fabric_cfg);
    let a = RdmaDevice::new(&fabric, cfg_a);
    let b = RdmaDevice::new(&fabric, cfg_b);
    sim.clone().block_on(async move {
        let mut listener = b.listen(7).unwrap();
        let (ccq, scq) = (CompletionQueue::new(), CompletionQueue::new());
        let scq2 = scq.clone();
        let accept = sim.spawn(async move { listener.accept(&scq2).await.unwrap() });
        let cqp = a.connect(b.node(), 7, &ccq).await.unwrap();
        let sqp = accept.await;
        body(Pair {
            sim,
            fabric,
            a,
            b,
            cqp,
            ccq,
            sqp,
            scq,
        })
        .await
    });
}

fn run_default<Fut: Future<Output = ()> + 'static>(body: impl FnOnce(Pair) -> Fut + 'static) {
    let cfg = RdmaConfig::default();
    run(FabricConfig::default(), (cfg.clone(), cfg), body)
}

/// A link slower (80 ns/B) than the op timeout's wire budget (40 ns/B), and
/// a device whose timeouts are that budget and little else: its bulk WRs
/// time out and flush while their requests are half way across.
fn slow_link() -> FabricConfig {
    FabricConfig {
        link_bps: 100_000_000,
        ..FabricConfig::default()
    }
}

fn hasty() -> RdmaConfig {
    RdmaConfig {
        base_timeout: 100 * US,
        ..RdmaConfig::default()
    }
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31) ^ salt)
        .collect()
}

const US: Duration = Duration::from_micros(1);

#[test]
fn read_response_carries_the_bytes_the_responder_sampled() {
    run_default(|p| async move {
        let len = 1u64 << 20;
        let sampled = pattern(len as usize, 1);
        let src = p.b.alloc_init(&sampled).unwrap();
        let mr = p.b.reg_mr(src, Access::REMOTE_ALL).unwrap();
        let dst = p.a.alloc(len).unwrap();
        let patch = p.a.alloc_init(&[0xEE; 64]).unwrap();
        let prior = p.a.alloc_aligned(8, 8).unwrap();
        p.cqp
            .post_read(1, dst, mr.token().at(0, len).unwrap())
            .unwrap();
        // The responder has executed the READ once its response is pinned.
        while p.b.pin_stats().0 == 0 {
            p.sim.sleep(Duration::from_nanos(100)).await;
        }
        // A WRITE and a CAS land on the source range while the 1 MiB
        // response is still on the wire back.
        let word0 = u64::from_le_bytes(sampled[..8].try_into().unwrap());
        p.cqp
            .post_write(2, patch, mr.token().at(4096, 64).unwrap())
            .unwrap();
        p.cqp
            .post_cas(3, prior, mr.token().at(0, 8).unwrap(), word0, !word0)
            .unwrap();
        while p.b.read_u64(src.addr).unwrap() == word0 {
            p.sim.sleep(Duration::from_nanos(100)).await;
        }
        assert_eq!(p.b.pin_stats(), (1, 1), "response in flight, copied out");
        for wr_id in 1..=3 {
            let cqe = p.ccq.next().await;
            assert_eq!((cqe.wr_id, cqe.status), (wr_id, CqStatus::Success));
        }
        assert_eq!(p.a.read_mem(dst.addr, len).unwrap(), sampled);
        assert_eq!(p.a.read_u64(prior.addr).unwrap(), word0);
        let mut now = sampled.clone();
        now[..8].copy_from_slice(&(!word0).to_le_bytes());
        now[4096..4160].fill(0xEE);
        assert_eq!(p.b.read_mem(src.addr, len).unwrap(), now);
        assert_eq!((p.a.pin_stats().0, p.b.pin_stats()), (0, (0, 1)));
    });
}

#[test]
fn write_carries_post_time_bytes_when_the_buffer_is_rewritten() {
    run_default(|p| async move {
        let posted = pattern(4096, 2);
        let src = p.a.alloc_init(&posted).unwrap();
        let dst = p.b.alloc(4096).unwrap();
        let mr = p.b.reg_mr(dst, Access::REMOTE_WRITE).unwrap();
        p.cqp
            .post_write(1, src, mr.token().at(0, 4096).unwrap())
            .unwrap();
        // Before the doorbell has even fired.
        p.a.write_mem(src.addr + 100, &[0xAB; 8]).unwrap();
        assert_eq!(p.a.pin_stats(), (1, 1));
        assert_eq!(p.ccq.next().await.status, CqStatus::Success);
        assert_eq!(p.b.read_mem(dst.addr, 4096).unwrap(), posted);
        assert_eq!(p.a.pin_stats(), (0, 1));

        // Left alone, the buffer is never copied out.
        p.cqp
            .post_write(2, src, mr.token().at(0, 4096).unwrap())
            .unwrap();
        assert_eq!(p.ccq.next().await.status, CqStatus::Success);
        assert_eq!(p.a.pin_stats(), (0, 1));
        let mut rewritten = posted.clone();
        rewritten[100..108].fill(0xAB);
        assert_eq!(p.b.read_mem(dst.addr, 4096).unwrap(), rewritten);
    });
}

#[test]
fn late_write_after_a_timeout_flush_ignores_staging_reuse() {
    run(slow_link(), (hasty(), hasty()), |p| async move {
        let len = 64 * 1024;
        let posted = pattern(len, 3);
        let staging = p.a.alloc_init(&posted).unwrap();
        let dst = p.b.alloc(len as u64).unwrap();
        let mr = p.b.reg_mr(dst, Access::REMOTE_WRITE).unwrap();
        p.cqp
            .post_write(1, staging, mr.token().at(0, len as u64).unwrap())
            .unwrap();
        assert_eq!(p.ccq.next().await.status, CqStatus::Timeout);
        assert_eq!(p.a.pin_stats(), (1, 0), "the request is still on the wire");
        // The flushed IO's staging buffer goes back to the pool and the next
        // IO fills it.
        p.a.write_mem(staging.addr, &pattern(len, 4)).unwrap();
        assert_eq!(p.a.pin_stats(), (1, 1));
        p.sim.sleep(Duration::from_millis(10)).await;
        assert_eq!(p.b.read_mem(dst.addr, len as u64).unwrap(), posted);
        assert_eq!(p.a.pin_stats(), (0, 1));
    });
}

#[test]
fn buffer_freed_while_pinned_still_arrives() {
    run_default(|p| async move {
        let posted = pattern(4096, 5);
        let src = p.a.alloc_init(&posted).unwrap();
        let dst = p.b.alloc(4096).unwrap();
        let mr = p.b.reg_mr(dst, Access::REMOTE_WRITE).unwrap();
        p.cqp
            .post_write(1, src, mr.token().at(0, 4096).unwrap())
            .unwrap();
        p.a.free(src).unwrap();
        assert_eq!(p.a.pin_stats(), (1, 1));
        // The address range is handed out again and scribbled on.
        let reuse = p.a.alloc_init(&[0xCD; 4096]).unwrap();
        assert_eq!(reuse.addr, src.addr);
        assert_eq!(p.ccq.next().await.status, CqStatus::Success);
        assert_eq!(p.b.read_mem(dst.addr, 4096).unwrap(), posted);
        assert_eq!(p.a.pin_stats(), (0, 1));
    });
}

#[test]
fn pin_survives_its_block_growing_past_its_capacity() {
    run_default(|p| async move {
        let posted = pattern(4096, 6);
        let src = p.a.alloc(1 << 20).unwrap();
        p.a.write_mem(src.addr, &posted).unwrap();
        let dst = p.b.alloc(4096).unwrap();
        let mr = p.b.reg_mr(dst, Access::REMOTE_WRITE).unwrap();
        p.cqp
            .post_write(1, src.slice(0, 4096), mr.token().at(0, 4096).unwrap())
            .unwrap();
        // Past the pinned range and far past the block's capacity: the
        // backing vector reallocates while the pin is live.
        p.a.write_mem(src.addr + (1 << 19), &pattern(4096, 7))
            .unwrap();
        assert_eq!(p.a.mem_resident(), (1 << 19) + 4096);
        assert_eq!(p.a.pin_stats(), (1, 0), "outside the pin: not copied out");
        assert_eq!(p.ccq.next().await.status, CqStatus::Success);
        assert_eq!(p.b.read_mem(dst.addr, 4096).unwrap(), posted);
        assert_eq!(p.a.pin_stats(), (0, 0));
    });
}

#[test]
fn message_dropped_by_the_fabric_releases_its_pin() {
    run_default(|p| async move {
        let src = p.a.alloc_init(&pattern(4096, 6)).unwrap();
        let dst = p.b.alloc(4096).unwrap();
        let mr = p.b.reg_mr(dst, Access::REMOTE_ALL).unwrap();
        let dropped = p.fabric.dropped_messages();

        // Loss window: the WriteReq is dropped as it is sent.
        p.fabric.set_loss(1.0, 9);
        p.cqp
            .post_write(1, src, mr.token().at(0, 4096).unwrap())
            .unwrap();
        assert_eq!(p.a.pin_stats(), (1, 0));
        p.sim.sleep(10 * US).await;
        assert_eq!(p.fabric.dropped_messages(), dropped + 1);
        assert_eq!(p.a.pin_stats(), (0, 0));
        p.fabric.clear_loss();

        // Dead endpoint: the READ is executed, its response dropped.
        p.cqp
            .post_read(2, src, mr.token().at(0, 4096).unwrap())
            .unwrap();
        p.sim.sleep(Duration::from_nanos(500)).await;
        p.fabric.set_node_up(p.a.node(), false);
        p.sim.sleep(10 * US).await;
        assert_eq!(p.fabric.dropped_messages(), dropped + 2);
        assert_eq!(p.b.pin_stats(), (0, 0));
        assert_eq!(p.b.read_mem(dst.addr, 4096).unwrap(), vec![0; 4096]);
    });
}

#[test]
fn send_parked_in_the_rnr_queue_keeps_its_post_time_bytes() {
    run_default(|p| async move {
        let (first, second) = (pattern(256, 7), pattern(256, 8));
        let src1 = p.a.alloc_init(&first).unwrap();
        let src2 = p.a.alloc_init(&second).unwrap();
        p.cqp.post_send(1, src1, Some(1)).unwrap();
        p.cqp.post_send(2, src2, None).unwrap();
        // Both arrive before any receive is posted and wait; the first
        // sender buffer is reused meanwhile.
        p.sim.sleep(10 * US).await;
        p.a.write_mem(src1.addr, &[0; 256]).unwrap();
        assert_eq!(p.a.pin_stats(), (2, 1));
        let (rb1, rb2) = (p.b.alloc(256).unwrap(), p.b.alloc(256).unwrap());
        p.sqp.post_recv(11, rb1).unwrap();
        p.sqp.post_recv(12, rb2).unwrap();
        assert_eq!(p.scq.next().await.imm, Some(1));
        assert_eq!(p.scq.next().await.wr_id, 12);
        assert_eq!(p.b.read_mem(rb1.addr, 256).unwrap(), first);
        assert_eq!(p.b.read_mem(rb2.addr, 256).unwrap(), second);
        assert_eq!(p.a.pin_stats(), (0, 1));
        assert_eq!(p.ccq.next().await.status, CqStatus::Success);
        assert_eq!(p.ccq.next().await.status, CqStatus::Success);
    });
}

#[test]
fn send_at_an_errored_qp_is_dropped_not_parked() {
    run(
        slow_link(),
        (RdmaConfig::default(), hasty()),
        |p| async move {
            let src = p.a.alloc_init(&pattern(64, 11)).unwrap();
            p.cqp.post_send(1, src, None).unwrap();
            p.sim.sleep(100 * US).await;
            assert_eq!(p.a.pin_stats().0, 1, "parked: no receive posted yet");
            // `b`'s end of the connection fails on a WRITE of its own.
            let bulk = p.b.alloc(64 * 1024).unwrap();
            let sink = p.a.alloc(64 * 1024).unwrap();
            let mr = p.a.reg_mr(sink, Access::REMOTE_WRITE).unwrap();
            p.sqp
                .post_write(9, bulk, mr.token().at(0, 64 * 1024).unwrap())
                .unwrap();
            assert_eq!(p.scq.next().await.status, CqStatus::Timeout);
            assert!(p.sqp.is_errored());
            // No receive can be posted on it any more, so the parked SEND went
            // with the flush, and one that arrives now is dropped on arrival.
            assert_eq!(p.a.pin_stats().0, 0);
            p.cqp.post_send(2, src, None).unwrap();
            p.sim.sleep(100 * US).await;
            assert_eq!(p.a.pin_stats().0, 0);
            // Let the bulk WRITE, still on the wire, land.
            p.sim.sleep(Duration::from_millis(10)).await;
            assert_eq!((p.a.pin_stats().0, p.b.pin_stats().0), (0, 0));
        },
    );
}

#[test]
fn loopback_qp_copies_within_one_arena() {
    let sim = Sim::new();
    let fabric = Fabric::new(sim.clone(), FabricConfig::default());
    let dev = RdmaDevice::new(&fabric, RdmaConfig::default());
    sim.clone().block_on(async move {
        let mut listener = dev.listen(7).unwrap();
        let (ccq, scq) = (CompletionQueue::new(), CompletionQueue::new());
        let accept = sim.spawn(async move { listener.accept(&scq).await.unwrap() });
        let qp = dev.connect(dev.node(), 7, &ccq).await.unwrap();
        let _sqp = accept.await;

        let bytes = pattern(8192, 9);
        let buf = dev.alloc_init(&bytes).unwrap();
        let other = dev.alloc(4096).unwrap();
        let mr = dev.reg_mr(buf, Access::REMOTE_ALL).unwrap();
        // WRITE within one block, source and destination overlapping; then
        // READ it back into another block of the same arena.
        qp.post_write(1, buf.slice(0, 4096), mr.token().at(2048, 4096).unwrap())
            .unwrap();
        qp.post_read(2, other, mr.token().at(2048, 4096).unwrap())
            .unwrap();
        assert_eq!(ccq.next().await.status, CqStatus::Success);
        assert_eq!(ccq.next().await.status, CqStatus::Success);
        let mut expect = bytes.clone();
        expect.copy_within(0..4096, 2048);
        assert_eq!(dev.read_mem(buf.addr, 8192).unwrap(), expect);
        assert_eq!(dev.read_mem(other.addr, 4096).unwrap(), bytes[..4096]);
        assert_eq!(dev.pin_stats().0, 0);
    });
}

#[test]
fn inflight_flip_damages_the_copy_in_flight_only() {
    run_default(|p| async move {
        let posted = pattern(4096, 10);
        let src = p.a.alloc_init(&posted).unwrap();
        let dst = p.b.alloc(4096).unwrap();
        let mr = p.b.reg_mr(dst, Access::REMOTE_WRITE).unwrap();
        p.fabric.set_flip(1.0, 3);
        p.cqp
            .post_write(1, src, mr.token().at(0, 4096).unwrap())
            .unwrap();
        assert_eq!(p.ccq.next().await.status, CqStatus::Success);
        let landed = p.b.read_mem(dst.addr, 4096).unwrap();
        let damage: u32 = landed
            .iter()
            .zip(&posted)
            .map(|(x, y)| (x ^ y).count_ones())
            .sum();
        assert_eq!(damage, 1, "exactly one bit flipped on the way");
        assert_eq!(p.a.read_mem(src.addr, 4096).unwrap(), posted);
        assert_eq!(p.a.pin_stats(), (0, 1));
    });
}

#[test]
fn synthetic_payloads_are_never_pinned() {
    run_default(|p| async move {
        let len = 1u64 << 30;
        let fluid = p.a.alloc_synthetic(len).unwrap();
        let remote = p.b.alloc_synthetic(len).unwrap();
        let mr = p.b.reg_mr(remote, Access::REMOTE_ALL).unwrap();
        p.fabric.set_flip(1.0, 3);
        p.cqp
            .post_write(1, fluid, mr.token().at(0, len).unwrap())
            .unwrap();
        p.cqp
            .post_read(2, fluid, mr.token().at(0, len).unwrap())
            .unwrap();
        assert_eq!((p.a.pin_stats(), p.b.pin_stats()), ((0, 0), (0, 0)));
        assert_eq!(p.ccq.next().await.status, CqStatus::Success);
        assert_eq!(p.ccq.next().await.status, CqStatus::Success);
        assert_eq!((p.a.pin_stats(), p.b.pin_stats()), ((0, 0), (0, 0)));
    });
}
