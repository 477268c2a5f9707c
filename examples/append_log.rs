//! A distributed append-only log built from RStore's memory-like API and
//! RDMA atomics: producers on different machines reserve log space with
//! one-sided fetch-and-add and write their entries with one-sided writes —
//! no log server, no coordination service.
//!
//! ```text
//! cargo run -p integration --release --example append_log
//! ```

use rdma::{AtomicOp, CompletionQueue, CqeOpcode, RemoteMr, Wr};
use rstore::{AllocOptions, Cluster, ClusterConfig};
use sim::join_all;

const ENTRY: u64 = 64;
const PRODUCERS: usize = 4;
const ENTRIES_EACH: usize = 25;

fn main() -> rstore::Result<()> {
    let cluster = Cluster::boot(ClusterConfig {
        clients: PRODUCERS + 1,
        ..ClusterConfig::with_servers(3)
    })?;
    let sim = cluster.sim.clone();

    sim.block_on(async move {
        // The log body lives in an RStore region; the tail pointer is a
        // single u64 on the first memory server, updated with fetch-and-add.
        let owner = cluster.client(PRODUCERS).await?;
        let _log = owner
            .alloc("log/body", 1 << 20, AllocOptions::default())
            .await?;

        // Expose the tail counter directly via the verbs layer (RStore's
        // API composes with raw RDMA: the region *is* ordinary memory).
        let counter_mr: RemoteMr = {
            // A tiny dedicated region on one server, found via the master.
            let tail_region = owner.alloc("log/tail", 8, AllocOptions::default()).await?;
            let x = tail_region.desc().groups[0].replicas[0];
            RemoteMr {
                node: fabric::NodeId(x.node),
                addr: x.addr,
                len: 8,
                rkey: rdma::RKey(x.rkey),
            }
        };
        println!("log: 1 MiB body, tail counter on {}", counter_mr.node);

        // Producers append concurrently from different machines.
        let mut tasks = Vec::new();
        for p in 0..PRODUCERS {
            let client = cluster.client(p).await?;
            let body = client.map("log/body").await?;
            let dev = client.device().clone();
            let counter = counter_mr;
            tasks.push(async move {
                // One QP to the counter's host for atomics (setup, once).
                let cq = CompletionQueue::new();
                let qp = dev.connect(counter.node, rstore::DATA_SERVICE, &cq).await?;
                let result = dev.alloc(8)?;
                let entry_buf = dev.alloc(ENTRY)?;
                for i in 0..ENTRIES_EACH {
                    // Reserve: one-sided fetch-and-add on the tail.
                    let add = AtomicOp::FetchAdd { add: ENTRY };
                    qp.post_batch(&[Wr::atomic(1, result, counter.at(0, 8)?, add)])?;
                    loop {
                        let cqe = cq.next().await;
                        if cqe.opcode == CqeOpcode::FetchAdd {
                            break;
                        }
                    }
                    let offset = dev.read_u64(result.addr)?;
                    // Fill and publish the entry with a one-sided write.
                    let mut entry = format!("producer {p} entry {i} @ {offset}").into_bytes();
                    entry.resize(ENTRY as usize, b' ');
                    dev.write_mem(entry_buf.addr, &entry)?;
                    body.write_from(offset, entry_buf).await?;
                }
                Ok::<_, rstore::RStoreError>(())
            });
        }
        for r in join_all(tasks).await {
            r?;
        }

        // A reader scans the log: every slot is filled exactly once.
        let reader = cluster.client(0).await?;
        let body = reader.map("log/body").await?;
        let total = (PRODUCERS * ENTRIES_EACH) as u64;
        let bytes = body.read(0, total * ENTRY).await?;
        let mut per_producer = vec![0usize; PRODUCERS];
        for slot in 0..total {
            let entry = &bytes[(slot * ENTRY) as usize..((slot + 1) * ENTRY) as usize];
            let text = String::from_utf8_lossy(entry);
            let text = text.trim_end();
            assert!(
                text.starts_with("producer "),
                "hole at slot {slot}: {text:?}"
            );
            let p: usize = text
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .expect("producer id");
            per_producer[p] += 1;
        }
        println!("scanned {total} entries; per-producer counts: {per_producer:?}");
        assert!(per_producer.iter().all(|&c| c == ENTRIES_EACH));
        println!("append-only log is dense and complete — no locks, no log server");
        Ok(())
    })
}
