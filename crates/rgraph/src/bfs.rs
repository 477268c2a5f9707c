//! Distributed BFS using one-sided mailboxes.
//!
//! Unlike the pull kernels, BFS is frontier-driven: each superstep a
//! worker pushes the ids of newly reachable vertices directly into their
//! owners' mailbox regions with one-sided writes — message passing that
//! never wakes a remote CPU. It shares the job setup and the convergence
//! vote with the pull kernels ([`crate::job`]).

use rstore::Result;

use crate::job::{compute_cost, Seat, Share};
use crate::worker::{ConvBoard, CsrSlice, Mailboxes};

/// Per-mailbox capacity in vertex ids. It bounds the unique vertices one
/// worker can discover for one peer in a superstep.
pub(crate) const MAILBOX_CAP: u64 = 64 * 1024;

/// The region-name prefix of one BFS job's mailboxes and board.
pub(crate) fn prefix(graph: &str, src: u64, nonce: u64) -> String {
    format!("{graph}/bfs{src}_{nonce}")
}

/// One worker's BFS from `src`, over the job's mailboxes under `prefix`
/// and its `board`.
pub(crate) async fn push(seat: &Seat, src: u64, prefix: &str, board: &str) -> Result<Share> {
    let (s, e) = (seat.s, seat.e);
    let out_slice = CsrSlice::load(&seat.store, &seat.client, "out", s, e).await?;
    let mbox = Mailboxes::open(&seat.client, prefix, seat.part.k, seat.me).await?;
    let board = ConvBoard::open(&seat.client, board, seat.part.k).await?;

    let mut levels = vec![u64::MAX; (e - s) as usize];
    let mut frontier: Vec<u64> = Vec::new();
    if (s..e).contains(&src) {
        levels[(src - s) as usize] = 0;
        frontier.push(src);
    }

    let (mut depth, mut times) = (0u64, Vec::new());
    loop {
        let t = seat.sim.now();
        depth += 1;

        // Push phase: every out-neighbour of the frontier, deduplicated,
        // routed to its owner's mailbox.
        let mut targets: Vec<u64> = frontier
            .iter()
            .flat_map(|&v| out_slice.neighbors(v).iter().copied())
            .collect();
        let edges_touched = targets.len() as u64;
        targets.sort_unstable();
        targets.dedup();
        let outboxes = Mailboxes::route(&seat.part, targets);
        seat.sim
            .sleep(compute_cost(edges_touched, frontier.len() as u64))
            .await;
        mbox.send_all(&outboxes).await?;
        seat.gang.sync().await?;

        // Pull phase: adopt newly discovered owned vertices.
        let mut discovered = 0u64;
        frontier.clear();
        for payload in mbox.recv_all().await? {
            for v in payload {
                let i = (v - s) as usize;
                if levels[i] == u64::MAX {
                    levels[i] = depth;
                    frontier.push(v);
                    discovered += 1;
                }
            }
        }
        let done = seat.vote(&board, discovered).await?;
        if seat.me == 0 {
            times.push(seat.sim.now() - t);
        }
        if done {
            return Ok((levels, depth as usize, times));
        }
    }
}
