//! Comparison systems for the RStore evaluation.
//!
//! Every baseline the paper measures against is implemented (or, where the
//! original is a disk-era software stack, modeled) here:
//!
//! * [`twosided`] — a server-CPU-mediated in-memory store on the *same*
//!   simulated fabric and NICs as RStore. Isolates the cost of two-sided
//!   data paths (experiment E3).
//! * [`msg_graph`] — Pregel-style message-passing PageRank, standing in for
//!   the "state-of-the-art systems" of the paper's 2.6–4.2× claim
//!   (experiment E6).
//! * [`hadoop`] — an analytic Hadoop TeraSort cost model with disk spills,
//!   TCP shuffle, and replicated HDFS output (experiment E8).

pub mod hadoop;
pub mod msg_graph;
pub mod twosided;

pub use hadoop::{terasort_time, TeraSortEstimate};
pub use msg_graph::MsgPageRankOutcome;
pub use twosided::TwoSidedClient;

#[cfg(test)]
mod tests {
    use rstore::proto::{error_reply, Request, Wire};
    use rstore::RStoreError;

    use crate::msg_graph::Contributions;
    use crate::twosided::{Read, Write};

    /// A message encoded into a local buffer, as a sender encodes it.
    fn encode(msg: &impl Wire) -> Vec<u8> {
        let mut out = Vec::new();
        msg.put(&mut out);
        out
    }

    /// `Q`'s answer, encoded into a local buffer as a service encodes it.
    fn reply<Q: Request>(answer: rstore::Result<Q::Reply>) -> Vec<u8> {
        let mut out = Vec::new();
        Q::encode_reply(answer, &mut out);
        out
    }

    /// Every baseline message and reply, and one error reply of each kind,
    /// encoded as it is sent.
    fn corpus() -> Vec<Vec<u8>> {
        let out_of_range = RStoreError::OutOfRange {
            offset: u64::MAX,
            len: 2,
            size: 1024,
        };
        vec![
            encode(&Read { offset: 64, len: 3 }),
            reply::<Read>(Ok(vec![1, 2, 3])),
            reply::<Read>(Err(out_of_range)),
            encode(&Write {
                offset: 64,
                data: vec![7, 8],
            }),
            reply::<Write>(Ok(())),
            reply::<Write>(Err(RStoreError::Protocol("bad".into()))),
            encode(&Contributions(vec![(5, 0.25), (9, -1.5)])),
            reply::<Contributions>(Ok(())),
            {
                let mut out = Vec::new();
                error_reply(RStoreError::Protocol("truncated".into()), &mut out);
                out
            },
        ]
    }

    /// [`corpus`] in hex, pinned: the two-sided and message-passing numbers
    /// price these bytes.
    const GOLDEN: [&str; 9] = [
        "0040000000000000000300000000000000",
        "0003000000010203",
        "01053e000000616363657373205b31383434363734343037333730393535313631352c202b3229206f75747369646520726567696f6e206f662031303234206279746573",
        "014000000000000000020000000708",
        "00",
        "010403000000626164",
        "020000000500000000000000000000000000d03f0900000000000000000000000000f8bf",
        "00",
        "0104090000007472756e6361746564",
    ];

    #[test]
    fn wire_bytes_match_the_golden_corpus() {
        let hex: Vec<String> = corpus()
            .iter()
            .map(|m| m.iter().map(|b| format!("{b:02x}")).collect())
            .collect();
        assert_eq!(hex, GOLDEN);
    }
}
