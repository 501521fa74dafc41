//! Cluster-mode equivalence: the engine over the real TCP fabric.
//!
//! [`ClusterMode::Tcp`] swaps the exchange layer's intra-process channels
//! for framed, CRC-checked, credit-flow-controlled TCP streams between
//! per-node loopback endpoints — the transport half of the paper's
//! MPI-based DXchg (§5). Nothing above the exchange may notice: every
//! query must return exactly the answer the in-process engine returns,
//! byte for byte after canonicalization, while the per-channel counters
//! prove the bytes really crossed sockets.

use vectorh::{ClusterConfig, ClusterMode, VectorH};
use vectorh_tpch::baseline::canonical;
use vectorh_tpch::sql_text;

const QUERIES: &[usize] = &[1, 3, 6, 12];

fn engine(mode: ClusterMode) -> VectorH {
    let vh = VectorH::start(ClusterConfig {
        nodes: 3,
        rows_per_chunk: 512,
        hdfs_block_size: 64 * 1024,
        streams_per_node: 2,
        cluster_mode: mode,
        ..Default::default()
    })
    .unwrap();
    vectorh_tpch::schema::setup(&vh, 0.002, 4, 20260707).unwrap();
    vh
}

fn answers(vh: &VectorH) -> Vec<Vec<Vec<vectorh_common::Value>>> {
    QUERIES
        .iter()
        .map(|&qn| {
            canonical(vh.query(sql_text(qn).unwrap()).unwrap_or_else(|e| {
                panic!("Q{qn} failed over {}: {e}", vh.transport_mode());
            }))
        })
        .collect()
}

/// The headline guarantee: identical answers over sockets and in-proc.
#[test]
fn tcp_cluster_answers_match_inproc_byte_for_byte() {
    let inproc = engine(ClusterMode::InProc);
    assert_eq!(inproc.transport_mode(), "inproc");
    let want = answers(&inproc);

    let tcp = engine(ClusterMode::Tcp);
    assert_eq!(tcp.transport_mode(), "tcp");
    let got = answers(&tcp);

    for (i, &qn) in QUERIES.iter().enumerate() {
        assert_eq!(got[i], want[i], "Q{qn}: tcp answer diverged from in-proc");
    }

    // The answers crossed real exchanges: per-channel counters moved. The
    // probe is transport-agnostic — both engines expose the same exchange
    // channel names, which is exactly what makes the in-proc vs TCP
    // comparison in EXPERIMENTS.md an apples-to-apples one.
    let names = |vh: &VectorH| {
        let mut n: Vec<String> = vh.net_channels().into_iter().map(|(n, _)| n).collect();
        n.sort();
        n
    };
    let tcp_channels = tcp.net_channels();
    let (msgs, bytes): (u64, u64) = tcp_channels
        .iter()
        .fold((0, 0), |(m, b), (_, s)| (m + s.messages, b + s.bytes));
    assert!(
        msgs > 0 && bytes > 0,
        "frames actually flowed: {tcp_channels:?}"
    );
    assert!(
        tcp_channels.iter().any(|(n, _)| n.starts_with("DXchg")),
        "exchange traffic must be attributed to DXchg channels: {tcp_channels:?}"
    );
    assert_eq!(
        names(&tcp),
        names(&inproc),
        "both transports run the same exchange structure"
    );
}

/// Trickle updates ride the same fabric: DML then queries over TCP agree
/// with the in-proc engine fed the identical update.
#[test]
fn tcp_cluster_survives_trickle_updates() {
    let data = vectorh_tpch::gen::generate(0.002, 20260707);
    let set = vectorh_tpch::refresh::refresh_set(&data, 6, 17);

    let run = |mode: ClusterMode| {
        let vh = engine(mode);
        vectorh_tpch::refresh::rf1(&vh, &set).unwrap();
        vectorh_tpch::refresh::rf2(&vh, &set).unwrap();
        answers(&vh)
    };
    assert_eq!(
        run(ClusterMode::Tcp),
        run(ClusterMode::InProc),
        "post-update answers diverged between transports"
    );
}
