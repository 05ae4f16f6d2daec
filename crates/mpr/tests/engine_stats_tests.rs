//! Every `EngineStats` counter of the baseline engine, pinned over the
//! point-to-point and collective protocol paths at recorded values.
//!
//! Each scenario runs on its own loopback world; the table sums every
//! counter over its ranks. A change that moves any counter (a copy more or
//! less, a match taken from the other queue, a request entered twice) shows
//! here as a one-cell diff.

use abr_gm::packet::{NodeId, Packet, PacketHeader, PacketKind};
use abr_mpr::engine::{Engine, EngineConfig, EngineStats};
use abr_mpr::request::Outcome;
use abr_mpr::testutil::{engines, Loopback};
use abr_mpr::types::{f64s_to_bytes, Datatype, MprError, TagSel};
use abr_mpr::ReduceOp;
use bytes::Bytes;

/// Eager payload (well under the 16 KiB eager limit).
const SMALL: usize = 256;
/// Rendezvous payload (over the eager limit).
const LARGE: usize = 32 * 1024;

fn world(n: u32, config: EngineConfig) -> Loopback<Engine> {
    Loopback::new(engines(n, config))
}

/// All 13 counters of one engine, in declaration order.
fn fields(s: &EngineStats) -> [u64; 13] {
    [
        s.eager_sent,
        s.rndv_sent,
        s.packets_processed,
        s.posted_matched,
        s.unexpected_enqueued,
        s.unexpected_matched,
        s.copies,
        s.copy_bytes,
        s.polls,
        s.colls_completed,
        s.duplicates_suppressed,
        s.requests,
        s.requests_high_water,
    ]
}

/// Every counter summed over the world's ranks.
fn totals(lb: &Loopback<Engine>) -> [u64; 13] {
    let mut sum = [0u64; 13];
    for e in &lb.engines {
        for (acc, v) in sum.iter_mut().zip(fields(e.stats())) {
            *acc += v;
        }
    }
    sum
}

/// A point-to-point message of `len` bytes from rank 0 to rank 1, received
/// with `capacity`. `posted` posts the receive before the send; otherwise
/// the message (or its RTS) lands first and parks on the unexpected queue.
fn pt2pt(len: usize, capacity: usize, posted: bool) -> [u64; 13] {
    let mut lb = world(2, EngineConfig::default());
    let comm = lb.engines[0].world();
    let mut recv = None;
    if posted {
        recv = Some(lb.engines[1].irecv(&comm, Some(0), TagSel::Is(5), capacity));
        lb.run_to_quiescence(50);
    }
    let s = lb.engines[0].isend(&comm, 1, 5, Bytes::from(vec![3u8; len]));
    if !posted {
        lb.run_to_quiescence(50);
        lb.engines[1].progress();
        recv = Some(lb.engines[1].irecv(&comm, Some(0), TagSel::Is(5), capacity));
    }
    let r = recv.unwrap();
    lb.run_until_complete(&[(1, r)], 200);
    match lb.engines[1].take_outcome(r) {
        Some(Outcome::Data(d)) if capacity >= len => assert_eq!(d.len(), len),
        Some(Outcome::Failed(MprError::Truncation { received, .. })) if capacity < len => {
            assert_eq!(received, len)
        }
        other => panic!("{len} B into {capacity} B: unexpected outcome {other:?}"),
    }
    if capacity >= len {
        lb.run_until_complete(&[(0, s)], 200);
        lb.expect_done(0, s);
    }
    totals(&lb)
}

/// Three eager packets from rank 0 delivered straight to rank 1 with
/// reliability sequences 1, 1, 2: the repeat is dropped before matching.
fn repeated_rel_seq() -> [u64; 13] {
    let mut lb = world(2, EngineConfig::default());
    for (wire_seq, rel_seq) in [(0, 1), (1, 1), (2, 2)] {
        let header = PacketHeader {
            src: NodeId(0),
            dst: NodeId(1),
            kind: PacketKind::Eager,
            context: lb.engines[0].world().pt2pt_context,
            tag: 9,
            coll_seq: 0,
            coll_root: 0,
            msg_len: 8,
            wire_seq,
            rel_seq,
        };
        lb.engines[1].deliver(Packet::new(header, Bytes::from(vec![1u8; 8])));
    }
    lb.engines[1].progress();
    let comm = lb.engines[1].world();
    let r = lb.engines[1].irecv(&comm, Some(0), TagSel::Is(9), 8);
    assert_eq!(lb.expect_data(1, r).len(), 8);
    totals(&lb)
}

/// Post one collective on every rank via `post`, run it to completion and
/// take every outcome.
fn collective(
    n: u32,
    config: EngineConfig,
    post: impl Fn(&mut Engine, u32) -> abr_mpr::ReqId,
) -> [u64; 13] {
    let mut lb = world(n, config);
    let reqs: Vec<_> = (0..n)
        .map(|r| (r as usize, post(&mut lb.engines[r as usize], r)))
        .collect();
    lb.run_until_complete(&reqs, 10_000);
    for &(r, id) in &reqs {
        match lb.engines[r].take_outcome(id) {
            Some(Outcome::Data(_) | Outcome::Done) => {}
            other => panic!("rank {r}: unexpected outcome {other:?}"),
        }
    }
    lb.run_to_quiescence(100);
    totals(&lb)
}

fn f64s(rank: u32, bytes: usize) -> Vec<u8> {
    f64s_to_bytes(&vec![rank as f64 + 1.0; bytes / 8])
}

fn reduce(n: u32, config: EngineConfig, bytes: usize) -> [u64; 13] {
    collective(n, config, |e, r| {
        let comm = e.world();
        e.ireduce(&comm, 0, ReduceOp::Sum, Datatype::F64, &f64s(r, bytes))
    })
}

fn allreduce(n: u32, bytes: usize, dual: bool) -> [u64; 13] {
    collective(n, EngineConfig::default(), |e, r| {
        let comm = e.world();
        let data = f64s(r, bytes);
        match dual {
            true => e.iallreduce_dual(&comm, ReduceOp::Sum, Datatype::F64, &data),
            false => e.iallreduce(&comm, ReduceOp::Sum, Datatype::F64, &data),
        }
    })
}

#[test]
fn engine_stats_match_recorded_values() {
    let segmented = EngineConfig {
        segments: 4,
        ..EngineConfig::default()
    };
    {
        // The segmented case must really split into a pipeline.
        let mut e = Engine::new(0, 8, segmented.clone());
        assert!(e.segment_plan(0, 8, 64 * 1024, 8).0 >= 2);
    }
    let rows: Vec<(&str, [u64; 13])> = vec![
        ("eager posted", pt2pt(SMALL, SMALL, true)),
        ("eager parked", pt2pt(SMALL, SMALL, false)),
        ("rndv posted", pt2pt(LARGE, LARGE, true)),
        ("rndv parked", pt2pt(LARGE, LARGE, false)),
        ("eager posted truncated", pt2pt(SMALL, 16, true)),
        ("eager parked truncated", pt2pt(SMALL, 16, false)),
        ("rndv posted truncated", pt2pt(LARGE, 1024, true)),
        ("rndv parked truncated", pt2pt(LARGE, 1024, false)),
        ("repeated rel_seq", repeated_rel_seq()),
        (
            "barrier",
            collective(5, EngineConfig::default(), |e, _| {
                let comm = e.world();
                e.ibarrier(&comm)
            }),
        ),
        ("eager reduce", reduce(8, EngineConfig::default(), SMALL)),
        ("rndv reduce", reduce(8, EngineConfig::default(), LARGE)),
        ("segmented reduce", reduce(8, segmented, 64 * 1024)),
        (
            "bcast",
            collective(6, EngineConfig::default(), |e, r| {
                let comm = e.world();
                let data = (r == 2).then(|| Bytes::from(vec![4u8; SMALL]));
                e.ibcast(&comm, 2, data, SMALL)
            }),
        ),
        ("tree allreduce", allreduce(6, SMALL, false)),
        ("rabenseifner allreduce", allreduce(8, 4096, false)),
        ("dual-root allreduce", allreduce(6, 4096, true)),
        (
            "gather",
            collective(5, EngineConfig::default(), |e, r| {
                let comm = e.world();
                e.igather(&comm, 1, &f64s(r, 64))
            }),
        ),
        (
            "allgather",
            collective(5, EngineConfig::default(), |e, r| {
                let comm = e.world();
                e.iallgather(&comm, &f64s(r, 64))
            }),
        ),
    ];
    let moved: Vec<String> = rows
        .iter()
        .zip(RECORDED)
        .filter(|((_, got), (_, want))| got != want)
        .map(|((name, got), (_, want))| format!("{name}: got {got:?}, recorded {want:?}"))
        .collect();
    assert_eq!(rows.len(), RECORDED.len());
    assert!(moved.is_empty(), "counters moved:\n{}", moved.join("\n"));
}

/// Per scenario, the counters in [`fields`] order: eager_sent, rndv_sent,
/// packets_processed, posted_matched, unexpected_enqueued,
/// unexpected_matched, copies, copy_bytes, polls, colls_completed,
/// duplicates_suppressed, requests, requests_high_water.
#[rustfmt::skip]
const RECORDED: [(&str, [u64; 13]); 19] = [
    ("eager posted",           [1, 0, 1, 1, 0, 0, 2, 512, 6, 0, 0, 2, 2]),
    ("eager parked",           [1, 0, 1, 0, 1, 1, 3, 768, 7, 0, 0, 2, 2]),
    ("rndv posted",            [0, 1, 3, 1, 0, 0, 0, 0, 10, 0, 0, 2, 2]),
    ("rndv parked",            [0, 1, 3, 0, 1, 1, 0, 0, 11, 0, 0, 2, 2]),
    ("eager posted truncated", [1, 0, 1, 0, 0, 0, 1, 256, 6, 0, 0, 2, 2]),
    ("eager parked truncated", [1, 0, 1, 0, 1, 1, 2, 512, 7, 0, 0, 2, 2]),
    ("rndv posted truncated",  [0, 1, 1, 1, 0, 0, 0, 0, 6, 0, 0, 2, 2]),
    ("rndv parked truncated",  [0, 1, 1, 0, 1, 1, 0, 0, 7, 0, 0, 2, 2]),
    ("repeated rel_seq",       [0, 0, 2, 0, 2, 1, 3, 24, 1, 0, 1, 1, 1]),
    ("barrier",                [15, 0, 15, 15, 0, 0, 30, 0, 25, 5, 0, 20, 10]),
    ("eager reduce",           [7, 0, 7, 7, 0, 0, 14, 3584, 40, 8, 0, 15, 12]),
    ("rndv reduce",            [0, 7, 21, 7, 0, 0, 0, 0, 88, 8, 0, 22, 16]),
    ("segmented reduce",       [140, 0, 140, 28, 112, 112, 392, 1283296, 40, 8, 0, 148, 24]),
    ("bcast",                  [5, 0, 5, 5, 0, 0, 10, 2560, 24, 6, 0, 11, 11]),
    ("tree allreduce",         [10, 0, 10, 9, 1, 1, 21, 5376, 36, 6, 0, 16, 12]),
    ("rabenseifner allreduce", [48, 0, 48, 48, 0, 0, 120, 143360, 64, 8, 0, 56, 16]),
    ("dual-root allreduce",    [20, 0, 20, 20, 0, 0, 40, 81920, 72, 6, 0, 26, 18]),
    ("gather",                 [4, 0, 4, 4, 0, 0, 12, 768, 15, 5, 0, 9, 9]),
    ("allgather",              [8, 0, 8, 8, 0, 0, 20, 3328, 25, 5, 0, 13, 13]),
];
