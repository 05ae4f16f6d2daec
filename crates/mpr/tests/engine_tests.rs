//! Protocol tests for the baseline engine over the zero-latency loopback.

use abr_mpr::engine::{Engine, EngineConfig};
use abr_mpr::request::Outcome;
use abr_mpr::testutil::{engines, Loopback};
use abr_mpr::types::{bytes_to_f64s, f64s_to_bytes, Datatype, MprError, TagSel};
use abr_mpr::ReduceOp;
use bytes::Bytes;

fn world(n: u32) -> Loopback<Engine> {
    Loopback::new(engines(n, EngineConfig::default()))
}

#[test]
fn eager_send_recv_roundtrip() {
    let mut lb = world(2);
    let comm = lb.engines[0].world();
    let payload = Bytes::from(vec![1u8, 2, 3, 4]);
    let s = lb.engines[0].isend(&comm, 1, 7, payload.clone());
    let r = lb.engines[1].irecv(&comm, Some(0), TagSel::Is(7), 16);
    lb.run_until_complete(&[(0, s), (1, r)], 100);
    assert_eq!(lb.expect_data(1, r), payload);
    lb.expect_done(0, s);
}

#[test]
fn recv_posted_before_send_matches_directly() {
    let mut lb = world(2);
    let comm = lb.engines[0].world();
    let r = lb.engines[1].irecv(&comm, Some(0), TagSel::Is(3), 8);
    lb.run_to_quiescence(50);
    let s = lb.engines[0].isend(&comm, 1, 3, Bytes::from(vec![9u8; 8]));
    lb.run_until_complete(&[(0, s), (1, r)], 100);
    assert_eq!(lb.expect_data(1, r).as_ref(), &[9u8; 8]);
    // Message found a posted receive: exactly one receive-side copy.
    assert_eq!(lb.engines[1].stats().posted_matched, 1);
    assert_eq!(lb.engines[1].stats().unexpected_enqueued, 0);
}

#[test]
fn unexpected_message_takes_two_copies() {
    let mut lb = world(2);
    let comm = lb.engines[0].world();
    let s = lb.engines[0].isend(&comm, 1, 3, Bytes::from(vec![5u8; 32]));
    // Let it land before any receive is posted.
    lb.run_to_quiescence(50);
    lb.engines[1].progress();
    assert_eq!(lb.engines[1].stats().unexpected_enqueued, 1);
    let copies_before = lb.engines[1].stats().copies;
    let r = lb.engines[1].irecv(&comm, Some(0), TagSel::Is(3), 32);
    lb.run_until_complete(&[(0, s), (1, r)], 100);
    assert_eq!(lb.expect_data(1, r).as_ref(), &[5u8; 32]);
    assert_eq!(lb.engines[1].stats().unexpected_matched, 1);
    // Second copy happened when the receive matched the parked message.
    assert_eq!(lb.engines[1].stats().copies, copies_before + 1);
}

#[test]
fn wildcard_source_and_tag() {
    let mut lb = world(3);
    let comm = lb.engines[0].world();
    let s1 = lb.engines[1].isend(&comm, 0, 11, Bytes::from(vec![1u8]));
    let s2 = lb.engines[2].isend(&comm, 0, 22, Bytes::from(vec![2u8]));
    lb.run_to_quiescence(50);
    let ra = lb.engines[0].irecv(&comm, None, TagSel::Any, 8);
    let rb = lb.engines[0].irecv(&comm, None, TagSel::Any, 8);
    lb.run_until_complete(&[(1, s1), (2, s2), (0, ra), (0, rb)], 100);
    let mut got: Vec<u8> = vec![lb.expect_data(0, ra)[0], lb.expect_data(0, rb)[0]];
    got.sort_unstable();
    assert_eq!(got, vec![1, 2]);
}

#[test]
fn truncation_error_on_oversized_eager() {
    let mut lb = world(2);
    let comm = lb.engines[0].world();
    let _s = lb.engines[0].isend(&comm, 1, 1, Bytes::from(vec![0u8; 64]));
    let r = lb.engines[1].irecv(&comm, Some(0), TagSel::Is(1), 16);
    lb.run_until_complete(&[(1, r)], 100);
    match lb.engines[1].take_outcome(r) {
        Some(Outcome::Failed(MprError::Truncation { received, capacity })) => {
            assert_eq!((received, capacity), (64, 16));
        }
        other => panic!("expected truncation, got {other:?}"),
    }
}

#[test]
fn rendezvous_transfer_for_large_messages() {
    let mut lb = world(2);
    let comm = lb.engines[0].world();
    let big = vec![0xabu8; 64 * 1024];
    let s = lb.engines[0].isend(&comm, 1, 5, Bytes::from(big.clone()));
    let r = lb.engines[1].irecv(&comm, Some(0), TagSel::Is(5), big.len());
    lb.run_until_complete(&[(0, s), (1, r)], 200);
    assert_eq!(lb.expect_data(1, r).as_ref(), &big[..]);
    assert_eq!(lb.engines[0].stats().rndv_sent, 1);
    assert_eq!(lb.engines[0].stats().eager_sent, 0);
    // Rendezvous DMAs between pinned buffers: no payload copies anywhere.
    assert_eq!(lb.engines[0].stats().copy_bytes, 0);
    assert_eq!(lb.engines[1].stats().copy_bytes, 0);
    // Pins balanced on both sides.
    assert!(lb.engines[0].memory().is_balanced());
    assert!(lb.engines[1].memory().is_balanced());
}

/// A rendezvous send that cannot pin its payload fails at post with the
/// sizes (`MPI_ERR_NO_MEM`) instead of panicking, and sends nothing; a
/// collective whose send fails that way fails too.
#[test]
fn send_over_the_pinned_memory_budget_fails() {
    let config = EngineConfig {
        memory_budget: Some(4096),
        ..EngineConfig::default()
    };
    let mut e = Engine::new(0, 2, config);
    let comm = e.world();
    let big = Bytes::from(vec![0u8; 32 * 1024]);
    let s = e.isend(&comm, 1, 5, big.clone());
    assert!(e.test(s), "the failure is reported at post");
    let expected = MprError::OutOfPinnedMemory {
        requested: 32 * 1024,
        pinned: 0,
        budget: 4096,
    };
    match e.take_outcome(s) {
        Some(Outcome::Failed(err)) => {
            assert_eq!(err, expected);
            assert_eq!(
                err.to_string(),
                "cannot pin 32768 bytes: 0 of the 4096-byte pinned-memory budget in use"
            );
        }
        other => panic!("expected a pinned-memory failure, got {other:?}"),
    }
    assert!(e.drain_actions().is_empty(), "no RTS for a failed send");
    assert_eq!(e.stats().rndv_sent, 0);
    let b = e.ibcast(&comm, 0, Some(big), 32 * 1024);
    match e.take_outcome(b) {
        Some(Outcome::Failed(err)) => assert_eq!(err, expected),
        other => panic!("expected the bcast to fail, got {other:?}"),
    }
    assert_eq!(e.live_requests(), 0);
    assert!(e.memory().is_balanced());
}

#[test]
fn rendezvous_rts_arriving_before_recv_is_parked() {
    let mut lb = world(2);
    let comm = lb.engines[0].world();
    let big = vec![7u8; 20 * 1024];
    let s = lb.engines[0].isend(&comm, 1, 5, Bytes::from(big.clone()));
    lb.run_to_quiescence(50); // RTS lands unexpected
    assert_eq!(lb.engines[1].stats().unexpected_enqueued, 1);
    let r = lb.engines[1].irecv(&comm, Some(0), TagSel::Is(5), big.len());
    lb.run_until_complete(&[(0, s), (1, r)], 200);
    assert_eq!(lb.expect_data(1, r).len(), big.len());
    assert!(lb.engines[1].memory().is_balanced());
}

#[test]
fn rendezvous_truncation_detected_at_rts() {
    let mut lb = world(2);
    let comm = lb.engines[0].world();
    let _s = lb.engines[0].isend(&comm, 1, 5, Bytes::from(vec![0u8; 32 * 1024]));
    let r = lb.engines[1].irecv(&comm, Some(0), TagSel::Is(5), 1024);
    lb.run_until_complete(&[(1, r)], 200);
    match lb.engines[1].take_outcome(r) {
        Some(Outcome::Failed(MprError::Truncation { .. })) => {}
        other => panic!("expected truncation, got {other:?}"),
    }
}

fn run_reduce(n: u32, root: u32, op: ReduceOp, inputs: &[Vec<f64>]) -> Vec<f64> {
    let mut lb = world(n);
    let comm = lb.engines[0].world();
    let reqs: Vec<_> = (0..n as usize)
        .map(|r| {
            let data = f64s_to_bytes(&inputs[r]);
            (
                r,
                lb.engines[r].ireduce(&comm, root, op, Datatype::F64, &data),
            )
        })
        .collect();
    lb.run_until_complete(&reqs, 2000);
    let mut result = Vec::new();
    for (r, id) in reqs {
        if r == root as usize {
            result = bytes_to_f64s(&lb.expect_data(r, id));
        } else {
            lb.expect_done(r, id);
        }
    }
    result
}

#[test]
fn reduce_sum_two_ranks() {
    let res = run_reduce(2, 0, ReduceOp::Sum, &[vec![1.0, 2.0], vec![10.0, 20.0]]);
    assert_eq!(res, vec![11.0, 22.0]);
}

#[test]
fn reduce_sum_various_sizes_and_roots() {
    for n in [1u32, 2, 3, 4, 5, 7, 8, 13, 16, 32] {
        for root in [0, n - 1, n / 2] {
            let inputs: Vec<Vec<f64>> = (0..n).map(|r| vec![r as f64, 1.0]).collect();
            let res = run_reduce(n, root, ReduceOp::Sum, &inputs);
            let expect0: f64 = (0..n).map(|r| r as f64).sum();
            assert_eq!(res, vec![expect0, n as f64], "n={n} root={root}");
        }
    }
}

#[test]
fn reduce_min_max() {
    let inputs: Vec<Vec<f64>> = (0..8).map(|r| vec![(r as f64) - 3.5]).collect();
    assert_eq!(run_reduce(8, 2, ReduceOp::Min, &inputs), vec![-3.5]);
    assert_eq!(run_reduce(8, 2, ReduceOp::Max, &inputs), vec![3.5]);
}

#[test]
fn reduce_single_rank_completes_immediately() {
    let res = run_reduce(1, 0, ReduceOp::Sum, &[vec![42.0]]);
    assert_eq!(res, vec![42.0]);
}

#[test]
fn reduce_large_message_uses_rendezvous() {
    let n = 4u32;
    let elems = 4096; // 32 KiB > 16 KiB eager limit
    let mut lb = world(n);
    let comm = lb.engines[0].world();
    let reqs: Vec<_> = (0..n as usize)
        .map(|r| {
            let data = f64s_to_bytes(&vec![1.0; elems]);
            (
                r,
                lb.engines[r].ireduce(&comm, 0, ReduceOp::Sum, Datatype::F64, &data),
            )
        })
        .collect();
    lb.run_until_complete(&reqs, 5000);
    let res = bytes_to_f64s(&lb.expect_data(0, reqs[0].1));
    assert!(res.iter().all(|&x| x == n as f64));
    assert!(lb.engines.iter().any(|e| e.stats().rndv_sent > 0));
    for e in &lb.engines {
        assert!(e.memory().is_balanced());
    }
}

#[test]
fn reduce_large_message_with_early_rts() {
    // A child's rendezvous RTS lands *before* the parent posts its reduce:
    // the parked RTS (whose header reuses the coll_seq field as a transfer
    // id) must still match the collective-internal receive cleanly.
    let n = 4u32;
    let elems = 4096; // 32 KiB > eager limit
    let mut lb = world(n);
    let comm = lb.engines[0].world();
    let mut reqs = Vec::new();
    // Leaves (1, 3) and internal node 2 post first; their sends' RTS reach
    // ranks 0 and 2 early.
    for r in [1usize, 3, 2] {
        let data = f64s_to_bytes(&vec![r as f64; elems]);
        reqs.push((
            r,
            lb.engines[r].ireduce(&comm, 0, ReduceOp::Sum, Datatype::F64, &data),
        ));
        lb.run_to_quiescence(100);
    }
    let data = f64s_to_bytes(&vec![0.0; elems]);
    reqs.push((
        0,
        lb.engines[0].ireduce(&comm, 0, ReduceOp::Sum, Datatype::F64, &data),
    ));
    lb.run_until_complete(&reqs, 10_000);
    let res = bytes_to_f64s(&lb.expect_data(0, reqs[3].1));
    assert!(res.iter().all(|&x| x == 6.0), "sum of ranks 0..4");
    for e in &lb.engines {
        assert!(e.memory().is_balanced());
    }
}

#[test]
fn barrier_completes_everywhere() {
    for n in [1u32, 2, 3, 5, 8, 16, 31] {
        let mut lb = world(n);
        let comm = lb.engines[0].world();
        let reqs: Vec<_> = (0..n as usize)
            .map(|r| (r, lb.engines[r].ibarrier(&comm)))
            .collect();
        lb.run_until_complete(&reqs, 2000);
        for (r, id) in reqs {
            lb.expect_done(r, id);
        }
    }
}

#[test]
fn bcast_distributes_root_data() {
    for n in [1u32, 2, 6, 8, 17] {
        for root in [0, n - 1] {
            let mut lb = world(n);
            let comm = lb.engines[0].world();
            let payload = Bytes::from(f64s_to_bytes(&[3.25, -1.0, 0.5]));
            let reqs: Vec<_> = (0..n as usize)
                .map(|r| {
                    let data = (r as u32 == root).then(|| payload.clone());
                    (r, lb.engines[r].ibcast(&comm, root, data, payload.len()))
                })
                .collect();
            lb.run_until_complete(&reqs, 2000);
            for (r, id) in reqs {
                assert_eq!(lb.expect_data(r, id), payload, "n={n} root={root} rank={r}");
            }
        }
    }
}

#[test]
fn allreduce_gives_everyone_the_sum() {
    for n in [1u32, 2, 4, 9, 16] {
        let mut lb = world(n);
        let comm = lb.engines[0].world();
        let reqs: Vec<_> = (0..n as usize)
            .map(|r| {
                let data = f64s_to_bytes(&[r as f64, 2.0]);
                (
                    r,
                    lb.engines[r].iallreduce(&comm, ReduceOp::Sum, Datatype::F64, &data),
                )
            })
            .collect();
        lb.run_until_complete(&reqs, 4000);
        let expect0: f64 = (0..n).map(|r| r as f64).sum();
        for (r, id) in reqs {
            let res = bytes_to_f64s(&lb.expect_data(r, id));
            assert_eq!(res, vec![expect0, 2.0 * n as f64], "n={n} rank={r}");
        }
    }
}

#[test]
fn back_to_back_reduces_keep_instances_straight() {
    let n = 8u32;
    let mut lb = world(n);
    let comm = lb.engines[0].world();
    let rounds = 5;
    let mut reqs_per_round = Vec::new();
    // Post all rounds at once: instances overlap arbitrarily.
    for k in 0..rounds {
        let reqs: Vec<_> = (0..n as usize)
            .map(|r| {
                let data = f64s_to_bytes(&[(r as f64) * (k as f64 + 1.0)]);
                (
                    r,
                    lb.engines[r].ireduce(&comm, 0, ReduceOp::Sum, Datatype::F64, &data),
                )
            })
            .collect();
        reqs_per_round.push(reqs);
    }
    let all: Vec<_> = reqs_per_round.iter().flatten().copied().collect();
    lb.run_until_complete(&all, 5000);
    let base: f64 = (0..n).map(|r| r as f64).sum();
    for (k, reqs) in reqs_per_round.into_iter().enumerate() {
        let res = bytes_to_f64s(&lb.expect_data(0, reqs[0].1));
        assert_eq!(res, vec![base * (k as f64 + 1.0)], "round {k}");
    }
}

#[test]
fn integer_allreduce_band() {
    let n = 4u32;
    let mut lb = world(n);
    let comm = lb.engines[0].world();
    let inputs = [0b1111i32, 0b1110, 0b1101, 0b1011];
    let reqs: Vec<_> = (0..n as usize)
        .map(|r| {
            let data = abr_mpr::types::i32s_to_bytes(&[inputs[r]]);
            (
                r,
                lb.engines[r].iallreduce(&comm, ReduceOp::BAnd, Datatype::I32, &data),
            )
        })
        .collect();
    lb.run_until_complete(&reqs, 2000);
    for (r, id) in reqs {
        let res = abr_mpr::types::bytes_to_i32s(&lb.expect_data(r, id));
        assert_eq!(res, vec![0b1000], "rank {r}");
    }
}

#[test]
fn reduce_charges_cpu_work() {
    let mut lb = world(4);
    let comm = lb.engines[0].world();
    let reqs: Vec<_> = (0..4usize)
        .map(|r| {
            let data = f64s_to_bytes(&[1.0; 32]);
            (
                r,
                lb.engines[r].ireduce(&comm, 0, ReduceOp::Sum, Datatype::F64, &data),
            )
        })
        .collect();
    lb.run_until_complete(&reqs, 1000);
    for e in lb.engines.iter_mut() {
        let c = e.take_charges();
        assert!(!c.is_zero(), "rank {} charged nothing", e.rank());
        assert!(!c.polling.is_zero(), "polling must be charged");
        assert!(!c.protocol.is_zero(), "protocol work must be charged");
    }
}

#[test]
fn no_request_leaks_after_collectives() {
    let n = 8u32;
    let mut lb = world(n);
    let comm = lb.engines[0].world();
    let mut all = Vec::new();
    for _ in 0..3 {
        for r in 0..n as usize {
            let data = f64s_to_bytes(&[1.0]);
            all.push((
                r,
                lb.engines[r].ireduce(&comm, 0, ReduceOp::Sum, Datatype::F64, &data),
            ));
        }
        for r in 0..n as usize {
            all.push((r, lb.engines[r].ibarrier(&comm)));
        }
    }
    lb.run_until_complete(&all, 5000);
    for (r, id) in all {
        let _ = lb.engines[r].take_outcome(id);
    }
    for e in &lb.engines {
        assert_eq!(e.live_requests(), 0, "rank {} leaked requests", e.rank());
    }
}

#[test]
fn distinct_communicators_do_not_cross_match() {
    let mut lb = world(2);
    let world_comm = lb.engines[0].world();
    let other: Vec<_> = lb.engines.iter_mut().map(|e| e.create_comm()).collect();
    assert_eq!(other[0], other[1]);
    // Send on the derived communicator, receive posted on world: no match.
    let s = lb.engines[0].isend(&other[0], 1, 4, Bytes::from(vec![1u8]));
    let r_world = lb.engines[1].irecv(&world_comm, Some(0), TagSel::Is(4), 8);
    lb.run_to_quiescence(50);
    assert!(!lb.engines[1].test(r_world), "cross-communicator match!");
    // A receive on the right communicator picks it up.
    let r_other = lb.engines[1].irecv(&other[1], Some(0), TagSel::Is(4), 8);
    lb.run_until_complete(&[(0, s), (1, r_other)], 100);
    assert_eq!(lb.expect_data(1, r_other).as_ref(), &[1u8]);
}
