//! Tests for the gather and allgather collectives.

use abr_mpr::engine::{Engine, EngineConfig};
use abr_mpr::request::Outcome;
use abr_mpr::testutil::{engines, Loopback};
use abr_mpr::types::{bytes_to_f64s, f64s_to_bytes};

fn world(n: u32) -> Loopback<Engine> {
    Loopback::new(engines(n, EngineConfig::default()))
}

#[test]
fn gather_assembles_blocks_in_rank_order() {
    for n in [1u32, 2, 3, 5, 8, 16] {
        for root in [0, n - 1] {
            let mut lb = world(n);
            let comm = lb.engines[0].world();
            let reqs: Vec<_> = (0..n as usize)
                .map(|r| {
                    let data = f64s_to_bytes(&[r as f64, -(r as f64)]);
                    (r, lb.engines[r].igather(&comm, root, &data))
                })
                .collect();
            lb.run_until_complete(&reqs, 3000);
            for (r, id) in reqs {
                match lb.engines[r].take_outcome(id) {
                    Some(Outcome::Data(d)) => {
                        assert_eq!(r as u32, root, "only the root gets data");
                        let vals = bytes_to_f64s(&d);
                        let expect: Vec<f64> =
                            (0..n).flat_map(|k| [k as f64, -(k as f64)]).collect();
                        assert_eq!(vals, expect, "n={n} root={root}");
                    }
                    Some(Outcome::Done) => assert_ne!(r as u32, root),
                    other => panic!("n={n} root={root} rank={r}: {other:?}"),
                }
            }
        }
    }
}

#[test]
fn allgather_gives_everyone_everything() {
    for n in [1u32, 2, 4, 6, 16] {
        let mut lb = world(n);
        let comm = lb.engines[0].world();
        let reqs: Vec<_> = (0..n as usize)
            .map(|r| {
                let data = f64s_to_bytes(&[(r * r) as f64]);
                (r, lb.engines[r].iallgather(&comm, &data))
            })
            .collect();
        lb.run_until_complete(&reqs, 4000);
        let expect: Vec<f64> = (0..n).map(|k| (k * k) as f64).collect();
        for (r, id) in reqs {
            match lb.engines[r].take_outcome(id) {
                Some(Outcome::Data(d)) => assert_eq!(bytes_to_f64s(&d), expect, "n={n} rank={r}"),
                other => panic!("n={n} rank={r}: {other:?}"),
            }
        }
    }
}

#[test]
fn gather_with_early_and_late_senders() {
    let n = 6u32;
    let mut lb = world(n);
    let comm = lb.engines[0].world();
    // Half the senders go before the root posts, half after.
    let mut reqs = Vec::new();
    for r in [1usize, 2] {
        let data = f64s_to_bytes(&[r as f64]);
        reqs.push((r, lb.engines[r].igather(&comm, 0, &data)));
    }
    lb.run_to_quiescence(100);
    let root_req = {
        let data = f64s_to_bytes(&[0.0]);
        lb.engines[0].igather(&comm, 0, &data)
    };
    reqs.push((0, root_req));
    for r in [3usize, 4, 5] {
        let data = f64s_to_bytes(&[r as f64]);
        reqs.push((r, lb.engines[r].igather(&comm, 0, &data)));
    }
    lb.run_until_complete(&reqs, 3000);
    match lb.engines[0].take_outcome(root_req) {
        Some(Outcome::Data(d)) => {
            assert_eq!(bytes_to_f64s(&d), vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        }
        other => panic!("{other:?}"),
    }
}
