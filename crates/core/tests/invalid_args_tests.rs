//! A reduction posted with an operator undefined for its element type, or
//! any rooted collective posted with a root outside the communicator, must
//! fail at post on every rank of both engines: no rank panics, no rank is
//! left pending, no request leaks, and the next collective still runs.

use abr_core::{AbConfig, AbEngine};
use abr_mpr::engine::{Engine, EngineConfig, MessageEngine};
use abr_mpr::request::Outcome;
use abr_mpr::testutil::{engines, Loopback};
use abr_mpr::types::{bytes_to_f64s, f64s_to_bytes, Datatype, MprError, Rank};
use abr_mpr::{Communicator, ReduceOp, ReqId};
use std::panic::{catch_unwind, AssertUnwindSafe};

const N: u32 = 8;

/// Post one collective on one rank: `(engine, comm, root, op, data)`.
type Post<E> = fn(&mut E, &Communicator, Rank, ReduceOp, &[u8]) -> ReqId;

/// Every reduction-family and broadcast entry point of the uniform engine
/// surface. Broadcasts ignore the operator.
fn entry_points<E: MessageEngine>() -> Vec<(&'static str, Post<E>)> {
    const F64: Datatype = Datatype::F64;
    vec![
        ("ireduce", |e, c, root, op, d| {
            e.ireduce(c, root, op, F64, d)
        }),
        ("ireduce_split", |e, c, root, op, d| {
            e.ireduce_split(c, root, op, F64, d)
        }),
        ("iallreduce", |e, c, _, op, d| e.iallreduce(c, op, F64, d)),
        ("iallreduce_dual", |e, c, _, op, d| {
            e.iallreduce_dual(c, op, F64, d)
        }),
        ("iallreduce_dual_split", |e, c, _, op, d| {
            e.iallreduce_dual_split(c, op, F64, d)
        }),
        ("ibcast", |e, c, root, _, d| {
            let data = (e.rank() == root).then(|| d.to_vec().into());
            e.ibcast(c, root, data, d.len())
        }),
        ("ibcast_split", |e, c, root, _, d| {
            let data = (e.rank() == root).then(|| d.to_vec().into());
            e.ibcast_split(c, root, data, d.len())
        }),
    ]
}

/// Post `post` on every rank with `root` and `op`, and check that every
/// rank fails with an error `expected` accepts, then that a valid
/// allreduce still completes everywhere.
fn check<E: MessageEngine>(
    engines: Vec<E>,
    name: &str,
    post: Post<E>,
    root: Rank,
    op: ReduceOp,
    expected: fn(&MprError) -> bool,
    live_requests: fn(&E) -> usize,
) {
    let mut lb = Loopback::new(engines);
    let comm = lb.engines[0].world();
    let data = f64s_to_bytes(&[1.0, 2.0, 3.0, 4.0]);
    let mut reqs = Vec::new();
    for rank in 0..N as usize {
        let e = &mut lb.engines[rank];
        let posted = catch_unwind(AssertUnwindSafe(|| post(e, &comm, root, op, &data)));
        let req = posted.unwrap_or_else(|_| panic!("{name}: rank {rank} panicked at post"));
        reqs.push((rank, req));
    }
    for _ in 0..64 {
        lb.route_once();
        lb.progress_all();
    }
    let pending: Vec<usize> = reqs
        .iter()
        .filter(|&&(r, req)| !lb.engines[r].test(req))
        .map(|&(r, _)| r)
        .collect();
    assert!(pending.is_empty(), "{name}: ranks {pending:?} left pending");
    for &(rank, req) in &reqs {
        match lb.engines[rank].take_outcome(req) {
            Some(Outcome::Failed(e)) if expected(&e) => {}
            other => panic!("{name}: rank {rank} completed with {other:?}"),
        }
    }
    for e in &lb.engines {
        assert_eq!(live_requests(e), 0, "{name}: rank {} leaked", e.rank());
    }
    // Nothing was allocated for the rejected call, so the next collective
    // matches across ranks.
    let reqs: Vec<_> = (0..N as usize)
        .map(|r| {
            let e = &mut lb.engines[r];
            (r, e.iallreduce(&comm, ReduceOp::Sum, Datatype::F64, &data))
        })
        .collect();
    lb.run_until_complete(&reqs, 1000);
    for &(rank, req) in &reqs {
        let sums = bytes_to_f64s(&lb.expect_data(rank, req));
        assert_eq!(sums, vec![8.0, 16.0, 24.0, 32.0], "{name}: rank {rank}");
    }
}

fn bad_op(e: &MprError) -> bool {
    matches!(e, MprError::InvalidOpForType { .. })
}

fn bad_rank(e: &MprError) -> bool {
    matches!(e, MprError::InvalidRank { rank: N, size: N })
}

/// Run every entry point (plus `extra`) on fresh engines from `make`, once
/// with a bitwise operator over `F64` and once with root `N`.
fn check_engine<E: MessageEngine>(
    make: fn() -> Vec<E>,
    extra: Vec<(&'static str, Post<E>)>,
    live_requests: fn(&E) -> usize,
) {
    for (name, post) in entry_points::<E>().into_iter().chain(extra) {
        if !name.starts_with("ibcast") {
            check(make(), name, post, 0, ReduceOp::BAnd, bad_op, live_requests);
        }
        if !name.starts_with("iallreduce") {
            check(
                make(),
                name,
                post,
                N,
                ReduceOp::Sum,
                bad_rank,
                live_requests,
            );
        }
    }
}

#[test]
fn baseline_engine_rejects_bad_arguments_at_post() {
    check_engine(
        || engines(N, EngineConfig::default()),
        Vec::new(),
        Engine::live_requests,
    );
}

#[test]
fn bypass_engine_rejects_bad_arguments_at_post() {
    let make = || {
        (0..N)
            .map(|r| AbEngine::new(r, N, EngineConfig::default(), AbConfig::default()))
            .collect()
    };
    let split: Post<AbEngine> = |e, c, _, op, d| e.iallreduce_split(c, op, Datatype::F64, d);
    check_engine(make, vec![("iallreduce_split", split)], |e| {
        e.inner().live_requests()
    });
}
