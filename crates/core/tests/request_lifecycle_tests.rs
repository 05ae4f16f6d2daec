//! The request map's lifecycle under every collective, on both engines.
//!
//! User requests, collectives, collective-internal receives and rendezvous
//! sends enter an engine's request map; an eager collective-internal send
//! completes at post and never does. These tests pin that split through
//! the engine's request counters, and check that every collective leaves
//! the map empty once its outcome is taken.

use abr_core::{AbConfig, AbEngine};
use abr_mpr::engine::{Engine, EngineConfig, MessageEngine};
use abr_mpr::request::Outcome;
use abr_mpr::testutil::{engines, Loopback};
use abr_mpr::types::{bytes_to_f64s, f64s_to_bytes, Datatype};
use abr_mpr::{Communicator, ReduceOp, ReqId};
use bytes::Bytes;

/// The stock engine under either layer.
trait Layers: MessageEngine + Sized {
    fn base(&self) -> &Engine;
    fn base_mut(&mut self) -> &mut Engine;
    fn loopback(n: u32, config: EngineConfig) -> Loopback<Self>;

    /// Let a blocking call return, as the drivers do once a §IV-E bounded
    /// block expires.
    fn settle(&mut self, req: ReqId) {
        if !self.test(req) && self.bounded_block_hint(req).is_some() {
            self.split_phase_exit(req);
        }
    }
}

impl Layers for Engine {
    fn base(&self) -> &Engine {
        self
    }
    fn base_mut(&mut self) -> &mut Engine {
        self
    }
    fn loopback(n: u32, config: EngineConfig) -> Loopback<Self> {
        Loopback::new(engines(n, config))
    }
}

impl Layers for AbEngine {
    fn base(&self) -> &Engine {
        self.inner()
    }
    fn base_mut(&mut self) -> &mut Engine {
        self.inner_mut()
    }
    fn loopback(n: u32, config: EngineConfig) -> Loopback<Self> {
        let engines = (0..n)
            .map(|r| AbEngine::new(r, n, config.clone(), AbConfig::default()))
            .collect();
        let mut lb = Loopback::new(engines);
        lb.signal_dispatch = true;
        lb
    }
}

/// Post one collective on one rank with this rank's `data`.
type Post<E> = fn(&mut E, &Communicator, &[u8]) -> ReqId;

const SUM: ReduceOp = ReduceOp::Sum;
const F64: Datatype = Datatype::F64;

/// Every collective of the uniform surface, plus gather and allgather on
/// the stock engine underneath. Rooted ones root at rank 0.
fn collectives<E: Layers>() -> Vec<(&'static str, Post<E>)> {
    fn root_data(e: &impl MessageEngine, d: &[u8]) -> Option<Bytes> {
        (e.rank() == 0).then(|| Bytes::copy_from_slice(d))
    }
    vec![
        ("barrier", |e, c, _| e.ibarrier(c)),
        ("reduce", |e, c, d| e.ireduce(c, 0, SUM, F64, d)),
        ("reduce_split", |e, c, d| e.ireduce_split(c, 0, SUM, F64, d)),
        ("bcast", |e, c, d| {
            let data = root_data(e, d);
            e.ibcast(c, 0, data, d.len())
        }),
        ("bcast_split", |e, c, d| {
            let data = root_data(e, d);
            e.ibcast_split(c, 0, data, d.len())
        }),
        ("allreduce", |e, c, d| e.iallreduce(c, SUM, F64, d)),
        ("allreduce_dual", |e, c, d| {
            e.iallreduce_dual(c, SUM, F64, d)
        }),
        ("allreduce_dual_split", |e, c, d| {
            e.iallreduce_dual_split(c, SUM, F64, d)
        }),
        ("gather", |e, c, d| e.base_mut().igather(c, 0, d)),
        ("allgather", |e, c, d| e.base_mut().iallgather(c, d)),
    ]
}

/// Run `post` on every rank of `lb` with `elems` doubles each, take every
/// outcome, and return them.
fn run_all<E: Layers>(lb: &mut Loopback<E>, post: Post<E>, elems: usize) -> Vec<Outcome> {
    let comm = lb.engines[0].world();
    let reqs: Vec<_> = (0..lb.engines.len())
        .map(|r| {
            let data = f64s_to_bytes(&vec![r as f64 + 1.0; elems]);
            let req = post(&mut lb.engines[r], &comm, &data);
            lb.engines[r].settle(req);
            (r, req)
        })
        .collect();
    lb.run_until_complete(&reqs, 10_000);
    reqs.into_iter()
        .map(|(r, req)| {
            lb.engines[r]
                .take_outcome(req)
                .expect("a completed request has an outcome")
        })
        .collect()
}

/// Every collective, at an eager and a rendezvous payload, with and
/// without segmentation, completes and leaves no request behind.
fn check_no_leaks<E: Layers>(label: &str) {
    for segments in [1, 4] {
        for elems in [8, 4096] {
            let config = EngineConfig {
                segments,
                ..EngineConfig::default()
            };
            let mut lb = E::loopback(8, config);
            let (k, _) = lb.engines[0].base_mut().segment_plan(0, 8, elems * 8, 8);
            assert_eq!(k >= 2, segments > 1 && elems > 8, "segment plan");
            for (name, post) in collectives::<E>() {
                for (r, outcome) in run_all(&mut lb, post, elems).into_iter().enumerate() {
                    assert!(
                        !matches!(outcome, Outcome::Failed(_)),
                        "{label} {name} ({elems} doubles, {segments} segments): \
                         rank {r} failed: {outcome:?}"
                    );
                }
                for e in &lb.engines {
                    assert_eq!(
                        e.base().live_requests(),
                        0,
                        "{label} {name} ({elems} doubles, {segments} segments): \
                         rank {} leaked requests",
                        e.rank()
                    );
                }
            }
        }
    }
}

#[test]
fn every_collective_leaves_the_request_map_empty() {
    check_no_leaks::<Engine>("stock");
    check_no_leaks::<AbEngine>("bypass");
}

/// A 32-rank dissemination barrier enters exactly the collective and one
/// receive per round on every rank (none of its sends), and the map never
/// holds more than the collective plus one receive.
fn check_barrier<E: Layers>(label: &str) {
    let n = 32;
    let rounds = 5;
    let mut lb = E::loopback(n, EngineConfig::default());
    run_all(&mut lb, |e, c, _| e.ibarrier(c), 0);
    for e in &lb.engines {
        let s = e.base().stats();
        assert_eq!(s.eager_sent, rounds, "{label}: rank {}", e.rank());
        assert_eq!(
            s.requests,
            1 + rounds,
            "{label}: rank {} entered a request per send",
            e.rank()
        );
        assert!(
            s.requests_high_water <= 2,
            "{label}: rank {} held {} requests at once",
            e.rank(),
            s.requests_high_water
        );
        assert_eq!(e.base().live_requests(), 0);
    }
}

#[test]
fn a_barrier_enters_no_send_requests() {
    check_barrier::<Engine>("stock");
    check_barrier::<AbEngine>("bypass");
}

/// An eager reduction over 8 ranks (binomial tree rooted at 0): the stock
/// engine enters the collective plus one receive per child; a bypassed
/// internal rank enters only the request its call returns. Neither enters
/// the send to the parent.
#[test]
fn an_eager_reduce_enters_no_send_requests() {
    let children = [3u64, 0, 1, 0, 2, 0, 1, 0];
    let mut stock = Engine::loopback(8, EngineConfig::default());
    run_all(&mut stock, |e, c, d| e.ireduce(c, 0, SUM, F64, d), 8);
    for (r, e) in stock.engines.iter().enumerate() {
        assert_eq!(e.stats().requests, 1 + children[r], "stock rank {r}");
    }
    let mut bypass = AbEngine::loopback(8, EngineConfig::default());
    run_all(&mut bypass, |e, c, d| e.ireduce(c, 0, SUM, F64, d), 8);
    for (r, e) in bypass.engines.iter().enumerate() {
        // The root falls back to the stock reduction (§V-B); internal
        // ranks post one shell; leaves run the stock path with no child.
        let expect = if r == 0 { 1 + children[r] } else { 1 };
        assert_eq!(e.inner().stats().requests, expect, "bypass rank {r}");
    }
}

/// A 32 KiB reduce and broadcast exceed the 16 KiB eager limit: their
/// sends go rendezvous, enter the map, and are reaped when the collective
/// completes.
fn check_rendezvous<E: Layers>(label: &str) {
    let elems = 4096;
    let n = 8u32;
    let mut lb = E::loopback(n, EngineConfig::default());
    let expect = vec![(1..=n).sum::<u32>() as f64; elems];
    let reduce = run_all(&mut lb, |e, c, d| e.ireduce(c, 0, SUM, F64, d), elems);
    match &reduce[0] {
        Outcome::Data(d) => assert_eq!(bytes_to_f64s(d), expect, "{label}"),
        other => panic!("{label}: root reduce gave {other:?}"),
    }
    let bcast = run_all(
        &mut lb,
        |e, c, d| {
            let data = (e.rank() == 0).then(|| Bytes::copy_from_slice(d));
            e.ibcast(c, 0, data, d.len())
        },
        elems,
    );
    for (r, outcome) in bcast.iter().enumerate() {
        match outcome {
            Outcome::Data(d) => assert_eq!(bytes_to_f64s(d), vec![1.0; elems], "{label}"),
            other => panic!("{label}: rank {r} bcast gave {other:?}"),
        }
    }
    for e in &lb.engines {
        let base = e.base();
        assert!(
            e.rank() == 0 || base.stats().rndv_sent >= 1,
            "{label}: rank {} sent nothing rendezvous",
            e.rank()
        );
        assert_eq!(base.live_requests(), 0, "{label}: rank {} leaked", e.rank());
        assert!(base.memory().is_balanced(), "{label}: rank {}", e.rank());
    }
}

#[test]
fn rendezvous_collective_sends_are_reaped() {
    check_rendezvous::<Engine>("stock");
    check_rendezvous::<AbEngine>("bypass");
}
