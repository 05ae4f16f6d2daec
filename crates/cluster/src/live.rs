//! The live threaded runtime.
//!
//! One OS thread per rank runs real application code against a
//! [`RankCtx`] handle; one *dispatcher* thread per rank plays the role of
//! the NIC+kernel signal path. Both enter the engine through one node loop
//! (`RankShared::service`): mail flows mailbox → reliability layer (under
//! faults) → engine, a collective packet raises a pending-signal flag,
//! and the asynchronous handler runs once that flag is up and the engine
//! has signals enabled. The application thread runs the loop before and
//! after each engine call; the dispatcher runs it on every wake (mail or
//! idle timeout) if it can take the engine lock. If the application thread
//! holds the lock (progress already underway), the dispatcher skips — the
//! live analogue of Fig. 4's "signal is simply ignored" — and the flag
//! keeps the signal for the holder's next pass.
//!
//! Every blocking [`RankCtx`] verb takes one path: post the request, block
//! on it (polling, with the §IV-E bounded exit for bypassed reductions),
//! and shape its outcome.
//!
//! The protocol engines are byte-for-byte the same objects the
//! discrete-event driver runs; this runtime exists to demonstrate the
//! system end-to-end with real threads and real (wall-clock) skew, and to
//! cross-check results between the two drivers.

use crate::node::ClusterSpec;
use abr_core::{AbConfig, AbEngine};
use abr_faults::{FaultInjector, FaultPlan, NodeReliability, RelConfig, RelEvent, RelStats};
use abr_gm::live::{LiveFabric, Mailbox};
use abr_gm::packet::{NodeId, Packet, PacketKind};
use abr_mpr::engine::{Action, MessageEngine};
use abr_mpr::op::ReduceOp;
use abr_mpr::request::Outcome;
use abr_mpr::types::{Datatype, MprError, Rank, TagSel};
use abr_mpr::{Communicator, ReqId};
use abr_trace::{TraceHandle, Tracer};
use bytes::Bytes;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a dispatcher waits for mail before an idle service pass.
const DISPATCH_IDLE: Duration = Duration::from_micros(200);
/// How long a dispatcher backs off when the application thread holds the
/// engine lock.
const LOCK_HELD_BACKOFF: Duration = Duration::from_micros(20);
/// How long a blocked application thread waits for mail before re-polling.
const BLOCK_POLL: Duration = Duration::from_micros(100);

/// A packet held back by the fault injector's delay verdict.
struct Delayed {
    due: Instant,
    /// Tie-breaker preserving injection order for equal deadlines.
    seq: u64,
    pkt: Packet,
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Delayed {}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// Shared fault-injection state for a live run: the (locked) injector, the
/// delay queue its verdicts feed, and the wall-clock epoch that stands in
/// for the DES's virtual clock.
struct LiveFaults {
    fabric: Arc<LiveFabric>,
    injector: Mutex<FaultInjector>,
    delays: Mutex<BinaryHeap<Reverse<Delayed>>>,
    cv: Condvar,
    epoch: Instant,
    next_seq: AtomicU64,
    shutdown: AtomicBool,
}

impl LiveFaults {
    fn new(fabric: Arc<LiveFabric>, plan: &FaultPlan) -> Self {
        LiveFaults {
            fabric,
            injector: Mutex::new(FaultInjector::new(plan.clone())),
            delays: Mutex::new(BinaryHeap::new()),
            cv: Condvar::new(),
            epoch: Instant::now(),
            next_seq: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Nanoseconds since the run started — the live analogue of virtual
    /// time, fed to the reliability layer's timers.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Put a packet on the wire through the injector: dropped copies vanish,
    /// prompt copies go straight to the fabric, delayed copies park in the
    /// delay queue for the worker thread.
    fn send(&self, pkt: Packet) {
        let v = self
            .injector
            .lock()
            .expect("fault injector lock poisoned")
            .decide(&pkt, None);
        for _ in 0..v.copies {
            if v.extra_delay_ns == 0 {
                self.fabric.send(pkt.clone());
            } else {
                let entry = Delayed {
                    due: Instant::now() + Duration::from_nanos(v.extra_delay_ns),
                    seq: self.next_seq.fetch_add(1, Ordering::SeqCst),
                    pkt: pkt.clone(),
                };
                self.delays
                    .lock()
                    .expect("delay queue lock poisoned")
                    .push(Reverse(entry));
                self.cv.notify_all();
            }
        }
    }

    /// Wake the delay worker for exit.
    fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }

    /// The delay-queue worker: releases parked packets when they come due.
    fn delay_worker(&self) {
        let mut q = self.delays.lock().expect("delay queue lock poisoned");
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let now = Instant::now();
            let mut due = Vec::new();
            while q.peek().is_some_and(|Reverse(d)| d.due <= now) {
                due.push(q.pop().expect("peeked non-empty").0.pkt);
            }
            if !due.is_empty() {
                drop(q);
                for p in due {
                    self.fabric.send(p);
                }
                q = self.delays.lock().expect("delay queue lock poisoned");
                continue;
            }
            let wait = match q.peek() {
                Some(Reverse(d)) => d.due.saturating_duration_since(now),
                None => Duration::from_millis(50),
            };
            let (guard, _) = self
                .cv
                .wait_timeout(q, wait.max(Duration::from_micros(1)))
                .expect("delay queue lock poisoned");
            q = guard;
        }
    }
}

/// What the engine mutex protects: the protocol engine plus (under faults)
/// the rank's reliability state, so mail always flows mailbox → reliability
/// → engine under one lock, and the buffers [`RankShared::service`] reuses.
struct RankState {
    eng: AbEngine,
    rel: Option<NodeReliability>,
    /// A collective packet reached the engine but the NIC signal has not
    /// fired yet. The flag survives across service passes so a packet that
    /// lands while signals are still disabled (its descriptor not yet
    /// posted) triggers the handler as soon as signals come up, instead of
    /// parking in the engine forever.
    pending_collective: bool,
    mail: Vec<Packet>,
    rel_out: Vec<RelEvent>,
    actions: Vec<Action>,
}

impl RankState {
    fn new(eng: AbEngine, rel: Option<NodeReliability>) -> Self {
        RankState {
            eng,
            rel,
            pending_collective: false,
            mail: Vec::new(),
            rel_out: Vec::new(),
            actions: Vec::new(),
        }
    }
}

struct RankShared {
    rank: u32,
    engine: Mutex<RankState>,
    mailbox: Arc<Mailbox>,
    fabric: Arc<LiveFabric>,
    faults: Option<Arc<LiveFaults>>,
}

impl RankShared {
    /// The node loop, the one place the live runtime applies its node
    /// rules. Mail flows mailbox → reliability (under faults, which also
    /// fires due retransmissions) → engine; a packet that lands while
    /// signals are disabled waits in the engine's receive queue, as in the
    /// DES. The NIC signal handler runs when `pending_collective` is up and
    /// the engine has signals enabled. Last, every queued send is routed.
    fn service(&self, st: &mut RankState) {
        let RankState {
            eng,
            rel,
            pending_collective,
            mail,
            rel_out,
            actions,
        } = st;
        self.mailbox.drain_into(mail);
        let mut deliver = |p: Packet| {
            *pending_collective |= p.header.kind == PacketKind::Collective;
            eng.deliver(p);
        };
        match (rel.as_mut(), &self.faults) {
            (Some(rel), Some(fl)) => {
                let now = fl.now_ns();
                for pkt in mail.drain(..) {
                    rel.on_receive(pkt, now, rel_out);
                }
                rel.on_tick(now, rel_out);
                for e in rel_out.drain(..) {
                    match e {
                        RelEvent::Deliver(p) => deliver(p),
                        RelEvent::Transmit(p) => fl.send(p),
                        RelEvent::LinkDead { peer } => panic!(
                            "rank {}: link to rank {peer} declared dead (retry budget exhausted)",
                            self.rank
                        ),
                    }
                }
            }
            _ => mail.drain(..).for_each(deliver),
        }
        if *pending_collective && eng.signals_enabled() {
            *pending_collective = false;
            eng.handle_signal();
        }
        // Signal toggles need no routing: the engine's own flag, read above
        // under the lock, is the NIC state.
        eng.drain_actions_into(actions);
        for a in actions.drain(..) {
            if let Action::Send(pkt) = a {
                match (rel.as_mut(), &self.faults) {
                    (Some(rel), Some(fl)) => fl.send(rel.on_send(pkt, fl.now_ns())),
                    _ => self.fabric.send(pkt),
                }
            }
        }
    }

    /// Run `f` on the engine between two service passes. The second pass
    /// fires the signal `f` may have just enabled (posting a descriptor for
    /// a collective whose packets already arrived) and routes what `f`
    /// queued. The caller must hold no engine lock.
    fn with_engine<T>(&self, f: impl FnOnce(&mut AbEngine) -> T) -> T {
        let mut st = self.engine.lock().expect("engine lock poisoned");
        self.service(&mut st);
        let out = f(&mut st.eng);
        self.service(&mut st);
        out
    }
}

/// Statistics snapshot taken at rank shutdown.
#[derive(Debug, Clone)]
pub struct LiveRankStats {
    /// Application-bypass counters.
    pub ab: abr_core::AbStats,
    /// Engine counters.
    pub counters: Vec<(&'static str, u64)>,
}

/// The per-rank handle application closures program against.
pub struct RankCtx {
    rank: Rank,
    size: u32,
    /// The communicator every blocking verb runs over: the world
    /// communicator in a solo run, the job communicator under
    /// [`run_live_jobs`] (ranks are job-local either way).
    comm: Communicator,
    shared: Arc<RankShared>,
}

impl RankCtx {
    /// This rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// The communicator this rank's collectives run over (the world
    /// communicator, or the job communicator under [`run_live_jobs`]).
    pub fn world(&self) -> Communicator {
        self.comm
    }

    /// Post a request on this rank's communicator.
    fn post(&self, post: impl FnOnce(&mut AbEngine, &Communicator) -> ReqId) -> ReqId {
        self.shared.with_engine(|e| post(e, &self.comm))
    }

    /// Post a split-phase request and hand out its handle.
    fn split(&self, post: impl FnOnce(&mut AbEngine, &Communicator) -> ReqId) -> SplitReduce<'_> {
        SplitReduce {
            ctx: self,
            req: self.post(post),
        }
    }

    /// Post, block and return the data of a verb that yields data on every
    /// rank.
    fn call_data(
        &self,
        verb: &str,
        post: impl FnOnce(&mut AbEngine, &Communicator) -> ReqId,
    ) -> Result<Bytes, MprError> {
        let data = self.finish(self.post(post))?;
        Ok(data.unwrap_or_else(|| panic!("{verb} completed without data")))
    }

    /// Block on `req` and shape its outcome: the data if it carries any,
    /// `Err` if the request failed.
    fn finish(&self, req: ReqId) -> Result<Option<Bytes>, MprError> {
        // Honour the bounded-block hint (the §IV-E exit delay): poll inside
        // the "call" until the budget expires, then split-phase exit.
        let mut deadline: Option<Instant> = None;
        let outcome = loop {
            let (outcome, hint) = self.shared.with_engine(|e| {
                e.progress();
                let outcome = e.test(req).then(|| e.take_outcome(req));
                (outcome, e.bounded_block_hint(req))
            });
            if let Some(outcome) = outcome {
                break outcome;
            }
            if let Some(budget) = hint {
                let dl = *deadline.get_or_insert_with(|| {
                    Instant::now() + Duration::from_nanos(budget.as_nanos())
                });
                if Instant::now() >= dl {
                    break self.shared.with_engine(|e| {
                        e.split_phase_exit(req);
                        debug_assert!(e.test(req));
                        e.take_outcome(req)
                    });
                }
            }
            // Wakes on any arrival, also one the dispatcher's service pass
            // has already moved into the engine's receive queue.
            self.shared.mailbox.wait_nonempty(Some(BLOCK_POLL));
            if self.shared.mailbox.is_closed() {
                // A closed fabric under a still-blocked call can only mean
                // abnormal shutdown (a peer rank panicked and its guard tore
                // the fabric down): this request can never complete, so fail
                // loudly instead of hanging the scope.
                let done = self.shared.with_engine(|e| {
                    e.progress();
                    e.test(req)
                });
                if !done {
                    panic!(
                        "rank {}: fabric closed while blocked on a request — a peer rank failed",
                        self.rank
                    );
                }
            }
        };
        match outcome {
            Some(Outcome::Data(d)) => Ok(Some(d)),
            Some(Outcome::Done) | None => Ok(None),
            Some(Outcome::Failed(e)) => Err(e),
        }
    }

    /// Blocking reduction; the root gets `Some(result_bytes)`.
    pub fn reduce(
        &self,
        root: Rank,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> Result<Option<Bytes>, MprError> {
        self.finish(self.post(|e, c| e.ireduce(c, root, op, dtype, data)))
    }

    /// Split-phase reduction (extension): returns a handle immediately; the
    /// reduction progresses via signals while this thread computes.
    pub fn reduce_split(
        &self,
        root: Rank,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> SplitReduce<'_> {
        self.split(|e, c| AbEngine::ireduce_split(e, c, root, op, dtype, data))
    }

    /// Split-phase allreduce (§II extension): a bypassed reduce chained
    /// into a bypassed broadcast; every rank's handle completes with the
    /// reduced data, signal-driven.
    pub fn allreduce_split(&self, op: ReduceOp, dtype: Datatype, data: &[u8]) -> SplitReduce<'_> {
        self.split(|e, c| e.iallreduce_split(c, op, dtype, data))
    }

    /// Blocking allreduce; every rank gets the result.
    pub fn allreduce(&self, op: ReduceOp, dtype: Datatype, data: &[u8]) -> Result<Bytes, MprError> {
        self.call_data("allreduce", |e, c| e.iallreduce(c, op, dtype, data))
    }

    /// Blocking dual-root doubly-pipelined allreduce (Träff): both halves
    /// of the vector travel opposite-direction chains concurrently. Every
    /// rank gets the result; small vectors fall back to the plain
    /// allreduce.
    pub fn allreduce_dual(
        &self,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> Result<Bytes, MprError> {
        self.call_data("allreduce_dual", |e, c| {
            e.iallreduce_dual(c, op, dtype, data)
        })
    }

    /// Split-phase dual-root allreduce; waited on like the other split
    /// handles, completes with the reduced vector on every rank.
    pub fn allreduce_dual_split(
        &self,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> SplitReduce<'_> {
        self.split(|e, c| e.iallreduce_dual_split(c, op, dtype, data))
    }

    /// Split-phase application-bypass broadcast (ref. \[8\]): returns a
    /// handle immediately; interior forwarding happens in the dispatcher's
    /// signal path while this thread computes.
    pub fn bcast_split(&self, root: Rank, data: Option<Bytes>, len: usize) -> SplitReduce<'_> {
        self.split(|e, c| e.ibcast_split(c, root, data, len))
    }

    /// Blocking broadcast from `root`.
    pub fn bcast(&self, root: Rank, data: Option<Bytes>, len: usize) -> Result<Bytes, MprError> {
        self.call_data("bcast", |e, c| e.ibcast(c, root, data, len))
    }

    /// Blocking allgather; every rank gets every block in rank order.
    pub fn allgather(&self, data: &[u8]) -> Result<Bytes, MprError> {
        self.call_data("allgather", |e, c| {
            abr_mpr::engine::Engine::iallgather(e.inner_mut(), c, data)
        })
    }

    /// Blocking barrier.
    pub fn barrier(&self) {
        if let Err(e) = self.finish(self.post(|e, c| e.ibarrier(c))) {
            panic!("barrier failed: {e}")
        }
    }

    /// Blocking send.
    pub fn send(&self, dst: Rank, tag: i32, data: Bytes) -> Result<(), MprError> {
        self.finish(self.post(|e, c| e.isend(c, dst, tag, data)))
            .map(drop)
    }

    /// Blocking receive.
    pub fn recv(&self, src: Option<Rank>, tag: TagSel, cap: usize) -> Result<Bytes, MprError> {
        self.call_data("recv", |e, c| e.irecv(c, src, tag, cap))
    }

    /// Snapshot the rank's statistics.
    pub fn stats(&self) -> LiveRankStats {
        self.shared.with_engine(|e| LiveRankStats {
            ab: *e.ab_stats(),
            counters: e.counters(),
        })
    }
}

/// Handle to an in-flight split-phase reduction.
pub struct SplitReduce<'a> {
    ctx: &'a RankCtx,
    req: ReqId,
}

impl SplitReduce<'_> {
    /// Non-blocking completion test — no engine progress is made, so a
    /// `true` here under signal dispatch proves the bypass worked.
    pub fn test(&self) -> bool {
        self.ctx
            .shared
            .engine
            .lock()
            .expect("engine lock poisoned")
            .eng
            .test(self.req)
    }

    /// Wait for completion; the root gets `Some(result)`.
    pub fn wait(self) -> Result<Option<Bytes>, MprError> {
        self.ctx.finish(self.req)
    }
}

/// One rank's NIC + kernel signal path. On every wake (mail or idle
/// timeout) it runs [`RankShared::service`] if it can take the engine
/// lock; a held lock means progress is already underway, and the signal is
/// simply ignored (Fig. 4) — the holder's own service pass picks up the
/// pending flag. Under faults the same pass fires due retransmissions, so
/// a lost packet recovers even while every application thread is blocked.
///
/// The dispatcher serves until the whole run is over (fabric closed) and
/// makes one last pass then: a rank's application thread may return while
/// its own reduction is still in flight — that is the entire point of
/// application bypass — and only this thread can finish it.
fn dispatcher_loop(shared: Arc<RankShared>) {
    loop {
        shared.mailbox.wait_nonempty(Some(DISPATCH_IDLE));
        let closed = shared.mailbox.is_closed();
        // try_lock treats a poisoned lock like a held one: the owning rank
        // died mid-crank, there is nothing to save.
        if let Ok(mut st) = shared.engine.try_lock() {
            shared.service(&mut st);
        } else if !closed {
            std::thread::sleep(LOCK_HELD_BACKOFF);
        }
        if closed {
            return;
        }
    }
}

/// Panic-safe teardown for one application thread. On normal return the
/// *last* rank out closes the fabric; on panic the dying rank closes it
/// immediately, so blocked peers and dispatcher threads wake and exit
/// instead of hanging `thread::scope` forever.
struct ShutdownGuard<'a> {
    fabric: &'a LiveFabric,
    faults: Option<&'a Arc<LiveFaults>>,
    finished: &'a AtomicUsize,
    n: usize,
}

impl ShutdownGuard<'_> {
    fn close(&self) {
        self.fabric.close_all();
        if let Some(f) = self.faults {
            f.stop();
        }
    }
}

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        // Short-circuit keeps a panicking rank from counting itself finished.
        if std::thread::panicking() || self.finished.fetch_add(1, Ordering::SeqCst) + 1 == self.n {
            self.close();
        }
    }
}

/// Results of a live run under a fault plan.
#[derive(Debug)]
pub struct LiveOutcome<R> {
    /// Each rank's closure result, in rank order.
    pub results: Vec<R>,
    /// Aggregate reliability-layer counters across all ranks (all zero
    /// when the plan was [`FaultPlan::none`]).
    pub rel: RelStats,
}

/// Run `f` on `n` ranks over the live runtime; returns each rank's result
/// in rank order. `ab` selects bypass or baseline engines (the cost model
/// still *accounts* charges, but wall-clock time is what the threads
/// actually experience).
pub fn run_live<R: Send>(
    spec: &ClusterSpec,
    ab: AbConfig,
    f: impl Fn(&RankCtx) -> R + Send + Sync,
) -> Vec<R> {
    run_live_faults(spec, ab, &FaultPlan::none(), RelConfig::live_default(), f).results
}

/// [`run_live`] under a seeded [`FaultPlan`]: every engine-originated
/// packet passes through the fault injector (drop/duplicate/delay/stall)
/// and the per-rank reliability layer recovers whatever the plan breaks.
/// Window-scoped rules never fire here (no virtual clock); window-free
/// plans replay the DES schedule exactly.
pub fn run_live_faults<R: Send>(
    spec: &ClusterSpec,
    ab: AbConfig,
    plan: &FaultPlan,
    rel_cfg: RelConfig,
    f: impl Fn(&RankCtx) -> R + Send + Sync,
) -> LiveOutcome<R> {
    run_live_traced(spec, ab, plan, rel_cfg, None, f)
}

/// [`run_live_faults`] with an optional [`Tracer`] wired through the stack:
/// each rank's engine and reliability layer gets a per-rank handle and the
/// fault injector reports its verdicts. Live events carry wall-clock stamps
/// (build the recorder with [`abr_trace::TraceClock::Wall`]); the engines
/// still emit the same ordered send/recv skeleton as the DES driver for the
/// same seed and plan.
pub fn run_live_traced<R: Send>(
    spec: &ClusterSpec,
    ab: AbConfig,
    plan: &FaultPlan,
    rel_cfg: RelConfig,
    tracer: Option<Arc<dyn Tracer>>,
    f: impl Fn(&RankCtx) -> R + Send + Sync,
) -> LiveOutcome<R> {
    let n = spec.len() as u32;
    run_live_world(
        spec,
        ab,
        plan,
        rel_cfg,
        tracer,
        Communicator::world(n),
        n,
        &f,
    )
}

/// Run several jobs concurrently over the live runtime: one engine set and
/// one private [`LiveFabric`] per job (jobs are closed under communication,
/// so no cross-job packets exist to route), with every job's collectives
/// running over its [`Communicator::job`] context. `sizes[j]` is job `j`'s
/// rank count; the closure gets `(job, ctx)` and runs on job-local ranks
/// `0..sizes[j]`. Returns each job's rank-ordered results, in job order.
///
/// This is the live twin of the DES driver's `new_jobs` construction path:
/// the contention co-scheduled jobs exert on each other here is real —
/// every rank is an OS thread and nab ranks burn host CPU busy-polling.
pub fn run_live_jobs<R: Send>(
    spec: &ClusterSpec,
    ab: AbConfig,
    sizes: &[u32],
    f: impl Fn(u32, &RankCtx) -> R + Send + Sync,
) -> Vec<Vec<R>> {
    assert!(!sizes.is_empty(), "run_live_jobs needs at least one job");
    let mut out: Vec<Option<Vec<R>>> = sizes.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        for (j, slot) in out.iter_mut().enumerate() {
            let size = sizes[j];
            assert!(size >= 1, "job {j} has no ranks");
            let ab = ab.clone();
            let f = &f;
            s.spawn(move || {
                let job = j as u32;
                let jf = move |ctx: &RankCtx| f(job, ctx);
                *slot = Some(
                    run_live_world(
                        spec,
                        ab,
                        &FaultPlan::none(),
                        RelConfig::live_default(),
                        None,
                        Communicator::job(job, size),
                        size,
                        &jf,
                    )
                    .results,
                );
            });
        }
    });
    out.into_iter()
        .map(|o| o.expect("job thread completed"))
        .collect()
}

/// The shared body of [`run_live_traced`] and [`run_live_jobs`]: run `n`
/// rank threads whose collectives travel over `world` (the world
/// communicator, or a job communicator for one job of a tenant run).
#[allow(clippy::too_many_arguments)]
fn run_live_world<R: Send, F: Fn(&RankCtx) -> R + Send + Sync>(
    spec: &ClusterSpec,
    ab: AbConfig,
    plan: &FaultPlan,
    rel_cfg: RelConfig,
    tracer: Option<Arc<dyn Tracer>>,
    world: Communicator,
    n: u32,
    f: &F,
) -> LiveOutcome<R> {
    let fabric = Arc::new(LiveFabric::new(n as usize));
    let faults = (!plan.is_none()).then(|| {
        let fl = LiveFaults::new(Arc::clone(&fabric), plan);
        if let Some(t) = &tracer {
            fl.injector
                .lock()
                .expect("fault injector lock poisoned")
                .set_tracer(TraceHandle::new(t.clone(), 0));
        }
        Arc::new(fl)
    });
    let shareds: Vec<Arc<RankShared>> = (0..n)
        .map(|r| {
            let mut state = RankState::new(
                AbEngine::new(r, n, spec.engine_config(), ab.clone()),
                faults.as_ref().map(|_| NodeReliability::new(r, rel_cfg)),
            );
            // Rebind the collective context: a no-op for solo runs (the
            // engine is born with `world(n)`), the job communicator under
            // `run_live_jobs`.
            state.eng.set_world(world);
            if let Some(t) = &tracer {
                let h = TraceHandle::new(t.clone(), r);
                state.eng.set_tracer(h.clone());
                if let Some(rel) = &mut state.rel {
                    rel.set_tracer(h);
                }
            }
            Arc::new(RankShared {
                rank: r,
                engine: Mutex::new(state),
                mailbox: fabric.mailbox(NodeId(r)),
                fabric: Arc::clone(&fabric),
                faults: faults.clone(),
            })
        })
        .collect();
    let finished = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        // The delay-queue worker (only under faults).
        if let Some(fl) = &faults {
            let fl = Arc::clone(fl);
            s.spawn(move || fl.delay_worker());
        }
        // Dispatcher threads (the NIC/kernel signal path).
        for shared in &shareds {
            let shared = Arc::clone(shared);
            s.spawn(move || dispatcher_loop(shared));
        }
        // Application threads.
        for (r, slot) in results.iter_mut().enumerate() {
            let shared = Arc::clone(&shareds[r]);
            let fabric = Arc::clone(&fabric);
            let faults = &faults;
            let f = &f;
            let finished = &finished;
            s.spawn(move || {
                // Declared before `f` runs so its Drop observes a panic
                // inside the closure and tears the fabric down.
                let _guard = ShutdownGuard {
                    fabric: &fabric,
                    faults: faults.as_ref(),
                    finished,
                    n: n as usize,
                };
                let ctx = RankCtx {
                    rank: r as u32,
                    size: n,
                    comm: world,
                    shared: Arc::clone(&shared),
                };
                *slot = Some(f(&ctx));
            });
        }
    });
    let mut rel = RelStats::default();
    for shared in &shareds {
        let st = shared.engine.lock().expect("engine lock poisoned");
        if let Some(r) = &st.rel {
            rel.merge(&r.stats());
        }
    }
    LiveOutcome {
        results: results.into_iter().map(|r| r.unwrap()).collect(),
        rel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_mpr::types::{bytes_to_f64s, f64s_to_bytes};

    fn spec(n: u32) -> ClusterSpec {
        ClusterSpec::homogeneous_1000(n)
    }

    #[test]
    fn service_fires_a_signal_pending_from_before_signals_came_up() {
        // No threads: rank 0 of 4 (binomial children 1 and 2) sees child
        // 1's collective packet land before it posts its split reduce.
        let n = 4;
        let engine = |r| AbEngine::new(r, n, spec(n).engine_config(), AbConfig::default());
        let fabric = Arc::new(LiveFabric::new(n as usize));
        let shared = RankShared {
            rank: 0,
            engine: Mutex::new(RankState::new(engine(0), None)),
            mailbox: fabric.mailbox(NodeId(0)),
            fabric: Arc::clone(&fabric),
            faults: None,
        };
        let comm = Communicator::world(n);
        let data = f64s_to_bytes(&[1.0]);
        let mut leaf = engine(1);
        leaf.ireduce(&comm, 0, ReduceOp::Sum, Datatype::F64, &data);
        for a in leaf.drain_actions() {
            if let Action::Send(p) = a {
                fabric.send(p);
            }
        }
        let mut st = shared.engine.lock().unwrap();
        shared.service(&mut st);
        assert!(st.pending_collective, "the child's packet is collective");
        assert!(!st.eng.signals_enabled());
        assert_eq!(
            st.eng.ab_stats().signals_handled,
            0,
            "no handler runs while signals are disabled"
        );
        let req = st
            .eng
            .ireduce_split(&comm, 0, ReduceOp::Sum, Datatype::F64, &data);
        assert!(st.eng.signals_enabled(), "child 2 is still outstanding");
        shared.service(&mut st);
        assert_eq!(
            st.eng.ab_stats().signals_handled,
            1,
            "the first pass after signals come up runs the pending handler"
        );
        shared.service(&mut st);
        assert_eq!(st.eng.ab_stats().signals_handled, 1, "and only once");
        assert!(!st.eng.test(req), "child 2 has not arrived");
    }

    #[test]
    fn live_reduce_sums_across_threads() {
        let results = run_live(&spec(8), AbConfig::default(), |ctx| {
            let data = f64s_to_bytes(&[ctx.rank() as f64, 1.0]);
            ctx.reduce(0, ReduceOp::Sum, Datatype::F64, &data).unwrap()
        });
        let root = results[0].as_ref().expect("root gets the result");
        assert_eq!(bytes_to_f64s(root), vec![28.0, 8.0]);
        for r in &results[1..] {
            assert!(r.is_none());
        }
    }

    #[test]
    fn live_baseline_matches_bypass_result() {
        for ab in [AbConfig::disabled(), AbConfig::default()] {
            let results = run_live(&spec(5), ab, |ctx| {
                let data = f64s_to_bytes(&[(ctx.rank() + 1) as f64]);
                ctx.reduce(2, ReduceOp::Prod, Datatype::F64, &data).unwrap()
            });
            assert_eq!(bytes_to_f64s(results[2].as_ref().unwrap()), vec![120.0]);
        }
    }

    #[test]
    fn live_allreduce_and_barrier() {
        let results = run_live(&spec(6), AbConfig::default(), |ctx| {
            ctx.barrier();
            let data = f64s_to_bytes(&[1.0]);
            let out = ctx.allreduce(ReduceOp::Sum, Datatype::F64, &data).unwrap();
            ctx.barrier();
            bytes_to_f64s(&out)[0]
        });
        assert!(results.iter().all(|&x| x == 6.0));
    }

    #[test]
    fn live_internal_node_returns_while_child_sleeps() {
        // The headline behaviour, on real threads: rank 2 (internal) must
        // return from reduce() long before late rank 3 even starts.
        let results = run_live(&spec(4), AbConfig::default(), |ctx| {
            if ctx.rank() == 3 {
                std::thread::sleep(Duration::from_millis(150));
            }
            let data = f64s_to_bytes(&[ctx.rank() as f64]);
            let before = Instant::now();
            let out = ctx.reduce(0, ReduceOp::Sum, Datatype::F64, &data).unwrap();
            let call = before.elapsed();
            if ctx.rank() == 2 {
                // "Other processing" — the window application bypass buys.
                // The late child's message arrives in here and must be
                // handled by the dispatcher's signal path.
                std::thread::sleep(Duration::from_millis(400));
            }
            ctx.barrier();
            (out, call, ctx.stats())
        });
        let (root_out, _, _) = &results[0];
        assert_eq!(bytes_to_f64s(root_out.as_ref().unwrap()), vec![6.0]);
        let (_, call2, stats2) = &results[2];
        assert!(
            *call2 < Duration::from_millis(100),
            "internal node blocked for {call2:?} despite application bypass"
        );
        assert_eq!(stats2.ab.ab_reductions, 1);
        assert_eq!(stats2.ab.delegated_to_async, 1, "{:?}", stats2.ab);
        assert!(
            stats2.ab.async_children >= 1 && stats2.ab.signals_handled >= 1,
            "late child must be handled by the signal path: {:?}",
            stats2.ab
        );
    }

    #[test]
    fn live_split_phase_root_overlaps_compute() {
        let results = run_live(&spec(8), AbConfig::default(), |ctx| {
            let data = f64s_to_bytes(&[ctx.rank() as f64]);
            if ctx.rank() == 0 {
                let split = ctx.reduce_split(0, ReduceOp::Sum, Datatype::F64, &data);
                // "Compute" while the reduction completes via signals.
                let mut spins = 0u64;
                while !split.test() && spins < 5_000_000 {
                    spins += 1;
                    std::hint::spin_loop();
                }
                let out = split.wait().unwrap();
                ctx.barrier();
                out
            } else {
                std::thread::sleep(Duration::from_millis(5 * ctx.rank() as u64));
                ctx.reduce(0, ReduceOp::Sum, Datatype::F64, &data).unwrap();
                ctx.barrier();
                None
            }
        });
        let total: f64 = (0..8).map(|r| r as f64).sum();
        assert_eq!(bytes_to_f64s(results[0].as_ref().unwrap()), vec![total]);
    }

    #[test]
    fn live_split_allreduce_everywhere() {
        let results = run_live(&spec(8), AbConfig::default(), |ctx| {
            let data = f64s_to_bytes(&[ctx.rank() as f64]);
            let h = ctx.allreduce_split(ReduceOp::Sum, Datatype::F64, &data);
            // Overlap with "compute".
            std::thread::sleep(Duration::from_millis(2 + ctx.rank() as u64));
            let out = h.wait().unwrap().expect("allreduce yields data everywhere");
            ctx.barrier();
            bytes_to_f64s(&out)
        });
        let expect: f64 = (0..8).map(f64::from).sum();
        for (r, vals) in results.iter().enumerate() {
            assert_eq!(vals, &vec![expect], "rank {r}");
        }
    }

    #[test]
    fn live_split_bcast_overlaps_compute() {
        let payload = Bytes::from(vec![0xAAu8; 32]);
        let expect = payload.clone();
        let results = run_live(&spec(8), AbConfig::default(), move |ctx| {
            let data = (ctx.rank() == 0).then(|| payload.clone());
            if ctx.rank() != 0 {
                // Interior/leaf ranks post first, then go compute; the
                // payload arrives via the dispatcher.
                let h = ctx.bcast_split(0, data, 32);
                std::thread::sleep(Duration::from_millis(10));
                let out = h.wait().unwrap();
                ctx.barrier();
                out
            } else {
                std::thread::sleep(Duration::from_millis(30)); // late root
                let h = ctx.bcast_split(0, data, 32);
                let out = h.wait().unwrap();
                ctx.barrier();
                out
            }
        });
        for (r, out) in results.iter().enumerate() {
            assert_eq!(out.as_ref().unwrap(), &expect, "rank {r}");
        }
    }

    #[test]
    fn live_point_to_point() {
        let results = run_live(&spec(2), AbConfig::default(), |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 7, Bytes::from(vec![42u8; 16])).unwrap();
                None
            } else {
                Some(ctx.recv(Some(0), TagSel::Is(7), 64).unwrap())
            }
        });
        assert_eq!(results[1].as_ref().unwrap().as_ref(), &[42u8; 16]);
    }

    #[test]
    fn live_panicking_rank_fails_fast_without_hanging() {
        // Regression: a rank panicking mid-reduction must propagate the
        // panic out of run_live with every thread joined — not leave the
        // other ranks blocked forever on a reduction that cannot complete.
        let start = Instant::now();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_live(&spec(4), AbConfig::default(), |ctx| {
                if ctx.rank() == 3 {
                    // Die *mid-reduction*: the other ranks are already
                    // inside the blocking call waiting for this child.
                    std::thread::sleep(Duration::from_millis(50));
                    panic!("rank 3 simulated hardware failure");
                }
                let data = f64s_to_bytes(&[1.0]);
                ctx.reduce(0, ReduceOp::Sum, Datatype::F64, &data).unwrap()
            })
        }));
        assert!(res.is_err(), "the rank panic must propagate");
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "shutdown hung for {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn live_faults_none_plan_reports_zero_rel_activity() {
        let out = run_live_faults(
            &spec(4),
            AbConfig::default(),
            &FaultPlan::none(),
            RelConfig::live_default(),
            |ctx| {
                let data = f64s_to_bytes(&[1.0]);
                ctx.reduce(0, ReduceOp::Sum, Datatype::F64, &data).unwrap()
            },
        );
        assert_eq!(bytes_to_f64s(out.results[0].as_ref().unwrap()), vec![4.0]);
        assert_eq!(out.rel, RelStats::default());
    }

    #[test]
    fn live_jobs_run_concurrently_and_independently() {
        // Three differently-sized jobs co-scheduled on real threads: each
        // job's allreduce must see only its own ranks' contributions.
        let sizes = [4u32, 2, 3];
        let results = run_live_jobs(&spec(4), AbConfig::default(), &sizes, |job, ctx| {
            let data = f64s_to_bytes(&[(ctx.rank() + 1) as f64]);
            let out = ctx.allreduce(ReduceOp::Sum, Datatype::F64, &data).unwrap();
            (job, bytes_to_f64s(&out)[0])
        });
        assert_eq!(results.len(), 3);
        for (j, &sz) in sizes.iter().enumerate() {
            let expect: f64 = (1..=sz).map(f64::from).sum();
            assert_eq!(results[j].len(), sz as usize, "job {j} rank count");
            for (r, &(job, v)) in results[j].iter().enumerate() {
                assert_eq!(job, j as u32, "job {j} rank {r} saw the wrong job id");
                assert_eq!(v, expect, "job {j} rank {r} reduced across job lines");
            }
        }
    }

    #[test]
    fn live_back_to_back_reductions() {
        let rounds = 10usize;
        let results = run_live(&spec(4), AbConfig::default(), |ctx| {
            let mut outs = Vec::new();
            for k in 0..rounds {
                let data = f64s_to_bytes(&[(ctx.rank() as f64) * (k + 1) as f64]);
                let out = ctx.reduce(0, ReduceOp::Sum, Datatype::F64, &data).unwrap();
                if let Some(d) = out {
                    outs.push(bytes_to_f64s(&d)[0]);
                }
            }
            ctx.barrier();
            outs
        });
        let base: f64 = (0..4).map(|r| r as f64).sum();
        let expect: Vec<f64> = (0..rounds).map(|k| base * (k + 1) as f64).collect();
        assert_eq!(results[0], expect);
    }
}
