//! The [`Tracer`] trait, the per-rank ring-buffer recorder, and the
//! cheap cloneable [`TraceHandle`] threaded through instrumented code.

use crate::event::{TraceEvent, TraceRecord};
use crate::ring::EventRing;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Which clock stamps recorded events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceClock {
    /// Virtual nanoseconds maintained by the DES event loop (the queue
    /// publishes its clock via [`Tracer::set_now_ns`]).
    Virtual,
    /// Wall-clock nanoseconds since the recorder was created (live
    /// threaded runtime).
    Wall,
}

impl TraceClock {
    /// Stable label used in exporter metadata.
    pub fn label(&self) -> &'static str {
        match self {
            TraceClock::Virtual => "virtual",
            TraceClock::Wall => "wall",
        }
    }
}

/// Sink for trace events. Implemented by [`RingRecorder`]; test code
/// can supply its own collector.
///
/// All methods take `&self`: tracers are shared across ranks and, in
/// the live runtime, across threads.
pub trait Tracer: Send + Sync {
    /// Record one event on behalf of `rank`, stamping it with the
    /// tracer's current clock.
    fn record(&self, rank: u32, event: TraceEvent);

    /// Publish the current virtual time. The DES event loop calls this
    /// as it dispatches each event; wall-clock tracers ignore it.
    fn set_now_ns(&self, _now_ns: u64) {}
}

/// Lock-free per-rank ring-buffer recorder: one [`EventRing`] per rank,
/// a shared clock, and run identity (seed, attempt) for exporters.
///
/// Rings are allocated **lazily**, on a rank's first recorded event: a
/// recorder sized for 65,536 ranks costs one pointer-sized slot per rank
/// until a rank actually traces something. Combined with the disabled
/// [`TraceHandle`] fast path this means a 64k-rank simulation with
/// tracing off (or on, but quiet) allocates no ring memory at all.
///
/// # Examples
///
/// ```
/// use abr_trace::{RingRecorder, TraceClock, TraceEvent};
///
/// let rec = RingRecorder::new(2, 64, TraceClock::Virtual, 0xC0FFEE, 0);
/// rec.set_now_ns(1_000);
/// rec.handle_for(1).emit(TraceEvent::Signal { outcome: "raised" });
/// let trace = rec.snapshot();
/// assert_eq!(trace.per_rank[1].len(), 1);
/// assert_eq!(trace.per_rank[1][0].t_ns, 1_000);
/// assert_eq!(trace.seed, 0xC0FFEE);
/// ```
pub struct RingRecorder {
    seed: u64,
    attempt: u32,
    clock: TraceClock,
    now_ns: AtomicU64,
    wall_origin: Instant,
    capacity: usize,
    rings: Vec<OnceLock<EventRing>>,
    job_of: OnceLock<Vec<u32>>,
}

impl RingRecorder {
    /// Create a recorder for `ranks` ranks with `capacity` slots per
    /// rank, stamped with the given clock and run identity.
    pub fn new(
        ranks: u32,
        capacity: usize,
        clock: TraceClock,
        seed: u64,
        attempt: u32,
    ) -> Arc<Self> {
        Arc::new(RingRecorder {
            seed,
            attempt,
            clock,
            now_ns: AtomicU64::new(0),
            wall_origin: Instant::now(),
            capacity,
            rings: (0..ranks).map(|_| OnceLock::new()).collect(),
            job_of: OnceLock::new(),
        })
    }

    /// Install a rank → job map so every subsequent record is stamped
    /// with the emitting rank's job. Multi-tenant drivers call this once
    /// right after construction; single-job runs never do, leaving
    /// `job` at 0 everywhere and [`Trace::has_jobs`] false (so exporters
    /// keep their legacy single-tenant layout). A second install is
    /// ignored — the map is write-once like the rings.
    pub fn set_job_map(&self, job_of: Vec<u32>) {
        assert_eq!(
            job_of.len(),
            self.rings.len(),
            "job map must cover every rank"
        );
        let _ = self.job_of.set(job_of);
    }

    /// How many ranks have materialized a ring so far (diagnostic for the
    /// lazy-allocation guarantee).
    pub fn allocated_rings(&self) -> usize {
        self.rings.iter().filter(|c| c.get().is_some()).count()
    }

    /// A handle that emits into this recorder on behalf of `rank`.
    pub fn handle_for(self: &Arc<Self>, rank: u32) -> TraceHandle {
        TraceHandle {
            tracer: Some(self.clone() as Arc<dyn Tracer>),
            rank,
        }
    }

    /// A rank-agnostic handle (rank 0); components that know the rank
    /// per event use [`TraceHandle::emit_for`].
    pub fn handle(self: &Arc<Self>) -> TraceHandle {
        self.handle_for(0)
    }

    /// Publish the current virtual time (inherent twin of
    /// [`Tracer::set_now_ns`] so callers holding an `Arc<RingRecorder>`
    /// don't need the trait in scope).
    pub fn set_now_ns(&self, now_ns: u64) {
        self.now_ns.store(now_ns, Ordering::Relaxed);
    }

    fn now(&self) -> u64 {
        match self.clock {
            TraceClock::Virtual => self.now_ns.load(Ordering::Relaxed),
            TraceClock::Wall => self.wall_origin.elapsed().as_nanos() as u64,
        }
    }

    /// Drain a copy of everything recorded so far.
    pub fn snapshot(&self) -> Trace {
        Trace {
            seed: self.seed,
            attempt: self.attempt,
            clock: self.clock,
            has_jobs: self.job_of.get().is_some(),
            dropped: self
                .rings
                .iter()
                .filter_map(|c| c.get())
                .map(|r| r.dropped())
                .sum(),
            per_rank: self
                .rings
                .iter()
                .map(|c| c.get().map(|r| r.snapshot()).unwrap_or_default())
                .collect(),
        }
    }
}

impl Tracer for RingRecorder {
    fn record(&self, rank: u32, event: TraceEvent) {
        if let Some(cell) = self.rings.get(rank as usize) {
            let ring = cell.get_or_init(|| EventRing::new(self.capacity));
            let job = self
                .job_of
                .get()
                .map_or(0, |m| m.get(rank as usize).copied().unwrap_or(0));
            ring.push(TraceRecord {
                t_ns: self.now(),
                rank,
                job,
                event,
            });
        }
    }

    fn set_now_ns(&self, now_ns: u64) {
        RingRecorder::set_now_ns(self, now_ns);
    }
}

/// Cheap cloneable handle held by instrumented components.
///
/// A disabled handle (the [`Default`]) makes every `emit` a single
/// branch on a `None` — this is the zero-cost-when-disabled guarantee:
/// with `ABR_TRACE` unset no recorder exists and the instrumented hot
/// paths do no other work.
///
/// # Examples
///
/// ```
/// use abr_trace::{TraceHandle, TraceEvent};
///
/// let off = TraceHandle::default();
/// assert!(!off.is_enabled());
/// off.emit(TraceEvent::PhaseEnter { phase: "reduce-sync" }); // no-op
/// ```
#[derive(Clone, Default)]
pub struct TraceHandle {
    tracer: Option<Arc<dyn Tracer>>,
    rank: u32,
}

impl TraceHandle {
    /// A handle wrapping any [`Tracer`], emitting on behalf of `rank`.
    pub fn new(tracer: Arc<dyn Tracer>, rank: u32) -> Self {
        TraceHandle {
            tracer: Some(tracer),
            rank,
        }
    }

    /// Whether events emitted through this handle are recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// Emit one event on behalf of this handle's rank.
    #[inline]
    pub fn emit(&self, event: TraceEvent) {
        if let Some(t) = &self.tracer {
            t.record(self.rank, event);
        }
    }

    /// Emit one event on behalf of an explicit rank (used by shared
    /// components such as the network model).
    #[inline]
    pub fn emit_for(&self, rank: u32, event: TraceEvent) {
        if let Some(t) = &self.tracer {
            t.record(rank, event);
        }
    }

    /// Publish the current virtual time to the underlying tracer.
    #[inline]
    pub fn set_now_ns(&self, now_ns: u64) {
        if let Some(t) = &self.tracer {
            t.set_now_ns(now_ns);
        }
    }

    /// A copy of this handle bound to a different rank.
    pub fn for_rank(&self, rank: u32) -> TraceHandle {
        TraceHandle {
            tracer: self.tracer.clone(),
            rank,
        }
    }

    /// The rank this handle emits on behalf of.
    pub fn rank(&self) -> u32 {
        self.rank
    }
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle")
            .field("enabled", &self.is_enabled())
            .field("rank", &self.rank)
            .finish()
    }
}

impl PartialEq for TraceHandle {
    /// Handles compare by identity of the underlying tracer (or both
    /// disabled) plus rank — enough for config-struct equality checks.
    fn eq(&self, other: &Self) -> bool {
        let same_sink = match (&self.tracer, &other.tracer) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        same_sink && self.rank == other.rank
    }
}

/// A drained trace: per-rank event streams plus run identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Seed the traced run was driven by.
    pub seed: u64,
    /// Fault-replay attempt number (0 when faults are off).
    pub attempt: u32,
    /// Clock that stamped `t_ns` on every record.
    pub clock: TraceClock,
    /// Events recorded per rank, in emission order.
    pub per_rank: Vec<Vec<TraceRecord>>,
    /// Records rejected because a ring filled up.
    pub dropped: u64,
    /// True when the recorder had a job map installed
    /// ([`RingRecorder::set_job_map`]): records carry meaningful `job`
    /// ids and exporters should group lanes per job.
    pub has_jobs: bool,
}

impl Trace {
    /// Total number of recorded events across all ranks.
    pub fn len(&self) -> usize {
        self.per_rank.iter().map(Vec::len).sum()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The deterministic event skeleton: per rank, the ordered list of
    /// engine-level sends and, per source, the ordered list of engine
    /// deliveries. These orders are fixed by the seed and fault plan,
    /// not by scheduling, so a DES run and a live run of the same
    /// workload produce identical skeletons (the basis of the DES↔live
    /// trace-equivalence test).
    ///
    /// Timing-dependent events (cost charges, wire segments, signal
    /// outcomes, retransmit timing) are deliberately excluded.
    pub fn skeleton(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.per_rank.len());
        for (rank, recs) in self.per_rank.iter().enumerate() {
            let mut sends = String::new();
            // Per-source delivery order is FIFO on every path; order
            // *across* sources is scheduling-dependent in the live
            // runtime, so group receives by source rank.
            let mut recv_by_src: std::collections::BTreeMap<u32, String> =
                std::collections::BTreeMap::new();
            for r in recs {
                match r.event {
                    TraceEvent::PacketSend { dst, kind, bytes } => {
                        sends.push_str(&format!(" ->{dst}:{kind}:{bytes}"));
                    }
                    TraceEvent::PacketRecv { src, kind, bytes } => {
                        recv_by_src
                            .entry(src)
                            .or_default()
                            .push_str(&format!(" {kind}:{bytes}"));
                    }
                    _ => {}
                }
            }
            let mut line = format!("rank {rank}: send{sends}");
            for (src, seq) in recv_by_src {
                line.push_str(&format!(" | recv<-{src}{seq}"));
            }
            out.push(line);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rings_allocate_lazily_per_rank() {
        // A recorder sized for a 64k-rank cluster must not allocate any
        // ring storage until a rank records something.
        let rec = RingRecorder::new(65_536, 1024, TraceClock::Virtual, 1, 0);
        assert_eq!(rec.allocated_rings(), 0);
        rec.handle_for(42)
            .emit(TraceEvent::Signal { outcome: "raised" });
        rec.handle_for(42)
            .emit(TraceEvent::Signal { outcome: "raised" });
        rec.handle_for(65_535)
            .emit(TraceEvent::Signal { outcome: "raised" });
        assert_eq!(rec.allocated_rings(), 2);
        let trace = rec.snapshot();
        assert_eq!(trace.per_rank.len(), 65_536);
        assert_eq!(trace.per_rank[42].len(), 2);
        assert_eq!(trace.per_rank[65_535].len(), 1);
        assert_eq!(trace.per_rank[0].len(), 0);
        assert_eq!(trace.dropped, 0);
    }

    #[test]
    fn out_of_range_rank_is_ignored() {
        let rec = RingRecorder::new(2, 8, TraceClock::Virtual, 1, 0);
        rec.handle_for(7)
            .emit(TraceEvent::Signal { outcome: "raised" });
        assert_eq!(rec.allocated_rings(), 0);
        assert!(rec.snapshot().is_empty());
    }
}
