//! Reproduce the paper's Fig. 2 as ASCII time lines from an actual
//! simulation: four processes, node 3 late, with and without application
//! bypass. Gray arrows in the paper = CPU occupied by the reduction; here:
//!
//! ```text
//!   #  application busy work      P  polling inside MPI_Reduce
//!   p  protocol processing        S  signal delivery / async handler
//!   .  CPU free for the application
//! ```
//!
//! In (a), node 2 — the internal node — burns a long `P` stretch waiting
//! for late node 3. In (b) it returns immediately and the same span shows
//! `.`/`#`: time the application got back, with a small `S` blip when node
//! 3's message finally arrives.
//!
//! The time lines are drawn from the `CpuCharge` records of a trace
//! recorder installed on the driver. Each record carries the virtual time
//! of the event that charged it: busy-loop (`#`) and polling (`P`) charges
//! are stamped when the span ends, protocol, handler and NIC charges when
//! it starts.
//!
//! ```text
//! cargo run --release --example fig2_timeline
//! ```

use abr_cluster::node::ClusterSpec;
use abr_cluster::program::{Program, Step, StepCtx};
use abr_cluster::DesDriver;
use abr_core::{AbConfig, AbEngine};
use abr_des::SimDuration;
use abr_mpr::engine::EngineConfig;
use abr_mpr::op::ReduceOp;
use abr_mpr::types::{f64s_to_bytes, Datatype};
use abr_trace::{RingRecorder, Trace, TraceClock, TraceEvent};

const LATE_NODE: u32 = 3;
const SKEW_US: u64 = 250;

struct Fig2Program {
    rank: u32,
    phase: u8,
}

impl Program for Fig2Program {
    fn next(&mut self, _ctx: &mut StepCtx) -> Step {
        self.phase += 1;
        match self.phase {
            // Node 3 starts late (the paper's skewed process).
            1 => Step::Busy(SimDuration::from_us(if self.rank == LATE_NODE {
                SKEW_US
            } else {
                5
            })),
            2 => Step::Reduce {
                root: 0,
                op: ReduceOp::Sum,
                dtype: Datatype::F64,
                data: f64s_to_bytes(&[self.rank as f64; 4]),
            },
            // "Other processing" after the call returns.
            3 => Step::Busy(SimDuration::from_us(120)),
            _ => Step::Done,
        }
    }
}

/// One CPU charge as a time span on `node`.
struct Span {
    node: usize,
    bucket: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

/// The non-empty CPU charges of a trace, placed on the time axis.
fn spans(trace: &Trace) -> Vec<Span> {
    let mut out = Vec::new();
    for (node, records) in trace.per_rank.iter().enumerate() {
        for r in records {
            let TraceEvent::CpuCharge { bucket, nanos } = r.event else {
                continue;
            };
            if nanos == 0 {
                continue;
            }
            let start_ns = match bucket {
                "app" | "poll" => r.t_ns.saturating_sub(nanos),
                _ => r.t_ns,
            };
            out.push(Span {
                node,
                bucket,
                start_ns,
                dur_ns: nanos,
            });
        }
    }
    out
}

fn run(ab: bool) -> (Vec<Span>, u64) {
    let spec = ClusterSpec::homogeneous_1000(4);
    let programs: Vec<Box<dyn Program>> = (0..4)
        .map(|rank| Box::new(Fig2Program { rank, phase: 0 }) as Box<dyn Program>)
        .collect();
    let cfg = if ab {
        AbConfig::default()
    } else {
        AbConfig::disabled()
    };
    let mut d = DesDriver::new(
        &spec,
        |r, ec: EngineConfig| AbEngine::new(r, 4, ec, cfg.clone()),
        programs,
    );
    let rec = RingRecorder::new(4, 1 << 14, TraceClock::Virtual, 0, 0);
    d.install_tracer(rec.clone());
    d.run();
    let trace = rec.snapshot();
    assert_eq!(trace.dropped, 0, "trace rings overflowed");
    (spans(&trace), d.now().as_nanos())
}

fn render(spans: &[Span], end_ns: u64, title: &str) {
    const COLS: usize = 96;
    println!("{title}");
    let bucket = (end_ns.max(1)).div_ceil(COLS as u64);
    for node in 0..4usize {
        // Priority per bucket: Signal > Polling > Protocol > App > idle.
        let mut row = vec![b'.'; COLS];
        let mut priority = [0u8; COLS];
        for e in spans.iter().filter(|e| e.node == node) {
            let (ch, pr) = match e.bucket {
                "signal" => (b'S', 4),
                "poll" => (b'P', 3),
                "protocol" => (b'p', 2),
                "app" => (b'#', 1),
                _ => (b'N', 4),
            };
            let first = (e.start_ns / bucket) as usize;
            let last = ((e.start_ns + e.dur_ns) / bucket) as usize;
            for b in first..=last.min(COLS - 1) {
                if pr > priority[b] {
                    priority[b] = pr;
                    row[b] = ch;
                }
            }
        }
        println!("  node {node} |{}|", String::from_utf8(row).unwrap());
    }
    println!();
}

fn main() {
    println!(
        "Fig. 2 reproduction: 4 processes, node {LATE_NODE} starts {SKEW_US}us late.\n\
         #=app busy  P=polling in MPI_Reduce  p=protocol  S=signal handler  .=CPU free\n"
    );
    let (nab, end_a) = run(false);
    render(
        &nab,
        end_a,
        "(a) non-application-bypass: node 2 polls (P) until node 3 shows up",
    );
    let (ab, end_b) = run(true);
    render(
        &ab,
        end_b,
        "(b) application-bypass: node 2's call returns; a signal (S) finishes the job",
    );
    let node2_poll_us = |spans: &[Span]| -> f64 {
        spans
            .iter()
            .filter(|e| e.node == 2 && e.bucket == "poll")
            .map(|e| e.dur_ns as f64 / 1e3)
            .sum()
    };
    let (nab_poll, ab_poll) = (node2_poll_us(&nab), node2_poll_us(&ab));
    println!("node 2 polling time: {nab_poll:.1}us (nab)  vs  {ab_poll:.1}us (ab)");
    assert!(ab_poll < nab_poll / 4.0, "bypass must free node 2's CPU");
}
